// mmdb_bench_diff: compare a bench metrics sidecar against a committed
// baseline and fail on drift — the repo's bench regression gate.
//
//   mmdb_bench_diff <baseline.json> <current.json> [flags]
//     --rel-tol=R   relative tolerance for timing-valued leaves (0.05)
//     --abs-tol=A   absolute floor for the same comparison (1e-9)
//     --strict      exact equality everywhere (same-binary comparisons)
//
// Members named "host" (host-clock values, at any depth) are skipped;
// every other deterministic leaf, the "audit" block included, must match
// exactly and timing/model leaves must agree within tolerance (see
// obs/bench_diff.h). Exit codes: 0 = match,
// 1 = drift (mismatches listed on stderr), 2 = usage or unreadable input.

#include <cstdio>
#include <cstring>
#include <string>

#include "env/env.h"
#include "obs/bench_diff.h"
#include "util/status.h"
#include "util/string_util.h"

namespace mmdb {
namespace {

int Run(const std::string& baseline_path, const std::string& current_path,
        const BenchDiffOptions& options) {
  std::string baseline, current;
  Status read = Env::Posix()->ReadFileToString(baseline_path, &baseline);
  if (!read.ok()) {
    std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
    return 2;
  }
  read = Env::Posix()->ReadFileToString(current_path, &current);
  if (!read.ok()) {
    std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
    return 2;
  }
  StatusOr<BenchDiffResult> result = DiffBenchJson(baseline, current, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 2;
  }
  if (!result->equal()) {
    std::fprintf(stderr,
                 "bench drift: %zu mismatched leaves (of %zu compared) "
                 "between %s and %s\n",
                 result->mismatches, result->leaves_compared,
                 baseline_path.c_str(), current_path.c_str());
    for (const std::string& report : result->reports) {
      std::fprintf(stderr, "  %s\n", report.c_str());
    }
    if (result->mismatches > result->reports.size()) {
      std::fprintf(stderr, "  ... and %zu more\n",
                   result->mismatches - result->reports.size());
    }
    return 1;
  }
  std::fprintf(stderr, "bench match: %zu leaves within tolerance\n",
               result->leaves_compared);
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <current.json> "
               "[--rel-tol=R] [--abs-tol=A] [--strict]\n",
               argv0);
  return 2;
}

// A tolerance flag's value: a finite number >= 0, or false.
bool ParseTolerance(const char* text, double* out) {
  return ParseNumber(text, out) && *out >= 0;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) {
  mmdb::BenchDiffOptions options;
  std::string baseline_path, current_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rel-tol=", 10) == 0) {
      if (!mmdb::ParseTolerance(argv[i] + 10, &options.rel_tol)) {
        return mmdb::Usage(argv[0]);
      }
    } else if (std::strncmp(argv[i], "--abs-tol=", 10) == 0) {
      if (!mmdb::ParseTolerance(argv[i] + 10, &options.abs_tol)) {
        return mmdb::Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      options.rel_tol = 0;
      options.abs_tol = 0;
    } else if (baseline_path.empty()) {
      baseline_path = argv[i];
    } else if (current_path.empty()) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    return mmdb::Usage(argv[0]);
  }
  return mmdb::Run(baseline_path, current_path, options);
}

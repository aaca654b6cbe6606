#ifndef MMDB_OBS_BENCH_DIFF_H_
#define MMDB_OBS_BENCH_DIFF_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/statusor.h"

namespace mmdb {

// Structural diff between two bench metrics sidecars (obs/sidecar.h), the
// regression gate behind tools/mmdb_bench_diff and check.sh bench-smoke:
// a fresh sweep is compared against a committed baseline
// (bench/baselines/*.json) and any drift outside tolerance fails the
// build.
//
// Comparison rules:
//   * A member named "host" is skipped, at any depth and on either side:
//     it holds every host-clock value (the sidecar's wall seconds, an
//     engine dump's recovery phase timings). It is the only
//     exception; everything else, the provenance "audit" block included,
//     is compared.
//   * Leaves whose key names a virtual-clock timing or model quantity
//     (see IsTimingField) compare within max(abs_tol, rel_tol * max(|a|,
//     |b|)) — headroom for cross-toolchain floating-point drift.
//   * Every other leaf — counters, labels, trace kinds, error strings —
//     must match exactly, as must object keys, array lengths, and types.

struct BenchDiffOptions {
  // Relative tolerance for timing-valued leaves. 0 demands exact equality
  // everywhere (same-binary, same-machine comparisons).
  double rel_tol = 0.05;
  // Absolute floor so near-zero timings don't fail on representation
  // noise.
  double abs_tol = 1e-9;
  // Cap on recorded mismatch descriptions (counting continues past it).
  std::size_t max_reports = 25;
};

struct BenchDiffResult {
  std::size_t leaves_compared = 0;
  std::size_t mismatches = 0;
  // Human-readable "path: baseline=... current=..." lines, capped at
  // BenchDiffOptions::max_reports.
  std::vector<std::string> reports;

  bool equal() const { return mismatches == 0; }
};

// True when `key` names a quantity measured in virtual-clock seconds or a
// model-oracle value: tolerance applies. Matches "...seconds"/"..._s"
// suffixes, the trace-ring time members (t/done/durable_at/until/now/
// begin/end), timer summary fields (mean/min/max/p50/p99), and the oracle
// block (predicted/measured/...residual).
bool IsTimingField(std::string_view key);

// Diffs two parsed sidecar documents. The Status is only non-OK for
// structurally unusable inputs (non-object roots); mismatches are
// reported through the result, not the Status.
StatusOr<BenchDiffResult> DiffBenchDocs(const JsonValue& baseline,
                                        const JsonValue& current,
                                        const BenchDiffOptions& options = {});

// Parses then diffs raw sidecar bytes. CORRUPTION on malformed JSON.
StatusOr<BenchDiffResult> DiffBenchJson(std::string_view baseline_json,
                                        std::string_view current_json,
                                        const BenchDiffOptions& options = {});

}  // namespace mmdb

#endif  // MMDB_OBS_BENCH_DIFF_H_

#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

struct RunOptions {
  std::string workload;  // oltp | checkpoint | restart
  uint64_t seed = 1;
  double seconds = 10.0;  // host seconds of measurement, after set-up
  bool trace = false;     // per-layer run instead of the end-to-end one
  std::string trace_out;  // Chrome trace-event file of the traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // values the reported median (or count) rests on
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // first few failure messages
};

bool IsWorkload(const std::string& name);

// Runs one workload for options.seconds and returns its metrics: the
// end-to-end set, or with options.trace the per-layer set. Inputs derive
// from options.seed only.
RunResult RunWorkload(const RunOptions& options);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_

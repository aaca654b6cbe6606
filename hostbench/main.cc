// hostbench: host-time benchmark of the engine's public API.
//
//   hostbench --workload oltp|checkpoint|restart --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Prints one line per metric (name, value, unit, samples), then, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. With --trace 1 the metrics are
// the per-layer set and the span file goes to --trace-out. Exits 1 when
// any operation or correctness check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload oltp|checkpoint|"
               "restart --seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !hostbench::IsWorkload(options.workload)) {
    return Usage("--workload must be oltp, checkpoint or restart");
  }

  const hostbench::RunResult r = hostbench::RunWorkload(options);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  }
  for (const hostbench::Metric& m : r.metrics) {
    std::printf("%-32s %18.6f %-6s samples=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const hostbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}

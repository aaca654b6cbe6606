// Figure 4e - Processor Overhead with a Stable Log Tail.
//
// With enough stable RAM to hold the in-memory log tail, the
// straightforward fuzzy algorithm (FASTFUZZY) becomes legal: segments are
// flushed in place with no buffering and no LSN bookkeeping, costing only a
// few hundred instructions per transaction. The other algorithms change
// almost nothing — their LSN-synchronization savings are insignificant.

#include <cstdio>

#include "bench/figure_util.h"
#include "util/string_util.h"

namespace mmdb {
namespace bench {
namespace {

std::vector<Algorithm> WithFastFuzzy() {
  std::vector<Algorithm> algorithms = MainAlgorithms();
  algorithms.insert(algorithms.begin(), Algorithm::kFastFuzzy);
  return algorithms;
}

void AnalyticSeries() {
  PrintHeader("Figure 4e (analytic, paper scale)",
              "overhead with a stable log tail vs volatile tail");
  std::printf("%-10s %18s %18s\n", "algorithm", "stable_tail", "volatile");
  for (Algorithm a : WithFastFuzzy()) {
    ModelInputs stable;
    stable.params = SystemParams::PaperDefaults();
    stable.algorithm = a;
    stable.mode = CheckpointMode::kPartial;
    stable.stable_log_tail = true;
    double with_stable = Evaluate(stable).overhead_per_txn;
    double with_volatile = -1.0;
    if (a != Algorithm::kFastFuzzy) {
      ModelInputs v = stable;
      v.stable_log_tail = false;
      with_volatile = Evaluate(v).overhead_per_txn;
    }
    std::printf("%-10s %18.1f %18s\n",
                std::string(AlgorithmName(a)).c_str(), with_stable,
                a == Algorithm::kFastFuzzy
                    ? "(illegal)"
                    : StringPrintf("%.1f", with_volatile).c_str());
  }
}

void MeasuredSeries(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Figure 4e (measured, engine at 1 Mword scale)",
              "overhead with a stable log tail");
  std::printf("%-10s %14s %9s\n", "algorithm", "overhead/txn", "restarts");
  for (Algorithm a : WithFastFuzzy()) {
    const std::string label(AlgorithmName(a));
    EngineOptions opt =
        MeasuredOptions(a, CheckpointMode::kPartial, /*stable=*/true);
    StatusOr<MeasuredPoint> result =
        runner->Add(label, MeasureEngine(opt, /*seconds=*/2.0), sidecar);
    if (!result.ok()) {
      std::printf("%-10s %14s\n", label.c_str(), "ERR");
      continue;
    }
    std::printf("%-10s %14.1f %9llu\n", label.c_str(),
                result->workload.overhead_per_txn,
                static_cast<unsigned long long>(
                    result->workload.color_restarts));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main() {
  mmdb::bench::BenchWallClock wall;
  mmdb::bench::AnalyticSeries();
  mmdb::MetricsSidecar sidecar("fig4e");
  mmdb::bench::SweepRunner runner;
  mmdb::bench::MeasuredSeries(&runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("fig4e", &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

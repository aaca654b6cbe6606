// Figure 4c - Effect of Varying Transaction Load.
//
// Per-transaction overhead falls as the load rises, because a checkpoint's
// (largely fixed) cost amortizes over more transactions. The effect is not
// uniform: 2CFLUSH — the only algorithm that never copies data in memory —
// is the cheapest alternative at low loads yet among the most costly at
// high loads, where transaction reruns dominate.

#include <cstdio>

#include "bench/figure_util.h"

namespace mmdb {
namespace bench {
namespace {

constexpr double kPaperLoads[] = {50, 100, 200, 500, 1000, 2000, 3000, 5000};

void AnalyticSeries() {
  PrintHeader("Figure 4c (analytic, paper scale)",
              "overhead per transaction vs arrival rate");
  std::printf("%-10s", "lambda");
  for (Algorithm a : MainAlgorithms()) {
    std::printf(" %12s", std::string(AlgorithmName(a)).c_str());
  }
  std::printf("\n");
  for (double lambda : kPaperLoads) {
    std::printf("%-10.0f", lambda);
    for (Algorithm a : MainAlgorithms()) {
      ModelInputs in;
      in.params = SystemParams::PaperDefaults();
      in.params.txn.arrival_rate = lambda;
      in.algorithm = a;
      in.mode = CheckpointMode::kPartial;
      std::printf(" %12.1f", Evaluate(in).overhead_per_txn);
    }
    std::printf("\n");
  }
}

void MeasuredSeries(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Figure 4c (measured, engine at 1 Mword scale)",
              "overhead per transaction vs arrival rate");
  const Algorithm algorithms[] = {Algorithm::kFuzzyCopy,
                                  Algorithm::kTwoColorFlush,
                                  Algorithm::kCouCopy};
  std::printf("%-10s", "lambda");
  for (Algorithm a : algorithms) {
    std::printf(" %12s", std::string(AlgorithmName(a)).c_str());
  }
  std::printf("\n");
  for (double lambda : {250.0, 1000.0, 3000.0}) {
    std::printf("%-10.0f", lambda);
    for (Algorithm a : algorithms) {
      EngineOptions opt = MeasuredOptions(a, CheckpointMode::kPartial, false);
      opt.params.txn.arrival_rate = lambda;
      StatusOr<MeasuredPoint> point = runner->Add(
          std::string(AlgorithmName(a)) + "/lambda=" +
              std::to_string(static_cast<int>(lambda)),
          MeasureEngine(opt, /*seconds=*/2.0), sidecar);
      if (point.ok()) {
        std::printf(" %12.1f", point->workload.overhead_per_txn);
      } else {
        std::printf(" %12s", "ERR");
      }
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main() {
  mmdb::bench::BenchWallClock wall;
  mmdb::bench::AnalyticSeries();
  mmdb::MetricsSidecar sidecar("fig4c");
  mmdb::bench::SweepRunner runner;
  mmdb::bench::MeasuredSeries(&runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("fig4c", &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

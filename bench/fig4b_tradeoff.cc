// Figure 4b - Processor Overhead / Recovery Time Trade-off.
//
// Sweeping the checkpoint duration for 2CCOPY and COUCOPY traces a curve
// through (recovery time, overhead) space: longer durations buy lower
// overhead at the price of longer recovery. Doubling the backup bandwidth
// (40 disks instead of 20) extends the curves left (smaller feasible
// durations) and benefits 2CCOPY far more than COUCOPY, because a shorter
// active sweep means fewer two-color restarts.

#include <cstdio>

#include "bench/figure_util.h"

namespace mmdb {
namespace bench {
namespace {

constexpr double kMultipliers[] = {1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0};

void AnalyticSeries() {
  PrintHeader("Figure 4b (analytic, paper scale)",
              "overhead vs recovery as the checkpoint duration varies");
  for (int disks : {20, 40}) {
    for (Algorithm a : {Algorithm::kTwoColorCopy, Algorithm::kCouCopy}) {
      ModelInputs base;
      base.params = SystemParams::PaperDefaults();
      base.params.disk.num_disks = disks;
      base.algorithm = a;
      base.mode = CheckpointMode::kPartial;
      double d_min = Evaluate(base).min_interval;
      std::printf("\n%s, %d disks (D_min=%.2fs)\n",
                  std::string(AlgorithmName(a)).c_str(), disks, d_min);
      std::printf("  %10s %12s %12s %8s\n", "duration_s", "recovery_s",
                  "overhead/txn", "reruns");
      for (double m : kMultipliers) {
        ModelInputs in = base;
        in.checkpoint_interval = m * d_min;
        ModelOutputs out = Evaluate(in);
        std::printf("  %10.2f %12.2f %12.1f %8.3f\n", out.interval,
                    out.recovery_seconds, out.overhead_per_txn,
                    out.expected_reruns);
      }
    }
  }
}

void MeasuredSeries(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Figure 4b (measured, engine at 1 Mword scale)",
              "three duration points per algorithm, 20 disks");
  const Algorithm algorithms[] = {Algorithm::kTwoColorCopy,
                                  Algorithm::kCouCopy};
  const double intervals[] = {0.0, 1.0, 2.0};
  std::vector<SweepPoint> points;
  for (Algorithm a : algorithms) {
    for (double interval : intervals) {
      points.push_back(SweepPoint{
          std::string(AlgorithmName(a)) + "/interval=" +
              std::to_string(interval),
          [a, interval] {
            EngineOptions opt =
                MeasuredOptions(a, CheckpointMode::kPartial, false);
            opt.checkpoint_interval = interval;
            return MeasureEngine(opt, /*seconds=*/4.0);
          }});
    }
  }
  std::vector<StatusOr<MeasuredPoint>> results =
      runner->Run(points, sidecar);
  std::size_t i = 0;
  for (Algorithm a : algorithms) {
    std::printf("\n%s\n", std::string(AlgorithmName(a)).c_str());
    std::printf("  %12s %12s %12s %9s\n", "interval_s", "recovery_s",
                "overhead/txn", "restarts");
    for (double interval : intervals) {
      (void)interval;
      const StatusOr<MeasuredPoint>& point = results[i++];
      if (!point.ok()) {
        std::printf("  %12s\n", "ERR");
        continue;
      }
      std::printf("  %12.2f %12.3f %12.1f %9llu\n",
                  point->workload.avg_checkpoint_interval,
                  point->recovery.total_seconds,
                  point->workload.overhead_per_txn,
                  static_cast<unsigned long long>(
                      point->workload.color_restarts));
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main(int argc, char** argv) {
  mmdb::bench::BenchWallClock wall;
  std::size_t jobs = mmdb::bench::ParseJobs(argc, argv);
  mmdb::bench::AnalyticSeries();
  mmdb::MetricsSidecar sidecar("fig4b");
  mmdb::bench::SweepRunner runner(jobs);
  mmdb::bench::MeasuredSeries(&runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("fig4b", jobs, &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

// Figure 4a - Processor Overhead and Recovery Time.
//
// The paper's headline comparison: per-transaction checkpoint overhead and
// recovery time for each algorithm, with checkpoints run as fast as
// possible (no delay between them) and partial (dirty-bit) mode. Expected
// shape: the two-color algorithms cost several times the others (dominated
// by transaction reruns); COU matches fuzzy; recovery times are nearly
// identical, two-color very slightly longer.

#include <cstdio>

#include "bench/figure_util.h"

namespace mmdb {
namespace bench {
namespace {

void AnalyticSeries() {
  PrintHeader("Figure 4a (analytic, paper scale)",
              "overhead & recovery, minimum checkpoint duration");
  SystemParams paper = SystemParams::PaperDefaults();
  PrintParams(paper);
  std::printf("%-10s %12s %10s %10s %8s %10s %12s\n", "algorithm",
              "overhead/txn", "sync", "async", "reruns", "recovery_s",
              "ckpt_dur_s");
  for (Algorithm a : MainAlgorithms()) {
    ModelInputs in;
    in.params = paper;
    in.algorithm = a;
    in.mode = CheckpointMode::kPartial;
    ModelOutputs out = Evaluate(in);
    std::printf("%-10s %12.1f %10.1f %10.1f %8.3f %10.2f %12.2f\n",
                std::string(AlgorithmName(a)).c_str(), out.overhead_per_txn,
                out.sync_per_txn, out.async_per_txn, out.expected_reruns,
                out.recovery_seconds, out.interval);
  }
}

void MeasuredSeries(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Figure 4a (measured, engine at 1 Mword scale)",
              "overhead & recovery from the executable engine");
  std::printf("%-10s %12s %10s %10s %9s %10s %12s %8s\n", "algorithm",
              "overhead/txn", "sync", "async", "restarts", "recovery_s",
              "ckpt_dur_s", "commits");
  std::vector<SweepPoint> points;
  for (Algorithm a : MainAlgorithms()) {
    points.push_back(SweepPoint{
        std::string(AlgorithmName(a)), [a] {
          EngineOptions opt =
              MeasuredOptions(a, CheckpointMode::kPartial, /*stable=*/false);
          return MeasureEngine(opt, /*seconds=*/2.0);
        }});
  }
  std::vector<StatusOr<MeasuredPoint>> results =
      runner->Run(points, sidecar);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::printf("%-10s %12s\n", points[i].label.c_str(), "ERR");
      continue;
    }
    const MeasuredPoint& point = *results[i];
    const WorkloadResult& w = point.workload;
    std::printf("%-10s %12.1f %10.1f %10.1f %9llu %10.3f %12.3f %8llu\n",
                points[i].label.c_str(), w.overhead_per_txn, w.sync_per_txn,
                w.async_per_txn,
                static_cast<unsigned long long>(w.color_restarts),
                point.recovery.total_seconds, w.avg_checkpoint_duration,
                static_cast<unsigned long long>(w.committed));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main(int argc, char** argv) {
  mmdb::bench::BenchWallClock wall;
  std::size_t jobs = mmdb::bench::ParseJobs(argc, argv);
  mmdb::bench::AnalyticSeries();
  mmdb::MetricsSidecar sidecar("fig4a");
  mmdb::bench::SweepRunner runner(jobs);
  mmdb::bench::MeasuredSeries(&runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("fig4a", jobs, &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

// Modern consistent-snapshot algorithms vs the paper's six.
//
// Sweeps all nine algorithms (the 1989 six plus ZIGZAG, PINGPONG and
// HOURGLASS) in both checkpoint modes, measuring per-transaction overhead
// and post-crash recovery time from the executable engine. The analytic
// series covers every algorithm the reconstructed model supports;
// HOURGLASS is model-exempt (no closed form for its first-touch record
// footprint), so it appears only in the measured table and its sidecar
// entries carry no validation block.
//
// Expected shape: the modern algorithms match COU's overhead without the
// copy-on-update stall (ZIGZAG), trade memory for wait-free updates
// (PINGPONG: double-write on every update, cheapest sweep), or pay only
// for records actually touched mid-sweep (HOURGLASS). Recovery times stay
// in the same band as the six — the backup format is shared.
//
//   --quick    shorter workload per point (sanitizer lanes)

#include <cstdio>
#include <cstring>

#include "bench/figure_util.h"

namespace mmdb {
namespace bench {
namespace {

void AnalyticSeries() {
  PrintHeader("Modern algorithms (analytic, paper scale)",
              "overhead & recovery, minimum checkpoint duration");
  SystemParams paper = SystemParams::PaperDefaults();
  PrintParams(paper);
  std::printf("%-10s %12s %10s %10s %8s %10s %12s\n", "algorithm",
              "overhead/txn", "sync", "async", "reruns", "recovery_s",
              "ckpt_dur_s");
  for (Algorithm a : kAllAlgorithms) {
    if (!ModelSupportsAlgorithm(a)) continue;  // HOURGLASS: measured only
    ModelInputs in;
    in.params = paper;
    in.algorithm = a;
    in.mode = CheckpointMode::kPartial;
    in.stable_log_tail = a == Algorithm::kFastFuzzy;
    ModelOutputs out = Evaluate(in);
    std::printf("%-10s %12.1f %10.1f %10.1f %8.3f %10.2f %12.2f\n",
                std::string(AlgorithmName(a)).c_str(), out.overhead_per_txn,
                out.sync_per_txn, out.async_per_txn, out.expected_reruns,
                out.recovery_seconds, out.interval);
  }
}

void MeasuredSeries(double seconds, SweepRunner* runner,
                    MetricsSidecar* sidecar) {
  PrintHeader("Modern algorithms (measured, engine at 1 Mword scale)",
              "overhead & recovery from the executable engine, both modes");
  std::printf("%-18s %12s %10s %10s %9s %10s %8s\n", "algorithm/mode",
              "overhead/txn", "sync", "async", "restarts", "recovery_s",
              "commits");
  for (Algorithm a : kAllAlgorithms) {
    for (CheckpointMode mode :
         {CheckpointMode::kPartial, CheckpointMode::kFull}) {
      const std::string label =
          std::string(AlgorithmName(a)) + "/" +
          (mode == CheckpointMode::kPartial ? "partial" : "full");
      EngineOptions opt =
          MeasuredOptions(a, mode, /*stable=*/a == Algorithm::kFastFuzzy);
      StatusOr<MeasuredPoint> result =
          runner->Add(label, MeasureEngine(opt, seconds), sidecar);
      if (!result.ok()) {
        std::printf("%-18s %12s\n", label.c_str(), "ERR");
        continue;
      }
      const MeasuredPoint& point = *result;
      const WorkloadResult& w = point.workload;
      std::printf("%-18s %12.1f %10.1f %10.1f %9llu %10.3f %8llu\n",
                  label.c_str(), w.overhead_per_txn, w.sync_per_txn,
                  w.async_per_txn,
                  static_cast<unsigned long long>(w.color_restarts),
                  point.recovery.total_seconds,
                  static_cast<unsigned long long>(w.committed));
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main(int argc, char** argv) {
  mmdb::bench::BenchWallClock wall;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  mmdb::bench::AnalyticSeries();
  mmdb::MetricsSidecar sidecar("fig_modern");
  mmdb::bench::SweepRunner runner;
  mmdb::bench::MeasuredSeries(quick ? 0.5 : 2.0, &runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("fig_modern", &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

// Figure 4d - Effect of Varying Segment Size.
//
// Two regimes, as in the paper:
//  * fixed 300 s checkpoint interval (dotted curves): larger segments give
//    higher backup bandwidth, so the sweep occupies less of each interval —
//    the two-color algorithms abort fewer transactions and improve;
//    COUCOPY barely moves.
//  * run-as-fast-as-possible (solid curves): bigger segments mean fewer,
//    larger transfers (less per-segment overhead) but a shorter interval,
//    so the whole checkpoint amortizes over fewer transactions. The
//    copy-heavy algorithms (2CCOPY, COUCOPY, FUZZYCOPY) get worse as
//    segments grow; 2CFLUSH — which never copies — gets better.

#include <cstdio>

#include "bench/figure_util.h"

namespace mmdb {
namespace bench {
namespace {

constexpr uint32_t kSegmentWords[] = {1024, 2048, 4096,  8192,
                                      16384, 32768, 65536};

void AnalyticSeries(double interval, const char* label) {
  PrintHeader("Figure 4d (analytic, paper scale)", label);
  const Algorithm algorithms[] = {Algorithm::kTwoColorFlush,
                                  Algorithm::kTwoColorCopy,
                                  Algorithm::kCouCopy,
                                  Algorithm::kFuzzyCopy};
  std::printf("%-10s", "seg_words");
  for (Algorithm a : algorithms) {
    std::printf(" %12s", std::string(AlgorithmName(a)).c_str());
  }
  std::printf("\n");
  for (uint32_t seg : kSegmentWords) {
    std::printf("%-10u", seg);
    for (Algorithm a : algorithms) {
      ModelInputs in;
      in.params = SystemParams::PaperDefaults();
      in.params.db.segment_words = seg;
      in.algorithm = a;
      in.mode = CheckpointMode::kPartial;
      in.checkpoint_interval = interval;
      std::printf(" %12.1f", Evaluate(in).overhead_per_txn);
    }
    std::printf("\n");
  }
}

void MeasuredSeries(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Figure 4d (measured, engine at 1 Mword scale)",
              "run-as-fast-as-possible, overhead vs segment size");
  const Algorithm algorithms[] = {Algorithm::kTwoColorFlush,
                                  Algorithm::kCouCopy};
  std::printf("%-10s", "seg_words");
  for (Algorithm a : algorithms) {
    std::printf(" %12s", std::string(AlgorithmName(a)).c_str());
  }
  std::printf("\n");
  for (uint32_t seg : {2048u, 8192u, 32768u}) {
    std::printf("%-10u", seg);
    for (Algorithm a : algorithms) {
      EngineOptions opt = MeasuredOptions(a, CheckpointMode::kPartial, false);
      opt.params.db.segment_words = seg;
      StatusOr<MeasuredPoint> point = runner->Add(
          std::string(AlgorithmName(a)) + "/seg_words=" + std::to_string(seg),
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
  mmdb::bench::AnalyticSeries(0.0,
                              "minimum interval (solid curves), overhead");
  mmdb::bench::AnalyticSeries(
      300.0, "fixed 300 s interval (dotted curves), overhead");
  mmdb::MetricsSidecar sidecar("fig4d");
  mmdb::bench::SweepRunner runner;
  mmdb::bench::MeasuredSeries(&runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("fig4d", &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

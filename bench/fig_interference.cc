// Tail-latency interference under checkpointing: all nine algorithms
// against the paper's uniform load and an adversarial Zipf load.
//
// Each point runs the same SystemParams; the adversarial points add
// Zipf(0.99) key skew (hot ranks cluster in the low segments, colliding
// with the checkpoint sweep), hot-set churn across segments, and a
// read-only fraction. For every point the bench reports the latency tail
// (p50/p90/p99/p999/max) plus the per-cause attribution of total latency:
// quiesce barrier stalls, checkpoint-held segment locks, color-violation
// restart waits, lock-conflict restart waits, and head-of-line queueing
// behind stalled predecessors (the open-loop amplification of a stall).
//
// The driver's virtual-clock identity — the five causes sum to total
// latency — is asserted per point; a violation fails the bench. Engines
// run with the time-series sampler on, so each sidecar entry carries
// counter tracks renderable by mmdb_trace_report.
//
// Expected shape: COUCOPY is the only quiesce-cause algorithm; the
// two-color algorithms shift attribution to color restarts under skew;
// the modern snapshot algorithms (ZIGZAG/PINGPONG/HOURGLASS) keep p999
// closest to the checkpoint-free floor.
//
//   --quick    shorter workload per point (sanitizer lanes)
//   --jobs=N   sweep width (stdout and sidecar are byte-identical at any N)

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/figure_util.h"
#include "util/string_util.h"

namespace mmdb {
namespace bench {
namespace {

StatusOr<MeasuredPoint> MeasureInterference(Algorithm a, bool zipf,
                                            double seconds) {
  EngineOptions opt = MeasuredOptions(a, CheckpointMode::kPartial,
                                      /*stable=*/a == Algorithm::kFastFuzzy);
  // Sample the interference counters every 50 virtual ms; the ring bound
  // keeps long runs from bloating the sidecar.
  opt.timeseries_epoch = 0.05;
  std::unique_ptr<Env> env = NewMemEnv();
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::Open(opt, env.get()));
  WorkloadOptions wopt;
  wopt.duration = seconds;
  wopt.seed = 42;
  if (zipf) {
    wopt.key_dist = WorkloadOptions::KeyDist::kZipf;
    wopt.zipf_theta = 0.99;
    wopt.hot_churn_interval = seconds / 4.0;
    wopt.read_fraction = 0.25;
  }
  WorkloadDriver driver(engine.get(), wopt);
  MeasuredPoint point;
  MMDB_ASSIGN_OR_RETURN(point.workload, driver.Run());
  point.metrics_json = engine->DumpMetricsJson();
  return point;
}

// The six causes must reproduce total latency on the virtual clock (see
// WorkloadResult); tolerance covers float summation order only. The
// recovery-wait cause is zero here (no restart in this figure) but stays in
// the identity so an attribution leak cannot hide behind the extra term.
bool AttributionConsistent(const WorkloadResult& w) {
  const double sum = w.stall_quiesce_seconds + w.stall_ckpt_lock_seconds +
                     w.stall_recovery_wait_seconds +
                     w.backoff_color_seconds + w.backoff_lock_seconds +
                     w.queue_seconds;
  const double tol = 1e-6 * std::max(1.0, w.latency_total_seconds);
  return std::fabs(sum - w.latency_total_seconds) <= tol;
}

void MeasuredSeries(double seconds, SweepRunner* runner,
                    MetricsSidecar* sidecar) {
  PrintHeader("Checkpoint interference (measured, engine at 1 Mword scale)",
              "latency tail and per-cause attribution, uniform vs zipf");
  std::printf("%-18s %8s %8s %8s %8s %8s %8s %7s %7s %7s %7s %7s\n",
              "algorithm/dist", "commits", "p50ms", "p90ms", "p99ms",
              "p999ms", "maxms", "quies%", "cklck%", "color%", "lock%",
              "queue%");
  std::vector<SweepPoint> points;
  for (Algorithm a : kAllAlgorithms) {
    for (bool zipf : {false, true}) {
      points.push_back(SweepPoint{
          std::string(AlgorithmName(a)) + (zipf ? "/zipf" : "/uniform"),
          [a, zipf, seconds] {
            return MeasureInterference(a, zipf, seconds);
          }});
    }
  }
  std::vector<StatusOr<MeasuredPoint>> results =
      runner->Run(points, sidecar);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::printf("%-18s %8s\n", points[i].label.c_str(), "ERR");
      continue;
    }
    const WorkloadResult& w = results[i]->workload;
    const double total = w.latency_total_seconds;
    auto share = [total](double component) {
      return total > 0.0 ? 100.0 * component / total : 0.0;
    };
    std::printf(
        "%-18s %8llu %8.3f %8.3f %8.3f %8.3f %8.3f %7.1f %7.1f %7.1f "
        "%7.1f %7.1f\n",
        points[i].label.c_str(), static_cast<unsigned long long>(w.committed),
        w.latency.Percentile(50) / 1e3, w.latency.Percentile(90) / 1e3,
        w.latency.Percentile(99) / 1e3, w.latency.Percentile(99.9) / 1e3,
        w.latency.max() / 1e3, share(w.stall_quiesce_seconds),
        share(w.stall_ckpt_lock_seconds), share(w.backoff_color_seconds),
        share(w.backoff_lock_seconds), share(w.queue_seconds));
    if (!AttributionConsistent(w)) {
      runner->NoteFailure(
          points[i].label.c_str(),
          InternalError(StringPrintf(
              "latency attribution broken: causes sum to %.9f but "
              "latency_total=%.9f",
              w.stall_quiesce_seconds + w.stall_ckpt_lock_seconds +
                  w.stall_recovery_wait_seconds + w.backoff_color_seconds +
                  w.backoff_lock_seconds + w.queue_seconds,
              total)),
          sidecar);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main(int argc, char** argv) {
  mmdb::bench::BenchWallClock wall;
  std::size_t jobs = mmdb::bench::ParseJobs(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  mmdb::MetricsSidecar sidecar("fig_interference");
  mmdb::bench::SweepRunner runner(jobs);
  mmdb::bench::MeasuredSeries(quick ? 0.5 : 2.0, &runner, &sidecar);
  wall.Report("fig_interference", jobs, &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

// recovery_bench: blocking vs instant restart of the same crash at two
// database sizes (DESIGN.md §14, §19).
//
// Every point runs the same deterministic history — workload, crash,
// recover. The "<size>/blocking" row restarts with a blocking Recover();
// the "<size>/instant" row restarts the same crash with
// EngineOptions::instant_recovery, serves a probe workload against the
// half-recovered store, then calls DrainRecovery(). The drained stats must
// equal the blocking row's modeled columns bit for bit; the bench exits
// nonzero if they do not. The instant row fills the availability columns:
// t_first_s (time to first transaction), t_full_s (time to full recovery;
// the blocking row prints total_s for both) and the p99 per-transaction
// recovery-latch wait in ms. On the large config the bench additionally
// fails unless t_first_s <= 10% of t_full_s. Real wall time goes to stderr
// and to each engine dump's "host.recovery" block (skipped by every
// comparison of bench artifacts).
//
//   recovery_bench [--quick]
//
// --quick: the small size only (the sanitizer smoke configuration).
//
// Baseline regeneration (the committed bench/baselines/recovery.json), as
// one command line:
//   MMDB_TRACE_CAPACITY=64 MMDB_METRICS_SIDECAR=bench/baselines/recovery.json
//       ./build/bench/recovery_bench > /dev/null

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/figure_util.h"
#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "obs/sidecar.h"

namespace mmdb {
namespace bench {
namespace {

struct SizeConfig {
  const char* name;
  uint64_t db_words;
  double workload_seconds;
};

struct RecoveryPoint {
  RecoveryStats stats;
  std::string metrics_json;
  double recover_wall = 0.0;  // real seconds around Engine::Recover()
  // Availability columns (virtual clock). Blocking recovery serves its
  // first transaction only when everything is back, so both equal
  // total_seconds there; the instant row reports the real split.
  double time_to_first_txn = 0.0;
  double time_to_full_recovery = 0.0;
  double recwait_p99_ms = 0.0;  // p99 per-txn recovery-latch wait, probe run
};

StatusOr<RecoveryPoint> MeasureRecovery(const SizeConfig& size,
                                        bool instant) {
  EngineOptions opt;
  opt.params.db.db_words = size.db_words;
  opt.instant_recovery = instant;
  std::unique_ptr<Env> env = NewMemEnv();
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::Open(opt, env.get()));
  // A complete checkpoint first, then a checkpoint-free workload: recovery
  // must reload the whole backup AND replay the whole workload suffix —
  // both pipeline stages carry real work. (Checkpoints mid-workload would
  // make the restore point depend on the size's sweep time.)
  MMDB_RETURN_IF_ERROR(engine->RunCheckpointToCompletion());
  WorkloadOptions wopt;
  wopt.duration = size.workload_seconds;
  wopt.run_checkpoints = false;
  WorkloadDriver driver(engine.get(), wopt);
  MMDB_RETURN_IF_ERROR(driver.Run().status());
  MMDB_RETURN_IF_ERROR(engine->FlushLog());
  MMDB_RETURN_IF_ERROR(engine->AdvanceTime(1.0));
  MMDB_RETURN_IF_ERROR(engine->Crash());
  RecoveryPoint point;
  auto start = std::chrono::steady_clock::now();
  MMDB_ASSIGN_OR_RETURN(point.stats, engine->Recover());
  std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  point.recover_wall = wall.count();
  if (engine->instant_recovery_enabled()) {
    point.time_to_first_txn = engine->time_to_first_txn();
    // Serve a probe workload against the half-recovered store: first
    // touches stall on the per-segment recovery latch (the sixth
    // attribution cause), everything else proceeds — exactly the instant-
    // restart service window the tentpole exists for.
    WorkloadOptions probe;
    probe.duration = size.workload_seconds / 4.0;
    probe.run_checkpoints = false;
    probe.seed = 43;
    WorkloadDriver probe_driver(engine.get(), probe);
    MMDB_RETURN_IF_ERROR(probe_driver.Run().status());
    MMDB_RETURN_IF_ERROR(engine->DrainRecovery());
    // The drained stats are the blocking-equivalence contract: Run() below
    // gates on them matching the blocking row bit-for-bit.
    point.stats = engine->last_recovery();
    point.time_to_full_recovery = engine->time_to_full_recovery();
    if (engine->metrics() != nullptr) {
      point.recwait_p99_ms =
          engine->metrics()
              ->timer("workload.stall_recovery_wait_seconds")
              ->Snapshot()
              .Percentile(99) *
          1e3;
    }
  } else {
    point.time_to_first_txn = point.stats.total_seconds;
    point.time_to_full_recovery = point.stats.total_seconds;
  }
  point.metrics_json = engine->DumpMetricsJson();
  return point;
}

// True when the rows' modeled quantities differ anywhere — the
// equivalence contract the instant schedule must never break.
bool ModeledDiffers(const RecoveryStats& a, const RecoveryStats& b) {
  return a.checkpoint_id != b.checkpoint_id || a.copy != b.copy ||
         a.backup_read_seconds != b.backup_read_seconds ||
         a.log_read_seconds != b.log_read_seconds ||
         a.replay_cpu_seconds != b.replay_cpu_seconds ||
         a.total_seconds != b.total_seconds ||
         a.segments_loaded != b.segments_loaded ||
         a.segments_retried != b.segments_retried ||
         a.log_bytes_read != b.log_bytes_read ||
         a.records_scanned != b.records_scanned ||
         a.updates_applied != b.updates_applied ||
         a.txns_redone != b.txns_redone ||
         a.fell_back_to_older_copy != b.fell_back_to_older_copy;
}

int Run(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<SizeConfig> sizes = {
      {"small", 1ull << 20, 0.5},  // 128 segments, 4 MiB
      {"large", 1ull << 25, 1.0},  // 4096 segments, 128 MiB
  };
  if (quick) sizes.resize(1);

  MetricsSidecar sidecar("recovery");
  BenchWallClock bench_wall;
  SweepRunner runner;

  PrintHeader("recovery_bench", "blocking vs instant restart");
  std::printf("modeled columns are virtual-clock quantities and must be\n"
              "identical down each size block; wall seconds go to stderr\n");

  int rc = 0;
  for (const SizeConfig& size : sizes) {
    const std::vector<std::string> labels = {
        std::string(size.name) + "/blocking",
        std::string(size.name) + "/instant"};
    std::vector<StatusOr<RecoveryPoint>> results;
    for (bool instant : {false, true}) {
      results.push_back(MeasureRecovery(size, instant));
    }

    std::printf("\n%s (%llu words, %.2fs workload)\n", size.name,
                static_cast<unsigned long long>(size.db_words),
                size.workload_seconds);
    const int lw = static_cast<int>(labels[0].size());
    std::printf("%-*s %12s %12s %12s %12s %10s %10s %9s %12s %12s %14s\n",
                lw, "point", "total_s", "backup_s", "log_s", "replay_s",
                "segments", "updates", "txns", "t_first_s", "t_full_s",
                "recwait_p99_ms");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const bool is_instant = i == 1;
      if (!results[i].ok()) {
        runner.NoteFailure(labels[i].c_str(), results[i].status(), &sidecar);
        std::printf("%-*s %12s\n", lw, labels[i].c_str(), "ERR");
        continue;
      }
      const RecoveryPoint& p = *results[i];
      const RecoveryStats& s = p.stats;
      std::printf("%-*s %12.6f %12.6f %12.6f %12.6f %10llu %10llu %9llu "
                  "%12.6f %12.6f %14.4f\n",
                  lw, labels[i].c_str(), s.total_seconds, s.backup_read_seconds,
                  s.log_read_seconds, s.replay_cpu_seconds,
                  static_cast<unsigned long long>(s.segments_loaded),
                  static_cast<unsigned long long>(s.updates_applied),
                  static_cast<unsigned long long>(s.txns_redone),
                  p.time_to_first_txn, p.time_to_full_recovery,
                  p.recwait_p99_ms);
      sidecar.Add(labels[i], std::string(p.metrics_json), std::string());
      if (!is_instant) {
        std::fprintf(stderr,
                     "%s: recover_wall=%.4fs (backup=%.4fs scan=%.4fs "
                     "replay=%.4fs)\n",
                     labels[i].c_str(), p.recover_wall,
                     s.backup_read_wall_seconds, s.log_scan_wall_seconds,
                     s.replay_wall_seconds);
        continue;
      }
      if (results[0].ok() && ModeledDiffers(results[0]->stats, s)) {
        std::fprintf(stderr,
                     "FAIL: %s modeled stats differ from the blocking row — "
                     "instant recovery (drained) broke determinism\n",
                     labels[i].c_str());
        rc = 1;
      }
      // The availability contract on the large config: the engine is
      // serving transactions within 10% of the full-recovery window.
      if (std::strcmp(size.name, "large") == 0 &&
          p.time_to_first_txn > 0.1 * p.time_to_full_recovery) {
        std::fprintf(stderr,
                     "FAIL: %s time_to_first_txn=%.6fs exceeds 10%% of "
                     "time_to_full_recovery=%.6fs\n",
                     labels[i].c_str(), p.time_to_first_txn,
                     p.time_to_full_recovery);
        rc = 1;
      }
      std::fprintf(stderr,
                   "%s: recover_wall=%.4fs t_first=%.6fs t_full=%.6fs\n",
                   labels[i].c_str(), p.recover_wall, p.time_to_first_txn,
                   p.time_to_full_recovery);
    }
  }

  bench_wall.Report("recovery_bench", &sidecar);
  if (!sidecar.Write().ok() || runner.AnyFailed()) rc = 1;
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main(int argc, char** argv) { return mmdb::bench::Run(argc, argv); }

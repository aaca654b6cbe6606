// Ablation studies for the design choices DESIGN.md calls out, measured on
// the executable engine:
//   1. partial vs full checkpoints (the dirty-bit machinery's payoff),
//   2. LSN maintenance on/off (what the stable log tail actually saves),
//   3. group-commit flush cadence (log-device seeks vs commit latency),
//   4. the COU snapshot-buffer cap (graceful degradation under pressure),
//   5. logical (delta) vs physical (after-image) logging.
//
// Every study runs its points through the sweep runner (--jobs=N /
// MMDB_BENCH_JOBS): each point owns a private MemEnv + Engine, results are
// printed in declared order, and a failed point prints ERR and makes the
// bench exit nonzero.

#include <cstdio>

#include "bench/figure_util.h"

namespace mmdb {
namespace bench {
namespace {

void PartialVsFull(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 1", "partial vs full checkpoints (FUZZYCOPY)");
  std::printf("%-8s %14s %14s %14s\n", "mode", "overhead/txn",
              "flushed/ckpt", "ckpt_dur_s");
  const CheckpointMode modes[] = {CheckpointMode::kPartial,
                                  CheckpointMode::kFull};
  std::vector<SweepPoint> points;
  for (CheckpointMode mode : modes) {
    points.push_back(SweepPoint{
        std::string("partial_vs_full/") +
            (mode == CheckpointMode::kPartial ? "partial" : "full"),
        [mode] {
          EngineOptions opt =
              MeasuredOptions(Algorithm::kFuzzyCopy, mode, false);
          // A light load leaves most segments clean, so partial mode has
          // something to skip.
          opt.params.txn.arrival_rate = 200;
          return MeasureEngine(opt, 3.0);
        }});
  }
  std::vector<StatusOr<MeasuredPoint>> results =
      runner->Run(points, sidecar);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const char* mode_name =
        modes[i] == CheckpointMode::kPartial ? "partial" : "full";
    if (!results[i].ok()) {
      std::printf("%-8s %14s\n", mode_name, "ERR");
      continue;
    }
    std::printf("%-8s %14.1f %14.1f %14.3f\n", mode_name,
                results[i]->workload.overhead_per_txn,
                results[i]->workload.segments_flushed_per_ckpt,
                results[i]->workload.avg_checkpoint_duration);
  }
}

void LsnMaintenance(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 2",
              "LSN maintenance cost: volatile vs stable log tail");
  std::printf("%-10s %14s %14s\n", "algorithm", "volatile", "stable");
  const Algorithm algorithms[] = {Algorithm::kFuzzyCopy,
                                  Algorithm::kTwoColorCopy,
                                  Algorithm::kCouCopy};
  std::vector<SweepPoint> points;
  for (Algorithm a : algorithms) {
    for (bool stable : {false, true}) {
      points.push_back(SweepPoint{
          std::string("lsn/") + std::string(AlgorithmName(a)) +
              (stable ? "/stable" : "/volatile"),
          [a, stable] {
            EngineOptions opt =
                MeasuredOptions(a, CheckpointMode::kPartial, stable);
            return MeasureEngine(opt, 2.0);
          }});
    }
  }
  std::vector<StatusOr<MeasuredPoint>> results =
      runner->Run(points, sidecar);
  std::size_t i = 0;
  for (Algorithm a : algorithms) {
    double costs[2];
    bool ok[2];
    for (int s = 0; s < 2; ++s, ++i) {
      ok[s] = results[i].ok();
      costs[s] = ok[s] ? results[i]->workload.sync_per_txn : -1;
    }
    std::printf("%-10s ", std::string(AlgorithmName(a)).c_str());
    for (int s = 0; s < 2; ++s) {
      if (ok[s]) {
        std::printf("%14.1f ", costs[s]);
      } else {
        std::printf("%14s ", "ERR");
      }
    }
    std::printf("  (sync instructions/txn)\n");
  }
}

void FlushCadence(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 3", "group-commit cadence (FUZZYCOPY)");
  std::printf("%-12s %14s %14s %12s\n", "interval_s", "overhead/txn",
              "ckpt_dur_s", "flushes");
  struct CadenceResult {
    double overhead_per_txn;
    double avg_checkpoint_duration;
    uint64_t flushes;
  };
  const double cadences[] = {0.01, 0.05, 0.2};
  std::vector<std::function<StatusOr<CadenceResult>()>> tasks;
  for (double cadence : cadences) {
    tasks.push_back([cadence]() -> StatusOr<CadenceResult> {
      EngineOptions opt = MeasuredOptions(
          Algorithm::kFuzzyCopy, CheckpointMode::kPartial, false);
      opt.log_flush_interval = cadence;
      std::unique_ptr<Env> env = NewMemEnv();
      MMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                            Engine::Open(opt, env.get()));
      WorkloadOptions wopt;
      wopt.duration = 2.0;
      WorkloadDriver driver(engine.get(), wopt);
      MMDB_ASSIGN_OR_RETURN(WorkloadResult result, driver.Run());
      return CadenceResult{result.overhead_per_txn,
                           result.avg_checkpoint_duration,
                           engine->log()->FlushCount()};
    });
  }
  std::vector<StatusOr<CadenceResult>> results =
      RunSweep<CadenceResult>(runner->jobs(), tasks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      runner->NoteFailure(
          ("flush_cadence/" + std::to_string(cadences[i])).c_str(),
          results[i].status(), sidecar);
      std::printf("%-12.2f %14s\n", cadences[i], "ERR");
      continue;
    }
    std::printf("%-12.2f %14.1f %14.3f %12llu\n", cadences[i],
                results[i]->overhead_per_txn,
                results[i]->avg_checkpoint_duration,
                static_cast<unsigned long long>(results[i]->flushes));
  }
}

void CouBufferCap(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 4", "COU snapshot-buffer cap (COUCOPY)");
  std::printf("%-10s %14s %14s\n", "max_bufs", "overhead/txn",
              "cou_copies/ckpt");
  const uint32_t caps[] = {0u, 16u, 2u};
  std::vector<SweepPoint> points;
  for (uint32_t cap : caps) {
    points.push_back(SweepPoint{
        "cou_cap/" + std::to_string(cap), [cap] {
          EngineOptions opt = MeasuredOptions(
              Algorithm::kCouCopy, CheckpointMode::kPartial, false);
          opt.max_snapshot_buffers = cap;
          return MeasureEngine(opt, 2.0);
        }});
  }
  std::vector<StatusOr<MeasuredPoint>> results =
      runner->Run(points, sidecar);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::printf("%-10u %14s\n", caps[i], "ERR");
      continue;
    }
    std::printf("%-10u %14.1f %14.1f\n", caps[i],
                results[i]->workload.overhead_per_txn,
                results[i]->workload.cou_copies_per_ckpt);
  }
  std::printf("(0 = unbounded; recovery correctness under exhaustion is "
              "covered by cou_test)\n");
}

void LogicalVsPhysicalLogging(SweepRunner* runner,
                              MetricsSidecar* sidecar) {
  PrintHeader("Ablation 5",
              "logical (delta) vs physical (after-image) logging, COUCOPY");
  std::printf("%-10s %14s %14s %14s\n", "logging", "log_words/txn",
              "log_read_s", "recovery_s");
  // Measured: identical counter-increment workloads, one encoded as full
  // after-images, one as compact delta records.
  struct LoggingResult {
    double log_words_per_txn;
    double log_read_seconds;
    double recovery_seconds;
  };
  const bool modes[] = {false, true};
  std::vector<std::function<StatusOr<LoggingResult>()>> tasks;
  for (bool logical : modes) {
    tasks.push_back([logical]() -> StatusOr<LoggingResult> {
      EngineOptions opt = MeasuredOptions(
          Algorithm::kCouCopy, CheckpointMode::kPartial, false);
      std::unique_ptr<Env> env = NewMemEnv();
      MMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine_or,
                            Engine::Open(opt, env.get()));
      Engine& engine = *engine_or;
      MMDB_RETURN_IF_ERROR(engine.RunCheckpointToCompletion());
      uint64_t words0 = engine.log()->AppendedWords();
      const uint64_t n = engine.db().num_records();
      const size_t rb = engine.db().record_bytes();
      const int kTxns = 2000;
      for (int i = 0; i < kTxns; ++i) {
        RecordId r = (static_cast<uint64_t>(i) * 2654435761u) % n;
        if (logical) {
          (void)engine.ApplyDelta(r, 0, 1);
        } else {
          (void)engine.Apply({{r, MakeRecordImage(rb, r, i)}});
        }
        (void)engine.AdvanceTime(0.001);
      }
      double log_words =
          static_cast<double>(engine.log()->AppendedWords() - words0) /
          kTxns;
      engine.FlushLog();
      (void)engine.AdvanceTime(1.0);
      MMDB_RETURN_IF_ERROR(engine.Crash());
      MMDB_ASSIGN_OR_RETURN(RecoveryStats stats, engine.Recover());
      return LoggingResult{log_words, stats.log_read_seconds,
                           stats.total_seconds};
    });
  }
  std::vector<StatusOr<LoggingResult>> results =
      RunSweep<LoggingResult>(runner->jobs(), tasks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const char* label = modes[i] ? "logical" : "physical";
    if (!results[i].ok()) {
      runner->NoteFailure((std::string("logical_vs_physical/") + label).c_str(),
                          results[i].status(), sidecar);
      std::printf("%-10s %14s\n", label, "ERR");
      continue;
    }
    std::printf("%-10s %14.1f %14.3f %14.3f\n", label,
                results[i]->log_words_per_txn,
                results[i]->log_read_seconds,
                results[i]->recovery_seconds);
  }
  // Analytic at paper scale: the recovery-time payoff of the smaller log.
  std::printf("\nanalytic, paper scale (COUCOPY, min duration):\n");
  std::printf("%-10s %14s %14s\n", "logging", "log_words/txn",
              "recovery_s");
  for (bool logical : modes) {
    ModelInputs in;
    in.params = SystemParams::PaperDefaults();
    in.algorithm = Algorithm::kCouCopy;
    in.mode = CheckpointMode::kPartial;
    in.logical_logging = logical;
    ModelOutputs out = Evaluate(in);
    std::printf("%-10s %14.1f %14.2f\n", logical ? "logical" : "physical",
                out.log_words_per_txn, out.recovery_seconds);
  }
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

int main(int argc, char** argv) {
  mmdb::bench::BenchWallClock wall;
  std::size_t jobs = mmdb::bench::ParseJobs(argc, argv);
  mmdb::MetricsSidecar sidecar("ablation_checkpoint");
  mmdb::bench::SweepRunner runner(jobs);
  mmdb::bench::PartialVsFull(&runner, &sidecar);
  mmdb::bench::LsnMaintenance(&runner, &sidecar);
  mmdb::bench::FlushCadence(&runner, &sidecar);
  mmdb::bench::CouBufferCap(&runner, &sidecar);
  mmdb::bench::LogicalVsPhysicalLogging(&runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("ablation_checkpoint", jobs, &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

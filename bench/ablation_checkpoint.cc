// Ablation studies for the design choices DESIGN.md calls out, measured on
// the executable engine:
//   1. partial vs full checkpoints (the dirty-bit machinery's payoff),
//   2. LSN maintenance on/off (what the stable log tail actually saves),
//   3. group-commit flush cadence (log-device seeks vs commit latency),
//   4. the COU snapshot-buffer cap (graceful degradation under pressure),
//   5. logical (delta) vs physical (after-image) logging.
//
// Every study runs its points one after another: each point owns a private
// MemEnv + Engine, and a failed point prints ERR and makes the bench exit
// nonzero.

#include <cstdio>

#include "bench/figure_util.h"

namespace mmdb {
namespace bench {
namespace {

void PartialVsFull(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 1", "partial vs full checkpoints (FUZZYCOPY)");
  std::printf("%-8s %14s %14s %14s\n", "mode", "overhead/txn",
              "flushed/ckpt", "ckpt_dur_s");
  for (CheckpointMode mode : {CheckpointMode::kPartial, CheckpointMode::kFull}) {
    const char* mode_name =
        mode == CheckpointMode::kPartial ? "partial" : "full";
    EngineOptions opt = MeasuredOptions(Algorithm::kFuzzyCopy, mode, false);
    // A light load leaves most segments clean, so partial mode has
    // something to skip.
    opt.params.txn.arrival_rate = 200;
    StatusOr<MeasuredPoint> result =
        runner->Add(std::string("partial_vs_full/") + mode_name,
                    MeasureEngine(opt, 3.0), sidecar);
    if (!result.ok()) {
      std::printf("%-8s %14s\n", mode_name, "ERR");
      continue;
    }
    std::printf("%-8s %14.1f %14.1f %14.3f\n", mode_name,
                result->workload.overhead_per_txn,
                result->workload.segments_flushed_per_ckpt,
                result->workload.avg_checkpoint_duration);
  }
}

void LsnMaintenance(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 2",
              "LSN maintenance cost: volatile vs stable log tail");
  std::printf("%-10s %14s %14s\n", "algorithm", "volatile", "stable");
  for (Algorithm a : {Algorithm::kFuzzyCopy, Algorithm::kTwoColorCopy,
                      Algorithm::kCouCopy}) {
    std::printf("%-10s ", std::string(AlgorithmName(a)).c_str());
    for (bool stable : {false, true}) {
      EngineOptions opt = MeasuredOptions(a, CheckpointMode::kPartial, stable);
      StatusOr<MeasuredPoint> result = runner->Add(
          std::string("lsn/") + std::string(AlgorithmName(a)) +
              (stable ? "/stable" : "/volatile"),
          MeasureEngine(opt, 2.0), sidecar);
      if (result.ok()) {
        std::printf("%14.1f ", result->workload.sync_per_txn);
      } else {
        std::printf("%14s ", "ERR");
      }
    }
    std::printf("  (sync instructions/txn)\n");
  }
}

struct CadenceResult {
  double overhead_per_txn;
  double avg_checkpoint_duration;
  uint64_t flushes;
};

StatusOr<CadenceResult> MeasureCadence(double cadence) {
  EngineOptions opt = MeasuredOptions(Algorithm::kFuzzyCopy,
                                      CheckpointMode::kPartial, false);
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
}

void FlushCadence(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 3", "group-commit cadence (FUZZYCOPY)");
  std::printf("%-12s %14s %14s %12s\n", "interval_s", "overhead/txn",
              "ckpt_dur_s", "flushes");
  for (double cadence : {0.01, 0.05, 0.2}) {
    StatusOr<CadenceResult> result = MeasureCadence(cadence);
    if (!result.ok()) {
      runner->NoteFailure(("flush_cadence/" + std::to_string(cadence)).c_str(),
                          result.status(), sidecar);
      std::printf("%-12.2f %14s\n", cadence, "ERR");
      continue;
    }
    std::printf("%-12.2f %14.1f %14.3f %12llu\n", cadence,
                result->overhead_per_txn, result->avg_checkpoint_duration,
                static_cast<unsigned long long>(result->flushes));
  }
}

void CouBufferCap(SweepRunner* runner, MetricsSidecar* sidecar) {
  PrintHeader("Ablation 4", "COU snapshot-buffer cap (COUCOPY)");
  std::printf("%-10s %14s %14s\n", "max_bufs", "overhead/txn",
              "cou_copies/ckpt");
  for (uint32_t cap : {0u, 16u, 2u}) {
    EngineOptions opt = MeasuredOptions(Algorithm::kCouCopy,
                                        CheckpointMode::kPartial, false);
    opt.max_snapshot_buffers = cap;
    StatusOr<MeasuredPoint> result = runner->Add(
        "cou_cap/" + std::to_string(cap), MeasureEngine(opt, 2.0), sidecar);
    if (!result.ok()) {
      std::printf("%-10u %14s\n", cap, "ERR");
      continue;
    }
    std::printf("%-10u %14.1f %14.1f\n", cap,
                result->workload.overhead_per_txn,
                result->workload.cou_copies_per_ckpt);
  }
  std::printf("(0 = unbounded; recovery correctness under exhaustion is "
              "covered by cou_test)\n");
}

struct LoggingResult {
  double log_words_per_txn;
  double log_read_seconds;
  double recovery_seconds;
};

// Identical counter-increment workloads, encoded as full after-images
// (physical) or as compact delta records (logical).
StatusOr<LoggingResult> MeasureLogging(bool logical) {
  EngineOptions opt = MeasuredOptions(Algorithm::kCouCopy,
                                      CheckpointMode::kPartial, false);
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
      static_cast<double>(engine.log()->AppendedWords() - words0) / kTxns;
  engine.FlushLog();
  (void)engine.AdvanceTime(1.0);
  MMDB_RETURN_IF_ERROR(engine.Crash());
  MMDB_ASSIGN_OR_RETURN(RecoveryStats stats, engine.Recover());
  return LoggingResult{log_words, stats.log_read_seconds,
                       stats.total_seconds};
}

void LogicalVsPhysicalLogging(SweepRunner* runner,
                              MetricsSidecar* sidecar) {
  PrintHeader("Ablation 5",
              "logical (delta) vs physical (after-image) logging, COUCOPY");
  std::printf("%-10s %14s %14s %14s\n", "logging", "log_words/txn",
              "log_read_s", "recovery_s");
  const bool modes[] = {false, true};
  for (bool logical : modes) {
    const char* label = logical ? "logical" : "physical";
    StatusOr<LoggingResult> result = MeasureLogging(logical);
    if (!result.ok()) {
      runner->NoteFailure((std::string("logical_vs_physical/") + label).c_str(),
                          result.status(), sidecar);
      std::printf("%-10s %14s\n", label, "ERR");
      continue;
    }
    std::printf("%-10s %14.1f %14.3f %14.3f\n", label,
                result->log_words_per_txn, result->log_read_seconds,
                result->recovery_seconds);
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

int main() {
  mmdb::bench::BenchWallClock wall;
  mmdb::MetricsSidecar sidecar("ablation_checkpoint");
  mmdb::bench::SweepRunner runner;
  mmdb::bench::PartialVsFull(&runner, &sidecar);
  mmdb::bench::LsnMaintenance(&runner, &sidecar);
  mmdb::bench::FlushCadence(&runner, &sidecar);
  mmdb::bench::CouBufferCap(&runner, &sidecar);
  mmdb::bench::LogicalVsPhysicalLogging(&runner, &sidecar);
  runner.ReportValidation(&sidecar);
  wall.Report("ablation_checkpoint", &sidecar);
  if (!sidecar.Write().ok()) return 1;
  return runner.AnyFailed() ? 1 : 0;
}

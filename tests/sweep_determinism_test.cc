// The sweep runner's central promise (DESIGN.md §12): a measured sweep
// produces byte-identical results and sidecar documents no matter how many
// workers execute it, because every point owns a private deterministic
// MemEnv + Engine and the merge happens in declared point order. Only
// "host" members (the sidecar's jobs and wall_seconds, each engine dump's
// host timings) may differ; bench_diff skips them and nothing else.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "backup/backup_store.h"
#include "bench/figure_util.h"
#include "gtest/gtest.h"
#include "obs/bench_diff.h"

namespace mmdb {
namespace bench {
namespace {

// Small, fast engine points: 64 Kword database, 0.3 virtual seconds.
EngineOptions SmallOptions(Algorithm a, uint64_t /*seed*/) {
  EngineOptions opt;
  opt.params.db.db_words = 64 * 1024;
  opt.algorithm = a;
  opt.checkpoint_mode = CheckpointMode::kPartial;
  return opt;
}

std::vector<SweepPoint> TestPoints() {
  std::vector<SweepPoint> points;
  int idx = 0;
  for (Algorithm a : {Algorithm::kFuzzyCopy, Algorithm::kCouCopy,
                      Algorithm::kTwoColorFlush, Algorithm::kZigzag,
                      Algorithm::kHourglass}) {
    for (uint64_t seed : {1u, 2u}) {
      points.push_back(SweepPoint{
          std::string(AlgorithmName(a)) + "/seed=" + std::to_string(seed) +
              "/" + std::to_string(idx++),
          [a, seed] {
            return MeasureEngine(SmallOptions(a, seed), /*seconds=*/0.3,
                                 seed);
          }});
    }
  }
  // An adversarial-workload point with the time-series sampler on: the
  // zipf/churn/read-mix draw streams are deterministic, and so is every
  // sampled value.
  points.push_back(
      SweepPoint{"adversarial/zipf", []() -> StatusOr<MeasuredPoint> {
                   EngineOptions opt =
                       SmallOptions(Algorithm::kTwoColorCopy, 3);
                   opt.timeseries_epoch = 0.05;
                   std::unique_ptr<Env> env = NewMemEnv();
                   MMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                                         Engine::Open(opt, env.get()));
                   WorkloadOptions wopt;
                   wopt.duration = 0.3;
                   wopt.key_dist = WorkloadOptions::KeyDist::kZipf;
                   wopt.zipf_theta = 0.99;
                   wopt.hot_churn_interval = 0.1;
                   wopt.read_fraction = 0.25;
                   WorkloadDriver driver(engine.get(), wopt);
                   MeasuredPoint point;
                   MMDB_ASSIGN_OR_RETURN(point.workload, driver.Run());
                   point.metrics_json = engine->DumpMetricsJson();
                   return point;
                 }});
  // A deterministically failing point: must print/merge identically at any
  // width (skipped by the sidecar, reported via AnyFailed) in both runs.
  points.push_back(SweepPoint{"always_fails", []() -> StatusOr<MeasuredPoint> {
                                return InternalError("deterministic failure");
                              }});
  return points;
}

// Leaves DiffBenchJson compares in the Jobs4SidecarEqualsJobs1 sidecars
// (129,030 when recorded); a floor below that catches a comparison that
// silently skips whole points or engine dumps.
constexpr std::size_t kMinLeavesCompared = 100000;

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Runs the point list at the given width, returns the raw sidecar bytes.
std::string RunAtWidth(std::size_t jobs, const std::string& sidecar_path,
                       std::vector<StatusOr<MeasuredPoint>>* results_out,
                       bool* any_failed_out) {
  EXPECT_EQ(setenv("MMDB_METRICS_SIDECAR", sidecar_path.c_str(), 1), 0);
  MetricsSidecar sidecar("sweep_determinism");
  SweepRunner runner(jobs);
  std::vector<SweepPoint> points = TestPoints();
  *results_out = runner.Run(points, &sidecar);
  *any_failed_out = runner.AnyFailed();
  runner.ReportValidation(&sidecar);
  sidecar.SetHost(jobs, 0.125);  // arbitrary; under "host"
  Status written = sidecar.Write();
  EXPECT_TRUE(written.ok()) << written.ToString();
  return ReadFileOrDie(sidecar_path);
}

TEST(SweepDeterminismTest, Jobs4SidecarEqualsJobs1) {
  std::string dir = ::testing::TempDir();
  std::vector<StatusOr<MeasuredPoint>> serial_results, parallel_results;
  bool serial_failed = false, parallel_failed = false;
  std::string serial = RunAtWidth(1, dir + "/sweep_jobs1.json",
                                  &serial_results, &serial_failed);
  std::string parallel = RunAtWidth(4, dir + "/sweep_jobs4.json",
                                    &parallel_results, &parallel_failed);
  ASSERT_FALSE(serial.empty());
  ASSERT_FALSE(parallel.empty());

  // Same per-point outcomes, in the same order.
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    ASSERT_EQ(serial_results[i].ok(), parallel_results[i].ok()) << i;
    if (serial_results[i].ok()) {
      EXPECT_EQ(serial_results[i]->workload.committed,
                parallel_results[i]->workload.committed)
          << i;
      EXPECT_EQ(serial_results[i]->workload.overhead_per_txn,
                parallel_results[i]->workload.overhead_per_txn)
          << i;
      EXPECT_EQ(serial_results[i]->recovery.total_seconds,
                parallel_results[i]->recovery.total_seconds)
          << i;
    }
  }
  EXPECT_TRUE(serial_failed);  // the always_fails point
  EXPECT_TRUE(parallel_failed);

  // Sidecar documents: equal, exactly, outside the "host" members (jobs,
  // wall_seconds, the engines' host timings — the only sanctioned
  // difference), judged by the same comparator as the bench gate.
  BenchDiffOptions exact;
  exact.rel_tol = 0;
  auto diff = DiffBenchJson(serial, parallel, exact);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(diff->mismatches, 0u)
      << (diff->reports.empty() ? "" : diff->reports.front());
  // And the compared portion is substantial: all six ok points present,
  // each with its model-oracle validation block and provenance audit,
  // plus the figure summary.
  EXPECT_GT(diff->leaves_compared, kMinLeavesCompared);
  EXPECT_NE(serial.find("\"points\""), std::string::npos);
  EXPECT_NE(serial.find("FUZZYCOPY/seed=1"), std::string::npos);
  EXPECT_NE(serial.find("\"validation\""), std::string::npos);
  EXPECT_NE(serial.find("\"validation_summary\""), std::string::npos);
  EXPECT_NE(serial.find("\"residual\""), std::string::npos);
  // The failed point is recorded with its Status message (identically at
  // both widths, since the whole documents already compared equal above).
  EXPECT_NE(serial.find("always_fails"), std::string::npos);
  EXPECT_NE(serial.find("deterministic failure"), std::string::npos);
  // The adversarial point's time series survives, with no host timing.
  EXPECT_NE(serial.find("adversarial/zipf"), std::string::npos);
  EXPECT_NE(serial.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(serial.find("\"samples\""), std::string::npos);
  EXPECT_EQ(serial.find("sample_seconds"), std::string::npos);
}

TEST(SweepDeterminismTest, SidecarWriteFailureIsReported) {
  // A bench exits nonzero on this Status; a sidecar under a missing
  // directory must not pass for written.
  const std::string path = ::testing::TempDir() + "/no_such_dir/x.json";
  ASSERT_EQ(setenv("MMDB_METRICS_SIDECAR", path.c_str(), 1), 0);
  MetricsSidecar sidecar("sweep_determinism");
  sidecar.Add("a", R"({"v":1})");
  EXPECT_FALSE(sidecar.Write().ok());
  // The empty path disables the sidecar: nothing to write, nothing failed.
  ASSERT_EQ(setenv("MMDB_METRICS_SIDECAR", "", 1), 0);
  MetricsSidecar disabled("sweep_determinism");
  EXPECT_TRUE(disabled.Write().ok());
  ASSERT_EQ(unsetenv("MMDB_METRICS_SIDECAR"), 0);
}

// Flips one byte inside segment `s`'s slot of backup copy `copy`, leaving
// the stored CRC stale.
Status RotSegment(Env* env, const Engine& engine, uint32_t copy, SegmentId s) {
  MMDB_ASSIGN_OR_RETURN(
      std::unique_ptr<RandomWriteFile> file,
      env->NewRandomWriteFile(engine.options().dir + "/backup_" +
                              std::to_string(copy) + ".db"));
  const uint64_t off = BackupStore::SlotOffsetFor(engine.params().db, s) + 17;
  std::string byte;
  MMDB_RETURN_IF_ERROR(file->Read(off, 1, &byte));
  byte[0] = static_cast<char>(byte[0] ^ 0x40);
  MMDB_RETURN_IF_ERROR(file->WriteAt(off, byte));
  return file->Close();
}

TEST(SweepDeterminismTest, InstantRecoveryConvergesToBlockingState) {
  // The equivalence contract (DESIGN.md §19): instant recovery is a pure
  // rescheduling of the same restart work, so after the drain the engine
  // must be bit-identical to a blocking restart — every record byte,
  // every modeled RecoveryStats field, every lineage entry — even when
  // transactions were served mid-restart, and even when the newest backup
  // copy is damaged. The post-crash workload is checkpoint-free and
  // uniform, so both engines commit the exact same update history; only
  // WHEN the instant engine's segments came back differs, which is
  // exactly what must not leak into state.
  ASSERT_EQ(unsetenv("MMDB_INSTANT_RECOVERY"), 0);
  enum class Input {
    kClean,
    // Three newest-copy segments CRC-rotted: a full-image retry, found
    // while the instant engine serves the workload.
    kCrcRetry,
    // COUCOPY with DELTA records and one rotted segment: a full reload of
    // the older copy, drained before any post-restart commit.
    kDeltaFullReload,
  };
  struct Outcome {
    RecoveryStats stats;
    std::vector<SegmentLineage> lineage;
    std::vector<std::string> records;
    WorkloadResult post;
  };
  auto run = [](Input input, bool instant) -> StatusOr<Outcome> {
    const bool deltas = input == Input::kDeltaFullReload;
    EngineOptions opt = SmallOptions(
        deltas ? Algorithm::kCouCopy : Algorithm::kFuzzyCopy, 1);
    opt.instant_recovery = instant;
    std::unique_ptr<Env> env = NewMemEnv();
    MMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                          Engine::Open(opt, env.get()));
    MMDB_RETURN_IF_ERROR(engine->RunCheckpointToCompletion());
    WorkloadOptions wopt;
    wopt.duration = 0.2;
    wopt.run_checkpoints = false;
    {
      WorkloadDriver driver(engine.get(), wopt);
      MMDB_RETURN_IF_ERROR(driver.Run().status());
    }
    if (input != Input::kClean) {
      // A second checkpoint (copy 0) gives the fallback an older copy;
      // deltas on both sides of it put DELTA records in both suffixes.
      const uint64_t rps = engine->params().db.records_per_segment();
      for (RecordId r : {RecordId{1}, 3 * rps + 2, 6 * rps + 5}) {
        if (deltas) MMDB_RETURN_IF_ERROR(engine->ApplyDelta(r, 8, 3).status());
      }
      MMDB_RETURN_IF_ERROR(engine->RunCheckpointToCompletion());
      for (RecordId r : {RecordId{2}, 5 * rps + 1}) {
        if (deltas) MMDB_RETURN_IF_ERROR(engine->ApplyDelta(r, 16, 9).status());
      }
      WorkloadOptions more = wopt;
      more.duration = 0.05;
      more.seed = 3;
      WorkloadDriver driver(engine.get(), more);
      MMDB_RETURN_IF_ERROR(driver.Run().status());
    }
    MMDB_RETURN_IF_ERROR(engine->FlushLog());
    MMDB_RETURN_IF_ERROR(engine->AdvanceTime(1.0));
    MMDB_RETURN_IF_ERROR(engine->Crash());
    if (input == Input::kCrcRetry) {
      for (SegmentId s : {0u, 3u, 7u}) {
        MMDB_RETURN_IF_ERROR(RotSegment(env.get(), *engine, 0, s));
      }
    } else if (deltas) {
      MMDB_RETURN_IF_ERROR(RotSegment(env.get(), *engine, 0, 5));
    }
    MMDB_RETURN_IF_ERROR(engine->Recover().status());
    if (deltas) MMDB_RETURN_IF_ERROR(engine->DrainRecovery());
    // Blocking: everything is back before this workload starts. Instant:
    // this exact workload runs against the half-recovered store, stalling
    // on first touches while untouched segments reload in the background.
    Outcome out;
    wopt.seed = 7;
    WorkloadDriver post_driver(engine.get(), wopt);
    MMDB_ASSIGN_OR_RETURN(out.post, post_driver.Run());
    MMDB_RETURN_IF_ERROR(engine->DrainRecovery());
    out.stats = engine->last_recovery();
    out.lineage = engine->last_lineage();
    const uint64_t n = engine->params().db.num_records();
    out.records.reserve(n);
    for (uint64_t r = 0; r < n; ++r) {
      out.records.emplace_back(engine->ReadRecordRaw(r));
    }
    return out;
  };
  for (Input input : {Input::kClean, Input::kCrcRetry,
                      Input::kDeltaFullReload}) {
    SCOPED_TRACE(static_cast<int>(input));
    StatusOr<Outcome> blocking = run(input, false);
    StatusOr<Outcome> on_demand = run(input, true);
    ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
    ASSERT_TRUE(on_demand.ok()) << on_demand.status().ToString();

    // Both lanes committed the same history...
    EXPECT_EQ(blocking->post.committed, on_demand->post.committed);
    EXPECT_EQ(blocking->post.attempts, on_demand->post.attempts);
    // ...but only an instant lane still recovering ever waited on the
    // recovery latch.
    EXPECT_EQ(blocking->post.stall_recovery_wait_seconds, 0.0);
    if (input != Input::kDeltaFullReload) {
      EXPECT_GT(on_demand->post.stall_recovery_wait_seconds, 0.0);
    }

    // Modeled recovery stats: zero tolerance.
    const RecoveryStats& a = blocking->stats;
    const RecoveryStats& b = on_demand->stats;
    EXPECT_EQ(a.fell_back_to_older_copy, input != Input::kClean);
    EXPECT_EQ(a.segments_retried, input == Input::kCrcRetry ? 3u
                                  : input == Input::kDeltaFullReload
                                      ? blocking->lineage.size()
                                      : 0u);
    if (input == Input::kCrcRetry) {
      // The older copy is checkpoint 1's; its three re-reads plus the
      // newest copy's survivors load every segment once.
      EXPECT_EQ(a.checkpoint_id, 1u);
      EXPECT_EQ(a.copy, 1u);
      EXPECT_EQ(a.segments_loaded, blocking->lineage.size());
    }
    EXPECT_EQ(a.checkpoint_id, b.checkpoint_id);
    EXPECT_EQ(a.copy, b.copy);
    EXPECT_EQ(a.backup_read_seconds, b.backup_read_seconds);
    EXPECT_EQ(a.log_read_seconds, b.log_read_seconds);
    EXPECT_EQ(a.replay_cpu_seconds, b.replay_cpu_seconds);
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.segments_loaded, b.segments_loaded);
    EXPECT_EQ(a.segments_retried, b.segments_retried);
    EXPECT_EQ(a.log_bytes_read, b.log_bytes_read);
    EXPECT_EQ(a.records_scanned, b.records_scanned);
    EXPECT_EQ(a.updates_applied, b.updates_applied);
    EXPECT_EQ(a.txns_redone, b.txns_redone);
    EXPECT_EQ(a.fell_back_to_older_copy, b.fell_back_to_older_copy);

    // Lineage: same provenance per segment regardless of load order.
    ASSERT_EQ(blocking->lineage.size(), on_demand->lineage.size());
    for (std::size_t s = 0; s < blocking->lineage.size(); ++s) {
      const SegmentLineage& la = blocking->lineage[s];
      const SegmentLineage& lb = on_demand->lineage[s];
      EXPECT_EQ(la.checkpoint_id, lb.checkpoint_id) << s;
      EXPECT_EQ(la.copy, lb.copy) << s;
      EXPECT_EQ(la.retried, lb.retried) << s;
      EXPECT_EQ(la.frames, lb.frames) << s;
      EXPECT_EQ(la.first_lsn, lb.first_lsn) << s;
      EXPECT_EQ(la.last_lsn, lb.last_lsn) << s;
    }

    // Every record byte.
    ASSERT_EQ(blocking->records.size(), on_demand->records.size());
    std::size_t mismatched = 0;
    for (std::size_t r = 0; r < blocking->records.size(); ++r) {
      if (blocking->records[r] != on_demand->records[r]) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u);
  }
}

TEST(SweepDeterminismTest, ParseJobsPrecedence) {
  // --jobs beats the environment beats the hardware default.
  ASSERT_EQ(setenv("MMDB_BENCH_JOBS", "2", 1), 0);
  char prog[] = "bench";
  char flag[] = "--jobs=3";
  char* argv_flag[] = {prog, flag};
  EXPECT_EQ(ParseJobs(2, argv_flag), 3u);
  char* argv_plain[] = {prog};
  EXPECT_EQ(ParseJobs(1, argv_plain), 2u);
  ASSERT_EQ(unsetenv("MMDB_BENCH_JOBS"), 0);
  EXPECT_GE(ParseJobs(1, argv_plain), 1u);
}

TEST(SweepDeterminismTest, ParseJobsRejectsWhatIsNotAWholeWidth) {
  ASSERT_EQ(unsetenv("MMDB_BENCH_JOBS"), 0);
  char prog[] = "bench";
  for (const char* bad : {"--jobs=banana", "--jobs=2x", "--jobs=0"}) {
    std::string flag = bad;
    char* argv[] = {prog, flag.data()};
    EXPECT_EXIT(ParseJobs(2, argv), testing::ExitedWithCode(2),
                "--jobs=.* is not a whole number")
        << bad;
  }
  char* argv_plain[] = {prog};
  ASSERT_EQ(setenv("MMDB_BENCH_JOBS", "two", 1), 0);
  EXPECT_EXIT(ParseJobs(1, argv_plain), testing::ExitedWithCode(2),
              "MMDB_BENCH_JOBS=two is not a whole number");
  ASSERT_EQ(unsetenv("MMDB_BENCH_JOBS"), 0);
}

}  // namespace
}  // namespace bench
}  // namespace mmdb

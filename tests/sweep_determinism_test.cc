// The sweep runner's promises (DESIGN.md §12): every point owns a private
// deterministic MemEnv + Engine, results merge into the sidecar in
// declared point order, and a failed point is recorded (in the sidecar and
// in the bench's exit status) without stopping the points after it. The
// restart tests below hold instant recovery to the same determinism: its
// drained state equals a blocking restart's bit for bit.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "backup/backup_store.h"
#include "bench/figure_util.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/json.h"

namespace mmdb {
namespace bench {
namespace {

// Small, fast engine points: 64 Kword database, 0.3 virtual seconds.
EngineOptions SmallOptions(Algorithm a) {
  EngineOptions opt;
  opt.params.db.db_words = 64 * 1024;
  opt.algorithm = a;
  opt.checkpoint_mode = CheckpointMode::kPartial;
  return opt;
}

// An adversarial-workload point with the time-series sampler on: the
// zipf/churn/read-mix draw streams are deterministic, and so is every
// sampled value.
StatusOr<MeasuredPoint> MeasureAdversarial() {
  EngineOptions opt = SmallOptions(Algorithm::kTwoColorCopy);
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
}

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

TEST(SweepDeterminismTest, FailedPointIsRecordedAndTheRestMergeInOrder) {
  const std::string path = ::testing::TempDir() + "/sweep.json";
  ASSERT_EQ(setenv("MMDB_METRICS_SIDECAR", path.c_str(), 1), 0);
  MetricsSidecar sidecar("sweep_determinism");
  SweepRunner runner;
  std::vector<std::string> labels;
  auto add = [&](std::string label, StatusOr<MeasuredPoint> result) {
    labels.push_back(label);
    return runner.Add(std::move(label), std::move(result), &sidecar);
  };
  for (Algorithm a : {Algorithm::kFuzzyCopy, Algorithm::kCouCopy,
                      Algorithm::kTwoColorFlush, Algorithm::kZigzag,
                      Algorithm::kHourglass}) {
    for (uint64_t seed : {1u, 2u}) {
      auto point = add(std::string(AlgorithmName(a)) + "/seed=" +
                           std::to_string(seed),
                       MeasureEngine(SmallOptions(a), /*seconds=*/0.3, seed));
      EXPECT_TRUE(point.ok()) << point.status();
    }
  }
  // A point that always fails, with a point that succeeds after it: the
  // bench prints ERR for it and exits nonzero, and the rest still merge.
  EXPECT_FALSE(runner.AnyFailed());
  auto failed = add("always_fails", InternalError("deterministic failure"));
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(runner.AnyFailed());
  auto adversarial = add("adversarial/zipf", MeasureAdversarial());
  EXPECT_TRUE(adversarial.ok()) << adversarial.status();
  runner.ReportValidation(&sidecar);
  sidecar.SetHost(0.125);  // arbitrary; under "host"
  MMDB_ASSERT_OK(sidecar.Write());
  ASSERT_EQ(unsetenv("MMDB_METRICS_SIDECAR"), 0);

  const std::string text = ReadFileOrDie(path);
  auto doc = JsonValue::Parse(text);
  MMDB_ASSERT_OK(doc);
  // Every point, once, in declared order; the failure with its Status
  // message, every other point with its engine dump.
  const JsonValue* points = doc->Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array_items().size(), labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    const JsonValue& p = points->array_items()[i];
    EXPECT_EQ(p.Find("label")->string_value(), labels[i]);
    const JsonValue* error = p.Find("error");
    EXPECT_EQ(error != nullptr, labels[i] == "always_fails") << labels[i];
    EXPECT_EQ(p.Find("engine") == nullptr, labels[i] == "always_fails")
        << labels[i];
  }
  EXPECT_NE(text.find("deterministic failure"), std::string::npos);
  // The model-oracle blocks and the figure summary.
  EXPECT_NE(text.find("\"validation\""), std::string::npos);
  EXPECT_NE(text.find("\"validation_summary\""), std::string::npos);
  EXPECT_NE(text.find("\"residual\""), std::string::npos);
  // The adversarial point's time series survives, with no host timing.
  EXPECT_NE(text.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(text.find("\"samples\""), std::string::npos);
  EXPECT_EQ(text.find("sample_seconds"), std::string::npos);
  EXPECT_EQ(doc->FindPath({"host", "wall_seconds"})->number_value(), 0.125);
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
    EngineOptions opt =
        SmallOptions(deltas ? Algorithm::kCouCopy : Algorithm::kFuzzyCopy);
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

}  // namespace
}  // namespace bench
}  // namespace mmdb

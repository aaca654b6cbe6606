// End-to-end durability property suite (DESIGN.md section 7, properties 1
// and 4): for every checkpoint algorithm x {full, partial} x {volatile,
// stable} log tail, across crash points including mid-checkpoint and
// repeated crash/recover cycles, the recovered database must equal exactly
// the durably-committed state.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace mmdb {
namespace {

struct ConsistencyCase {
  Algorithm algorithm;
  CheckpointMode mode;
  bool stable_tail;
};

std::string CaseName(const testing::TestParamInfo<ConsistencyCase>& info) {
  std::string name(AlgorithmName(info.param.algorithm));
  for (char& ch : name) {
    if (ch == '-' || ch == ' ') ch = '_';
  }
  name += info.param.mode == CheckpointMode::kFull ? "_full" : "_partial";
  name += info.param.stable_tail ? "_stable" : "_volatile";
  return name;
}

class ConsistencyTest : public testing::TestWithParam<ConsistencyCase> {
 protected:
  EngineOptions MakeOptions() const {
    EngineOptions opt = TinyOptions();
    opt.algorithm = GetParam().algorithm;
    opt.checkpoint_mode = GetParam().mode;
    opt.stable_log_tail = GetParam().stable_tail;
    return opt;
  }
};

// Workload, checkpoints, crash between checkpoints, recover, verify.
TEST_P(ConsistencyTest, CrashAfterWorkloadRecoversDurableState) {
  std::unique_ptr<Env> env = NewMemEnv();
  auto engine_or = Engine::Open(MakeOptions(), env.get());
  MMDB_ASSERT_OK(engine_or);
  Engine& engine = **engine_or;

  WorkloadOptions wopt;
  wopt.duration = 2.0;  // several checkpoints at tiny scale
  wopt.seed = 7;
  WorkloadDriver driver(&engine, wopt);
  auto result = driver.Run();
  MMDB_ASSERT_OK(result);
  ASSERT_GT(result->committed, 100u);
  ASSERT_GE(result->checkpoints_completed, 2u);

  Lsn durable = engine.DurableLsn();
  MMDB_ASSERT_OK(engine.Crash());
  auto stats = engine.Recover();
  MMDB_ASSERT_OK(stats);
  EXPECT_GT(stats->segments_loaded, 0u);
  VerifyRecovered(engine, driver, durable);
}

// Crash in the middle of a checkpoint: the previous complete checkpoint
// must carry recovery (the ping-pong guarantee), in-flight backup writes
// tear harmlessly.
TEST_P(ConsistencyTest, CrashMidCheckpointUsesPreviousCheckpoint) {
  std::unique_ptr<Env> env = NewMemEnv();
  auto engine_or = Engine::Open(MakeOptions(), env.get());
  MMDB_ASSERT_OK(engine_or);
  Engine& engine = **engine_or;

  WorkloadOptions wopt;
  wopt.duration = 0.6;
  wopt.seed = 11;
  WorkloadDriver driver(&engine, wopt);
  auto result = driver.Run();
  MMDB_ASSERT_OK(result);
  ASSERT_GE(result->checkpoints_completed, 1u);

  // Start a FRESH checkpoint (finishing any in-flight one) and crash
  // partway through its sweep.
  if (engine.CheckpointInProgress()) {
    MMDB_ASSERT_OK(engine.RunCheckpointToCompletion());
  }
  // Dirty a few segments so even partial mode has a sweep to interrupt;
  // track the extra updates so verification knows about them.
  std::map<RecordId, std::pair<Lsn, std::string>> extra;
  const uint32_t rps = engine.params().db.records_per_segment();
  for (SegmentId s = 0; s < engine.db().num_segments(); s += 2) {
    RecordId rec = s * rps;
    std::string image =
        MakeRecordImage(engine.db().record_bytes(), rec, 777 + s);
    auto lsn = engine.Apply({{rec, image}});
    MMDB_ASSERT_OK(lsn);
    extra[rec] = {*lsn, std::move(image)};
  }
  MMDB_ASSERT_OK(engine.StartCheckpoint());
  for (int i = 0; i < 5 && engine.CheckpointInProgress(); ++i) {
    MMDB_ASSERT_OK(engine.StepCheckpoint());
  }
  ASSERT_TRUE(engine.CheckpointInProgress())
      << "sweep finished too quickly to test a mid-checkpoint crash";

  Lsn durable = engine.DurableLsn();
  MMDB_ASSERT_OK(engine.Crash());
  auto stats = engine.Recover();
  MMDB_ASSERT_OK(stats);
  VerifyRecovered(engine, driver, durable, extra);
}

// Two full crash/recover cycles with new work in between: exercises log
// reopening (OpenExisting), LSN continuity and re-checkpointing after
// recovery.
TEST_P(ConsistencyTest, RepeatedCrashRecoverCycles) {
  std::unique_ptr<Env> env = NewMemEnv();
  auto engine_or = Engine::Open(MakeOptions(), env.get());
  MMDB_ASSERT_OK(engine_or);
  Engine& engine = **engine_or;

  WorkloadOptions wopt;
  wopt.duration = 0.5;
  wopt.seed = 13;
  WorkloadDriver driver1(&engine, wopt);
  MMDB_ASSERT_OK(driver1.Run());

  Lsn durable1 = engine.DurableLsn();
  MMDB_ASSERT_OK(engine.Crash());
  MMDB_ASSERT_OK(engine.Recover());
  VerifyRecovered(engine, driver1, durable1);

  // More work after recovery, then crash again. The second driver's
  // oracle only covers its own writes; verify those plus survivors.
  wopt.seed = 17;
  WorkloadDriver driver2(&engine, wopt);
  auto r2 = driver2.Run();
  MMDB_ASSERT_OK(r2);
  ASSERT_GT(r2->committed, 50u);

  Lsn durable2 = engine.DurableLsn();
  MMDB_ASSERT_OK(engine.Crash());
  MMDB_ASSERT_OK(engine.Recover());

  const auto& h2 = driver2.history();
  for (const auto& [record, commits] : h2) {
    std::string expected;
    for (const auto& c : commits) {
      if (c.lsn <= durable2) expected = c.image;
    }
    if (!expected.empty()) {
      EXPECT_EQ(engine.ReadRecordRaw(record), std::string_view(expected))
          << "record " << record << " after second recovery";
    }
  }
}

// Crash before any checkpoint completed: cold-start recovery replays the
// whole log against an empty image.
TEST_P(ConsistencyTest, ColdStartRecoveryFromLogOnly) {
  std::unique_ptr<Env> env = NewMemEnv();
  auto engine_or = Engine::Open(MakeOptions(), env.get());
  MMDB_ASSERT_OK(engine_or);
  Engine& engine = **engine_or;

  WorkloadOptions wopt;
  wopt.duration = 0.05;
  wopt.run_checkpoints = false;
  wopt.seed = 19;
  WorkloadDriver driver(&engine, wopt);
  MMDB_ASSERT_OK(driver.Run());
  engine.FlushLog();
  MMDB_ASSERT_OK(engine.AdvanceTime(1.0));  // let the flush land

  Lsn durable = engine.DurableLsn();
  ASSERT_GT(durable, 0u);
  MMDB_ASSERT_OK(engine.Crash());
  auto stats = engine.Recover();
  MMDB_ASSERT_OK(stats);
  EXPECT_EQ(stats->checkpoint_id, 0u);
  EXPECT_EQ(stats->segments_loaded, 0u);
  VerifyRecovered(engine, driver, durable);
}

// A commit whose log flush had no time to land must NOT survive a crash —
// unless the tail is stable, in which case it must.
TEST_P(ConsistencyTest, VolatileCommitsAreLostStableCommitsSurvive) {
  std::unique_ptr<Env> env = NewMemEnv();
  auto engine_or = Engine::Open(MakeOptions(), env.get());
  MMDB_ASSERT_OK(engine_or);
  Engine& engine = **engine_or;

  // One checkpoint so recovery has a base image.
  MMDB_ASSERT_OK(engine.RunCheckpointToCompletion());

  const size_t rec_bytes = engine.db().record_bytes();
  std::string image = MakeRecordImage(rec_bytes, 3, 999);
  auto lsn = engine.Apply({{3, image}});
  MMDB_ASSERT_OK(lsn);
  // Crash immediately: the group flush (if any) cannot have completed.
  Lsn durable = engine.DurableLsn();
  MMDB_ASSERT_OK(engine.Crash());
  MMDB_ASSERT_OK(engine.Recover());
  if (GetParam().stable_tail) {
    EXPECT_EQ(engine.ReadRecordRaw(3), std::string_view(image));
  } else {
    EXPECT_LT(durable, *lsn);
    EXPECT_NE(engine.ReadRecordRaw(3), std::string_view(image));
  }
}

// Every algorithm in {partial, full} with a volatile log tail (stable for
// FASTFUZZY, which requires it), plus a stable-tail partial spot-check per
// algorithm so the LSN-cost-free path stays covered. Generated from
// kAllAlgorithms so a new enum value is exercised here automatically.
std::vector<ConsistencyCase> AllConsistencyCases() {
  std::vector<ConsistencyCase> cases;
  for (Algorithm a : kAllAlgorithms) {
    const bool needs_stable = a == Algorithm::kFastFuzzy;
    cases.push_back({a, CheckpointMode::kPartial, needs_stable});
    cases.push_back({a, CheckpointMode::kFull, needs_stable});
    if (!needs_stable) {
      cases.push_back({a, CheckpointMode::kPartial, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ConsistencyTest,
                         testing::ValuesIn(AllConsistencyCases()), CaseName);

}  // namespace
}  // namespace mmdb

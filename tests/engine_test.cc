// Engine facade behaviour: transactions, durability timing, checkpoint
// driving, and option validation.

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace mmdb {
namespace {

class EngineTest : public testing::Test {
 protected:
  void Open(EngineOptions opt) {
    env_ = NewMemEnv();
    auto engine = Engine::Open(opt, env_.get());
    MMDB_ASSERT_OK(engine);
    engine_ = std::move(*engine);
  }

  std::string Image(RecordId r, uint64_t marker) {
    return MakeRecordImage(engine_->db().record_bytes(), r, marker);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineTest, OpenValidatesOptions) {
  EngineOptions opt = TinyOptions();
  opt.params.db.segment_words = 100;  // not a multiple of record size
  auto env = NewMemEnv();
  auto engine = Engine::Open(opt, env.get());
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
}

TEST_F(EngineTest, FastFuzzyRequiresStableTail) {
  EngineOptions opt = TinyOptions();
  opt.algorithm = Algorithm::kFastFuzzy;
  opt.stable_log_tail = false;
  auto env = NewMemEnv();
  auto engine = Engine::Open(opt, env.get());
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsFailedPrecondition());
}

TEST_F(EngineTest, CommitInstallsAndReadsBack) {
  Open(TinyOptions());
  Transaction* t = engine_->Begin();
  std::string image = Image(5, 1);
  MMDB_ASSERT_OK(engine_->Write(t, 5, image));
  // Read-your-writes before commit.
  std::string value;
  MMDB_ASSERT_OK(engine_->Read(t, 5, &value));
  EXPECT_EQ(value, image);
  auto lsn = engine_->Commit(t);
  MMDB_ASSERT_OK(lsn);
  EXPECT_GT(*lsn, 0u);
  EXPECT_EQ(engine_->ReadRecordRaw(5), std::string_view(image));
}

TEST_F(EngineTest, AbortDiscardsShadowUpdates) {
  Open(TinyOptions());
  Transaction* t = engine_->Begin();
  MMDB_ASSERT_OK(engine_->Write(t, 5, Image(5, 1)));
  engine_->Abort(t);
  const std::string zeros(engine_->db().record_bytes(), '\0');
  EXPECT_EQ(engine_->ReadRecordRaw(5), std::string_view(zeros));
}

TEST_F(EngineTest, UncommittedDataNeverVisibleToOthers) {
  Open(TinyOptions());
  Transaction* t1 = engine_->Begin();
  MMDB_ASSERT_OK(engine_->Write(t1, 7, Image(7, 1)));
  // A concurrent reader conflicts on the no-wait lock (serializability).
  Transaction* t2 = engine_->Begin();
  std::string value;
  Status st = engine_->Read(t2, 7, &value);
  EXPECT_TRUE(st.IsAborted());
  engine_->Abort(t2);
  MMDB_ASSERT_OK(engine_->Commit(t1).status());
}

TEST_F(EngineTest, DurabilityFollowsLogFlushCompletion) {
  Open(TinyOptions());
  auto lsn = engine_->Apply({{0, Image(0, 1)}});
  MMDB_ASSERT_OK(lsn);
  // Not yet flushed: nothing durable.
  EXPECT_LT(engine_->DurableLsn(), *lsn);
  engine_->FlushLog();
  // Flush issued but the I/O has not completed on the virtual timeline.
  EXPECT_LT(engine_->DurableLsn(), *lsn);
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  EXPECT_GE(engine_->DurableLsn(), *lsn);
}

TEST_F(EngineTest, StableTailIsDurableImmediately) {
  EngineOptions opt = TinyOptions();
  opt.stable_log_tail = true;
  Open(opt);
  auto lsn = engine_->Apply({{0, Image(0, 1)}});
  MMDB_ASSERT_OK(lsn);
  EXPECT_GE(engine_->DurableLsn(), *lsn);
}

TEST_F(EngineTest, CheckpointAlternatesPingPongCopies) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  auto meta1 = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta1);
  EXPECT_EQ(meta1->checkpoint_id, 1u);
  EXPECT_EQ(meta1->copy, 1u);  // id 1 -> copy 1

  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  auto meta2 = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta2);
  EXPECT_EQ(meta2->checkpoint_id, 2u);
  EXPECT_EQ(meta2->copy, 0u);
}

TEST_F(EngineTest, PartialCheckpointFlushesOnlyDirtySegments) {
  Open(TinyOptions());
  // First two checkpoints write everything (all segments start dirty from
  // nothing? they start clean; a fresh engine has no updates, so a partial
  // checkpoint flushes nothing).
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->checkpointer().last_stats().segments_flushed, 0u);

  // Touch exactly one segment.
  MMDB_ASSERT_OK(engine_->Apply({{0, Image(0, 2)}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->checkpointer().last_stats().segments_flushed, 1u);
  // The update dirtied both copies: the next checkpoint (other copy)
  // flushes it again, after which both copies are clean.
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->checkpointer().last_stats().segments_flushed, 1u);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->checkpointer().last_stats().segments_flushed, 0u);
}

TEST_F(EngineTest, FullCheckpointFlushesEverySegment) {
  EngineOptions opt = TinyOptions();
  opt.checkpoint_mode = CheckpointMode::kFull;
  Open(opt);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->checkpointer().last_stats().segments_flushed,
            engine_->db().num_segments());
}

TEST_F(EngineTest, CheckpointDurationMatchesDiskModel) {
  EngineOptions opt = TinyOptions();
  opt.checkpoint_mode = CheckpointMode::kFull;
  Open(opt);
  double t0 = engine_->now();
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  double dur = engine_->now() - t0;
  // 16 segments of 4096 words over 20 disks: N * (T_seek + T_trans*S) / 20,
  // plus log-flush latency at begin/end.
  const SystemParams& p = engine_->params();
  double expect =
      p.disk.ArraySeconds(p.db.num_segments(), p.db.segment_words);
  EXPECT_GT(dur, expect * 0.9);
  EXPECT_LT(dur, expect + 0.2);
}

TEST_F(EngineTest, ScheduterSpacesCheckpointsByInterval) {
  EngineOptions opt = TinyOptions();
  opt.checkpoint_interval = 0.5;
  Open(opt);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_GE(engine_->scheduler().NextBeginTime(), 0.5);
}

TEST_F(EngineTest, CrashThenOperationsFail) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->Crash());
  Transaction* t = nullptr;
  (void)t;
  std::string value;
  EXPECT_TRUE(engine_->StartCheckpoint().IsFailedPrecondition());
  EXPECT_TRUE(engine_->Crash().IsFailedPrecondition());
}

TEST_F(EngineTest, RecoverWithoutCrashFails) {
  Open(TinyOptions());
  EXPECT_TRUE(engine_->Recover().status().IsFailedPrecondition());
}

TEST_F(EngineTest, CouRefusesCheckpointWithOpenTransactions) {
  EngineOptions opt = TinyOptions();
  opt.algorithm = Algorithm::kCouCopy;
  Open(opt);
  Transaction* t = engine_->Begin();
  MMDB_ASSERT_OK(engine_->Write(t, 1, Image(1, 1)));
  Status st = engine_->StartCheckpoint();
  EXPECT_TRUE(st.IsFailedPrecondition());
  MMDB_ASSERT_OK(engine_->Commit(t).status());
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
}

// Regression: Engine::Commit deduplicates the touched-segment list before
// waiting on checkpoint admission. A transaction writing several records of
// ONE segment must wait on (and be accounted against) that segment's
// checkpoint lock once, not once per record — so it commits at exactly the
// same virtual time as a single-record transaction, and the checkpointer's
// lock accounting is identical in both runs.
TEST_F(EngineTest, CommitWaitsOncePerSegmentNotOncePerRecord) {
  struct RunResult {
    double end_time = -1;
    double ckpt_lock = -1;
    bool ok = false;
  };
  // Writes `nrecords` records of segment 0 in one transaction, commits it
  // while segment 0 is checkpoint-locked through its backup I/O (2CFLUSH
  // holds the lock until the write completes), and reports when the commit
  // finished plus the checkpointer's lock charges up to that point.
  auto run = [](int nrecords) {
    RunResult out;
    auto env = NewMemEnv();
    EngineOptions opt = TinyOptions();
    opt.algorithm = Algorithm::kTwoColorFlush;
    opt.checkpoint_mode = CheckpointMode::kFull;
    auto engine = Engine::Open(opt, env.get());
    if (!engine.ok()) return out;
    Engine& e = **engine;
    Transaction* t = e.Begin();
    for (RecordId r = 0; r < static_cast<RecordId>(nrecords); ++r) {
      if (!e.Write(t, r, MakeRecordImage(e.db().record_bytes(), r, 7)).ok()) {
        return out;
      }
    }
    // Begin the sweep and issue segment 0's backup write; the segment is
    // now locked until that I/O completes.
    if (!e.StartCheckpoint().ok()) return out;
    if (!e.StepCheckpoint().ok()) return out;  // reach sweep_start_
    if (!e.StepCheckpoint().ok()) return out;  // issue segment 0's write
    if (!e.Commit(t).ok()) return out;
    out.end_time = e.now();
    out.ckpt_lock = e.meter().Count(CpuCategory::kCkptLock);
    out.ok = true;
    return out;
  };

  RunResult one = run(1);
  RunResult three = run(3);
  ASSERT_TRUE(one.ok);
  ASSERT_TRUE(three.ok);
  // The admission wait is per segment: more records in the same segment
  // must not change when the commit completes...
  EXPECT_DOUBLE_EQ(one.end_time, three.end_time);
  // ...nor how much checkpointer lock work had run by then (a duplicated
  // wait would service extra checkpoint events before committing).
  EXPECT_DOUBLE_EQ(one.ckpt_lock, three.ckpt_lock);
}

TEST_F(EngineTest, ApplyRetriesTwoColorAborts) {
  EngineOptions opt = TinyOptions();
  opt.algorithm = Algorithm::kTwoColorCopy;
  opt.checkpoint_mode = CheckpointMode::kFull;
  Open(opt);
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  // Step partway so the database is split white/black.
  for (int i = 0; i < 6; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
  // Records in first and last segment: spans the boundary; Apply must
  // retry (advancing time) until the sweep finishes.
  RecordId low = 0;
  RecordId high = engine_->db().num_records() - 1;
  // The fixed record set conflicts until the sweep finishes (~0.3s of
  // virtual time) while each retry backs off ~1ms; allow enough attempts.
  auto lsn = engine_->Apply({{low, Image(low, 9)}, {high, Image(high, 9)}},
                            /*max_attempts=*/2000);
  MMDB_ASSERT_OK(lsn);
  EXPECT_GT(engine_->txns().color_aborts(), 0u);
}

// A retry budget below one runs no attempt: Apply and ApplyDelta refuse it
// before any transaction begins, instead of returning a StatusOr that holds
// neither a value nor an error.
TEST_F(EngineTest, ApplyRejectsAnAttemptBudgetBelowOne) {
  EngineOptions opt = TinyOptions();
  opt.algorithm = Algorithm::kCouCopy;  // accepts deltas
  Open(opt);
  const Lsn next = engine_->log()->NextLsn();
  for (int attempts : {0, -1}) {
    SCOPED_TRACE(attempts);
    auto applied = engine_->Apply({{3, Image(3, 1)}}, attempts);
    EXPECT_TRUE(applied.status().IsInvalidArgument()) << applied.status();
    auto delta = engine_->ApplyDelta(3, 0, 1, attempts);
    EXPECT_TRUE(delta.status().IsInvalidArgument()) << delta.status();
    EXPECT_EQ(engine_->txns().num_active(), 0u);
    EXPECT_EQ(engine_->log()->NextLsn(), next);
  }
}

// ReadRecordRaw bounds-checks its id in every build (the primary's own
// assert compiles out under NDEBUG): past the last record it returns an
// empty view, and mid-drain it materializes nothing.
TEST_F(EngineTest, ReadRecordRawRejectsOutOfRangeId) {
  EngineOptions opt = TinyOptions();
  opt.instant_recovery = false;
  Open(opt);
  const RecordId n = engine_->db().num_records();
  EXPECT_TRUE(engine_->ReadRecordRaw(n).empty());
  EXPECT_TRUE(engine_->ReadRecordRaw(n + 12345).empty());
  EXPECT_EQ(engine_->ReadRecordRaw(n - 1).size(),
            engine_->db().record_bytes());

  opt.instant_recovery = true;
  Open(opt);
  if (!engine_->instant_recovery_enabled()) {
    GTEST_SKIP() << "MMDB_INSTANT_RECOVERY=0 overrides the option";
  }
  MMDB_ASSERT_OK(engine_->Apply({{3, Image(3, 1)}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->FlushLog());
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  ASSERT_TRUE(engine_->recovery_pending());
  const uint64_t pending = engine_->pending_recovery_segments();
  EXPECT_TRUE(engine_->ReadRecordRaw(n).empty());
  EXPECT_TRUE(engine_->ReadRecordRaw(n + 12345).empty());
  EXPECT_EQ(engine_->pending_recovery_segments(), pending);
  // An in-range raw read still force-loads its segment.
  EXPECT_EQ(engine_->ReadRecordRaw(3), Image(3, 1));
  EXPECT_EQ(engine_->pending_recovery_segments(), pending - 1);
  MMDB_ASSERT_OK(engine_->DrainRecovery());
}

// Threads of this process, or -1 when /proc/self/task cannot be listed.
int CountThreads() {
  std::error_code ec;
  int n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

// The engine is single-threaded, restarts included: a blocking restart and
// an instant one drained to the end both run on the calling thread.
TEST_F(EngineTest, RecoverStartsNoThread) {
  const int before = CountThreads();
  if (before < 1) GTEST_SKIP() << "/proc/self/task is unreadable";
  for (bool instant : {false, true}) {
    SCOPED_TRACE(instant ? "instant" : "blocking");
    EngineOptions opt;
    opt.instant_recovery = instant;
    Open(opt);
    MMDB_ASSERT_OK(engine_->Apply({{3, Image(3, 1)}}).status());
    MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
    MMDB_ASSERT_OK(engine_->FlushLog());
    MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
    MMDB_ASSERT_OK(engine_->Crash());
    MMDB_ASSERT_OK(engine_->Recover());
    if (instant) MMDB_ASSERT_OK(engine_->DrainRecovery());
    EXPECT_EQ(engine_->ReadRecordRaw(3), Image(3, 1));
    EXPECT_EQ(CountThreads(), before);
  }
}

}  // namespace
}  // namespace mmdb

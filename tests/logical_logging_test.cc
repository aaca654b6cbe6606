// Logical (operation) logging: compact delta REDO records and their safety
// constraint (copy-on-update checkpoints only — the backup must be an
// exact snapshot at the replay start point; replaying non-idempotent
// records against a fuzzy or boundary-consistent backup would apply some
// of them twice, so every other algorithm refuses deltas). This is the
// paper's Section 3.2 remark — "consistent backups permit the use of
// logical logging" — made executable, with the sharper observation that
// among the paper's TC algorithms only COU's consistency point lines up
// with the log marker.

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "wal/log_record.h"

namespace mmdb {
namespace {

int64_t FieldAt(std::string_view image, uint32_t offset) {
  return static_cast<int64_t>(DecodeFixed64(image.data() + offset));
}

class LogicalLoggingTest : public testing::Test {
 protected:
  void Open(Algorithm a) {
    EngineOptions opt = TinyOptions();
    opt.algorithm = a;
    env_ = NewMemEnv();
    auto engine = Engine::Open(opt, env_.get());
    MMDB_ASSERT_OK(engine);
    engine_ = std::move(*engine);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
};

TEST(DeltaRecordTest, RoundTrip) {
  LogRecord r = LogRecord::Delta(7, 123, 16, -5000);
  r.lsn = 42;
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodeFrom(payload, &out).ok());
  EXPECT_EQ(out, r);
  // A delta record is an order of magnitude smaller than an after-image.
  LogRecord update = LogRecord::Update(7, 123, std::string(128, 'x'));
  update.lsn = 42;
  EXPECT_LT(r.EncodedSize() * 5, update.EncodedSize());
}

TEST_F(LogicalLoggingTest, DeltaCommitAndReadYourDeltas) {
  Open(Algorithm::kCouCopy);
  Transaction* t = engine_->Begin();
  MMDB_ASSERT_OK(engine_->WriteDelta(t, 5, 0, 100));
  MMDB_ASSERT_OK(engine_->WriteDelta(t, 5, 0, 20));   // accumulates
  MMDB_ASSERT_OK(engine_->WriteDelta(t, 5, 8, -7));   // second field
  std::string value;
  MMDB_ASSERT_OK(engine_->Read(t, 5, &value));
  EXPECT_EQ(FieldAt(value, 0), 120);
  EXPECT_EQ(FieldAt(value, 8), -7);
  MMDB_ASSERT_OK(engine_->Commit(t).status());
  EXPECT_EQ(FieldAt(engine_->ReadRecordRaw(5), 0), 120);
  EXPECT_EQ(FieldAt(engine_->ReadRecordRaw(5), 8), -7);
}

TEST_F(LogicalLoggingTest, MixingImageAndDeltaOnOneRecordRejected) {
  Open(Algorithm::kCouCopy);
  const std::string image(engine_->db().record_bytes(), 'x');
  Transaction* t = engine_->Begin();
  MMDB_ASSERT_OK(engine_->Write(t, 5, image));
  EXPECT_TRUE(engine_->WriteDelta(t, 5, 0, 1).IsFailedPrecondition());
  engine_->Abort(t);

  Transaction* u = engine_->Begin();
  MMDB_ASSERT_OK(engine_->WriteDelta(u, 6, 0, 1));
  EXPECT_TRUE(engine_->Write(u, 6, image).IsFailedPrecondition());
  engine_->Abort(u);
}

TEST_F(LogicalLoggingTest, AcceptedIffAlgorithmSupportsLogicalLogging) {
  // Derived from the canonical predicate rather than a hand-kept list: a
  // new algorithm is covered on both sides of the rule automatically.
  for (Algorithm a : kAllAlgorithms) {
    if (a == Algorithm::kFastFuzzy) continue;  // needs a stable tail; fuzzy
    Open(a);
    Transaction* t = engine_->Begin();
    Status st = engine_->WriteDelta(t, 5, 0, 1);
    if (SupportsLogicalLogging(a)) {
      MMDB_EXPECT_OK(st);
    } else {
      EXPECT_TRUE(st.IsFailedPrecondition()) << AlgorithmName(a) << ": " << st;
    }
    engine_->Abort(t);
  }
}

TEST_F(LogicalLoggingTest, ModernRecoveryReplaysDeltasExactlyOnce) {
  // The same once-and-only-once exercise as the COU variant below, under
  // each modern snapshot algorithm: deltas racing a sweep must replay
  // exactly once because the backup is exact at the begin marker.
  for (Algorithm a : {Algorithm::kZigzag, Algorithm::kPingPong,
                      Algorithm::kHourglass}) {
    SCOPED_TRACE(AlgorithmName(a));
    Open(a);
    MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 1000).status());
    MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

    MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 50).status());
    MMDB_ASSERT_OK(engine_->StartCheckpoint());
    for (int i = 0; i < 3; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
    MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 3).status());  // mid-sweep
    MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
    MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 200).status());

    engine_->FlushLog();
    MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
    MMDB_ASSERT_OK(engine_->Crash());
    MMDB_ASSERT_OK(engine_->Recover());
    EXPECT_EQ(FieldAt(engine_->ReadRecordRaw(7), 0), 1253)
        << "a delta was replayed zero or multiple times";
  }
}

TEST_F(LogicalLoggingTest, DeltaValidation) {
  Open(Algorithm::kCouFlush);
  Transaction* t = engine_->Begin();
  EXPECT_EQ(engine_->WriteDelta(t, 1u << 30, 0, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(engine_
                  ->WriteDelta(t, 5, engine_->db().record_bytes() - 4, 1)
                  .IsInvalidArgument());
  engine_->Abort(t);
}

TEST_F(LogicalLoggingTest, CouRecoveryReplaysDeltasExactlyOnce) {
  Open(Algorithm::kCouCopy);
  // Base value via physical write, checkpoint, then deltas racing a
  // second checkpoint: updates land both before and during the sweep.
  MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 1000).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 50).status());  // pre-checkpoint
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  for (int i = 0; i < 3; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
  MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 3).status());   // mid-sweep
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->ApplyDelta(7, 0, 200).status()); // post-checkpoint

  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  EXPECT_EQ(FieldAt(engine_->ReadRecordRaw(7), 0), 1253)
      << "a delta was replayed zero or multiple times";
}

TEST_F(LogicalLoggingTest, RepeatedCrashesNeverDoubleApply) {
  Open(Algorithm::kCouFlush);
  int64_t expected = 0;
  for (int round = 0; round < 5; ++round) {
    MMDB_ASSERT_OK(engine_->ApplyDelta(3, 0, 7).status());
    expected += 7;
    if (round % 2 == 0) {
      MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
    }
    engine_->FlushLog();
    MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
    MMDB_ASSERT_OK(engine_->Crash());
    MMDB_ASSERT_OK(engine_->Recover());
    ASSERT_EQ(FieldAt(engine_->ReadRecordRaw(3), 0), expected)
        << "round " << round;
  }
}

}  // namespace
}  // namespace mmdb

// Algorithm-independent checkpointer behaviour: sweep lifecycle, markers,
// metadata publication, WAL gating, cost accounting, and the scheduler.

#include <cctype>
#include <cmath>
#include <memory>
#include <string>

#include "checkpoint/scheduler.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "wal/log_reader.h"

namespace mmdb {
namespace {

class CheckpointTest : public testing::TestWithParam<Algorithm> {
 protected:
  void Open(CheckpointMode mode = CheckpointMode::kPartial) {
    EngineOptions opt = TinyOptions();
    opt.algorithm = GetParam();
    opt.checkpoint_mode = mode;
    opt.stable_log_tail = GetParam() == Algorithm::kFastFuzzy;
    env_ = NewMemEnv();
    auto engine = Engine::Open(opt, env_.get());
    MMDB_ASSERT_OK(engine);
    engine_ = std::move(*engine);
  }

  std::string Image(RecordId r, uint64_t m) {
    return MakeRecordImage(engine_->db().record_bytes(), r, m);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(CheckpointTest, WritesMarkersAndMetadata) {
  Open();
  MMDB_ASSERT_OK(engine_->Apply({{0, Image(0, 1)}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  auto meta = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta);
  EXPECT_EQ(meta->checkpoint_id, 1u);

  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  auto reader = LogReader::Open(env_.get(), engine_->LogPath());
  MMDB_ASSERT_OK(reader);
  auto marker = reader->FindCheckpointBegin();
  MMDB_ASSERT_OK(marker);
  EXPECT_EQ(marker->checkpoint_id, 1u);
  EXPECT_EQ(marker->begin_offset, meta->log_offset);
  EXPECT_EQ(marker->begin_record.lsn, meta->begin_lsn);
}

TEST_P(CheckpointTest, BackupContainsCommittedDataAfterCheckpoint) {
  Open();
  std::string image = Image(10, 5);
  MMDB_ASSERT_OK(engine_->Apply({{10, image}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  auto meta = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta);
  SegmentId seg = engine_->db().SegmentOf(10);
  std::string segment;
  MMDB_ASSERT_OK(engine_->backup()->ReadSegment(meta->copy, seg, &segment));
  size_t offset = (10 % engine_->params().db.records_per_segment()) *
                  engine_->db().record_bytes();
  EXPECT_EQ(segment.substr(offset, image.size()), image);
}

TEST_P(CheckpointTest, WalGateHoldsSegmentsUntilCommitDurable) {
  Open();
  // Commit without letting the log flush land, then checkpoint: the
  // checkpoint must internally wait for commit durability, so after it
  // completes the log on disk must contain the commit record.
  MMDB_ASSERT_OK(engine_->Apply({{0, Image(0, 9)}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->Crash());
  auto reader = LogReader::Open(env_.get(), engine_->LogPath());
  MMDB_ASSERT_OK(reader);
  bool commit_found = false;
  for (size_t i = 0; i < reader->num_frames(); ++i) {
    LogRecordHeader h;
    MMDB_ASSERT_OK(reader->HeaderAt(i, &h));
    if (h.type == LogRecordType::kCommit) commit_found = true;
  }
  EXPECT_TRUE(commit_found)
      << "segment images reached the backup before the covering commit";
}

TEST_P(CheckpointTest, StepIsIdempotentWhenIdle) {
  Open();
  EXPECT_FALSE(engine_->CheckpointInProgress());
  MMDB_ASSERT_OK(engine_->StepCheckpoint());
  EXPECT_FALSE(engine_->CheckpointInProgress());
}

TEST_P(CheckpointTest, BeginWhileRunningFails) {
  Open();
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  EXPECT_TRUE(engine_->StartCheckpoint().IsFailedPrecondition());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
}

TEST_P(CheckpointTest, AsyncCostsAreCharged) {
  Open(CheckpointMode::kFull);
  double before = engine_->meter().AsynchronousOverhead();
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  double charged = engine_->meter().AsynchronousOverhead() - before;
  const SystemParams& p = engine_->params();
  uint64_t n = p.db.num_segments();
  // Every algorithm initiates at least one I/O per segment.
  EXPECT_GE(charged, static_cast<double>(n * p.costs.io));
  // Copy-based algorithms also move whole segments.
  if (GetParam() == Algorithm::kFuzzyCopy ||
      GetParam() == Algorithm::kTwoColorCopy ||
      GetParam() == Algorithm::kCouCopy) {
    EXPECT_GE(charged,
              static_cast<double>(n) * (p.costs.io + p.db.segment_words));
  }
  // FASTFUZZY charges nothing but the I/O initiations.
  if (GetParam() == Algorithm::kFastFuzzy) {
    EXPECT_DOUBLE_EQ(charged, static_cast<double>(n * p.costs.io));
  }
}

TEST_P(CheckpointTest, HistoryAccumulatesStats) {
  Open();
  MMDB_ASSERT_OK(engine_->Apply({{0, Image(0, 1)}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->Apply({{64, Image(64, 2)}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  const auto& history = engine_->checkpointer().history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].id, 1u);
  EXPECT_EQ(history[1].id, 2u);
  EXPECT_GT(history[0].end_time, history[0].begin_time);
  EXPECT_LE(history[0].end_time, history[1].begin_time);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CheckpointTest, testing::ValuesIn(kAllAlgorithms),
    [](const testing::TestParamInfo<Algorithm>& info) {
      std::string name(AlgorithmName(info.param));
      return name;
    });

TEST(AlgorithmNameTest, RoundTrips) {
  for (Algorithm a : kAllAlgorithms) {
    auto parsed = AlgorithmFromName(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(AlgorithmFromName("NOPE").ok());
}

TEST(AlgorithmNameTest, ParsesCaseInsensitively) {
  for (Algorithm a : kAllAlgorithms) {
    std::string lower(AlgorithmName(a));
    for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
    auto parsed = AlgorithmFromName(lower);
    MMDB_ASSERT_OK(parsed);
    EXPECT_EQ(*parsed, a) << lower;
  }
  auto mixed = AlgorithmFromName("ZigZag");
  MMDB_ASSERT_OK(mixed);
  EXPECT_EQ(*mixed, Algorithm::kZigzag);
}

TEST(AlgorithmNameTest, UnknownNameErrorListsEverySpelling) {
  auto parsed = AlgorithmFromName("COWCOPY");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  std::string msg = parsed.status().ToString();
  EXPECT_NE(msg.find("COWCOPY"), std::string::npos) << msg;
  for (Algorithm a : kAllAlgorithms) {
    EXPECT_NE(msg.find(std::string(AlgorithmName(a))), std::string::npos)
        << "missing " << AlgorithmName(a) << " in: " << msg;
  }
}

TEST(SchedulerTest, FirstCheckpointImmediately) {
  CheckpointScheduler s(10.0);
  EXPECT_EQ(s.NextId(), 1u);
  EXPECT_DOUBLE_EQ(s.NextBeginTime(), 0.0);
}

TEST(SchedulerTest, SpacingRespectsIntervalAndCompletion) {
  CheckpointScheduler s(10.0);
  s.OnBegin(0.0);
  s.OnComplete(3.0);
  EXPECT_DOUBLE_EQ(s.NextBeginTime(), 10.0);  // interval dominates
  s.OnBegin(10.0);
  s.OnComplete(25.0);  // slow checkpoint: completion dominates
  EXPECT_DOUBLE_EQ(s.NextBeginTime(), 25.0);
  EXPECT_EQ(s.NextId(), 3u);
  EXPECT_EQ(s.completed(), 2u);
}

TEST(SchedulerTest, ZeroIntervalRunsBackToBack) {
  CheckpointScheduler s(0.0);
  s.OnBegin(0.0);
  s.OnComplete(2.5);
  EXPECT_DOUBLE_EQ(s.NextBeginTime(), 2.5);
}

}  // namespace
}  // namespace mmdb

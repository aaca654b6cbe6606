// Tests for txn/: lock manager semantics, the transaction manager's
// shadow-copy commit protocol, logging, and abort accounting.

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "storage/database.h"
#include "storage/segment_table.h"
#include "tests/test_util.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/log_reader.h"

namespace mmdb {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  MMDB_ASSERT_OK(lm.Acquire(1, 10, LockManager::Mode::kShared));
  MMDB_ASSERT_OK(lm.Acquire(2, 10, LockManager::Mode::kShared));
  EXPECT_TRUE(lm.Holds(1, 10, LockManager::Mode::kShared));
  EXPECT_TRUE(lm.Holds(2, 10, LockManager::Mode::kShared));
}

TEST(LockManagerTest, ExclusiveConflictsAbort) {
  LockManager lm;
  MMDB_ASSERT_OK(lm.Acquire(1, 10, LockManager::Mode::kExclusive));
  EXPECT_TRUE(lm.Acquire(2, 10, LockManager::Mode::kExclusive).IsAborted());
  EXPECT_TRUE(lm.Acquire(2, 10, LockManager::Mode::kShared).IsAborted());
  // Re-entrant for the holder.
  MMDB_ASSERT_OK(lm.Acquire(1, 10, LockManager::Mode::kExclusive));
  MMDB_ASSERT_OK(lm.Acquire(1, 10, LockManager::Mode::kShared));
}

TEST(LockManagerTest, UpgradeOnlyForSoleSharer) {
  LockManager lm;
  MMDB_ASSERT_OK(lm.Acquire(1, 10, LockManager::Mode::kShared));
  MMDB_ASSERT_OK(lm.Acquire(1, 10, LockManager::Mode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, 10, LockManager::Mode::kExclusive));

  MMDB_ASSERT_OK(lm.Acquire(2, 11, LockManager::Mode::kShared));
  MMDB_ASSERT_OK(lm.Acquire(3, 11, LockManager::Mode::kShared));
  EXPECT_TRUE(lm.Acquire(2, 11, LockManager::Mode::kExclusive).IsAborted());
}

TEST(LockManagerTest, ReleaseAllFreesTable) {
  LockManager lm;
  MMDB_ASSERT_OK(lm.Acquire(1, 10, LockManager::Mode::kExclusive));
  MMDB_ASSERT_OK(lm.Acquire(1, 11, LockManager::Mode::kShared));
  EXPECT_EQ(lm.num_locked_records(), 2u);
  lm.ReleaseAll(1, {10, 11, 12});  // 12 not held: ignored
  EXPECT_EQ(lm.num_locked_records(), 0u);
  EXPECT_FALSE(lm.IsLocked(10));
  MMDB_ASSERT_OK(lm.Acquire(2, 10, LockManager::Mode::kExclusive));
}

class TxnManagerTest : public testing::Test {
 protected:
  void SetUp() override {
    params_ = SystemParams::TestDefaults();
    params_.db.db_words = 4 * 1024;
    params_.db.segment_words = 1024;
    env_ = NewMemEnv();
    db_ = std::make_unique<Database>(params_.db);
    segments_ = std::make_unique<SegmentTable>(params_.db.num_segments());
    log_ = std::make_unique<LogManager>(env_.get(), "wal.log", params_,
                                        &meter_, false);
    MMDB_ASSERT_OK(log_->Open());
    txns_ = std::make_unique<TxnManager>(db_.get(), segments_.get(),
                                         log_.get(), &timestamps_, &meter_,
                                         params_);
  }

  std::string Image(char fill) {
    return std::string(db_->record_bytes(), fill);
  }

  SystemParams params_;
  std::unique_ptr<Env> env_;
  CpuMeter meter_;
  TimestampOracle timestamps_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SegmentTable> segments_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<TxnManager> txns_;
};

TEST_F(TxnManagerTest, CommitInstallsLogsAndMarksControlState) {
  Transaction* t = txns_->Begin(0.0);
  EXPECT_EQ(t->id, 1u);
  EXPECT_GT(t->start_ts, 0u);
  Timestamp start_ts = t->start_ts;  // `t` dies at Commit
  MMDB_ASSERT_OK(txns_->Write(t, 40, Image('a'), 0.0));  // segment 1
  auto lsn = txns_->Commit(t, 0.0);
  MMDB_ASSERT_OK(lsn);

  EXPECT_EQ(db_->ReadRecord(40), std::string_view(Image('a')));
  EXPECT_TRUE(segments_->dirty(1, 0));
  EXPECT_TRUE(segments_->dirty(1, 1));
  EXPECT_EQ(segments_->update_lsn(1), *lsn);
  EXPECT_EQ(segments_->timestamp(1), start_ts);
  EXPECT_EQ(txns_->commits(), 1u);

  // The log holds the update group then the commit, contiguously.
  log_->Flush(0.0);
  MMDB_ASSERT_OK(log_->Crash(1000.0));
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  ASSERT_EQ(reader->num_frames(), 2u);
  auto first = reader->RecordAtIndex(0);
  MMDB_ASSERT_OK(first);
  EXPECT_EQ(first->type, LogRecordType::kUpdate);
  EXPECT_EQ(first->record_id, 40u);
  EXPECT_EQ(first->image, Image('a'));
}

TEST_F(TxnManagerTest, ReadYourWritesAndSnapshotOfOthers) {
  Transaction* t = txns_->Begin(0.0);
  std::string value;
  MMDB_ASSERT_OK(txns_->Read(t, 5, &value, 0.0));
  EXPECT_EQ(value, Image('\0'));
  MMDB_ASSERT_OK(txns_->Write(t, 5, Image('x'), 0.0));
  MMDB_ASSERT_OK(txns_->Read(t, 5, &value, 0.0));
  EXPECT_EQ(value, Image('x'));
  // Database unchanged until commit.
  EXPECT_EQ(db_->ReadRecord(5), std::string_view(Image('\0')));
  MMDB_ASSERT_OK(txns_->Commit(t, 0.0).status());
  EXPECT_EQ(db_->ReadRecord(5), std::string_view(Image('x')));
}

TEST_F(TxnManagerTest, AbortDiscardsAndLogsAbortRecord) {
  Transaction* t = txns_->Begin(0.0);
  MMDB_ASSERT_OK(txns_->Write(t, 5, Image('x'), 0.0));
  txns_->Abort(t, AbortReason::kUser, 0.0);
  EXPECT_EQ(db_->ReadRecord(5), std::string_view(Image('\0')));
  EXPECT_EQ(txns_->user_aborts(), 1u);
  EXPECT_FALSE(segments_->dirty_any(0));
  EXPECT_EQ(txns_->num_active(), 0u);
}

TEST_F(TxnManagerTest, ColorAbortChargesRerun) {
  Transaction* t = txns_->Begin(0.0);
  MMDB_ASSERT_OK(txns_->Write(t, 5, Image('x'), 0.0));
  double before = meter_.Count(CpuCategory::kTxnRerun);
  txns_->Abort(t, AbortReason::kColorViolation, 0.0);
  EXPECT_EQ(txns_->color_aborts(), 1u);
  EXPECT_DOUBLE_EQ(meter_.Count(CpuCategory::kTxnRerun) - before,
                   params_.txn.instructions);
}

TEST_F(TxnManagerTest, WriteValidatesArguments) {
  Transaction* t = txns_->Begin(0.0);
  EXPECT_TRUE(txns_->Write(t, 1u << 20, Image('x'), 0.0).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(
      txns_->Write(t, 1, "short", 0.0).IsInvalidArgument());
  txns_->Abort(t, AbortReason::kUser, 0.0);
}

TEST_F(TxnManagerTest, ConflictingWritersAbort) {
  Transaction* a = txns_->Begin(0.0);
  Transaction* b = txns_->Begin(0.0);
  MMDB_ASSERT_OK(txns_->Write(a, 7, Image('a'), 0.0));
  EXPECT_TRUE(txns_->Write(b, 7, Image('b'), 0.0).IsAborted());
  txns_->Abort(b, AbortReason::kLockConflict, 0.0);
  MMDB_ASSERT_OK(txns_->Commit(a, 0.0).status());
  EXPECT_EQ(txns_->lock_aborts(), 1u);
  // After a's release, a new writer proceeds.
  Transaction* c = txns_->Begin(0.0);
  MMDB_ASSERT_OK(txns_->Write(c, 7, Image('c'), 0.0));
  MMDB_ASSERT_OK(txns_->Commit(c, 0.0).status());
  EXPECT_EQ(db_->ReadRecord(7), std::string_view(Image('c')));
}

TEST_F(TxnManagerTest, ActiveTxnListSortedAndLsnFree) {
  Transaction* a = txns_->Begin(0.0);
  Transaction* b = txns_->Begin(0.0);
  auto list = txns_->ActiveTxnList();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].txn_id, a->id);
  EXPECT_EQ(list[1].txn_id, b->id);
  EXPECT_EQ(list[0].first_lsn, kInvalidLsn);
  txns_->Abort(a, AbortReason::kUser, 0.0);
  txns_->Abort(b, AbortReason::kUser, 0.0);
}

TEST_F(TxnManagerTest, TimestampsIncreaseAcrossTransactions) {
  Transaction* a = txns_->Begin(0.0);
  Timestamp ta = a->start_ts;
  MMDB_ASSERT_OK(txns_->Commit(a, 0.0).status());
  Transaction* b = txns_->Begin(0.0);
  EXPECT_GT(b->start_ts, ta);
  txns_->Abort(b, AbortReason::kUser, 0.0);
}

}  // namespace
}  // namespace mmdb

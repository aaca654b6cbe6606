// Tests for backup/: ping-pong copies, segment checksums, atomic metadata
// publication, and torn writes at crash.

#include <memory>
#include <span>
#include <string>

#include "backup/backup_store.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace mmdb {
namespace {

class BackupStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    params_ = SystemParams::TestDefaults();
    params_.db.db_words = 8 * 1024;  // 8 segments of 1024 words
    params_.db.segment_words = 1024;
    disks_ = std::make_unique<DiskArrayModel>(params_.disk);
    store_ = std::make_unique<BackupStore>(env_.get(), "bk", params_,
                                           disks_.get());
    MMDB_ASSERT_OK(store_->Open());
  }

  std::string Segment(char fill) {
    return std::string(params_.db.segment_bytes(), fill);
  }

  std::unique_ptr<Env> env_;
  SystemParams params_;
  std::unique_ptr<DiskArrayModel> disks_;
  std::unique_ptr<BackupStore> store_;
};

TEST_F(BackupStoreTest, FreshCopiesReadBackAsZeros) {
  std::string out;
  MMDB_ASSERT_OK(store_->ReadSegment(0, 3, &out));
  EXPECT_EQ(out, Segment('\0'));
  MMDB_ASSERT_OK(store_->ReadSegment(1, 7, &out));
  EXPECT_EQ(out, Segment('\0'));
}

TEST_F(BackupStoreTest, WriteReadRoundTripPerCopy) {
  auto done = store_->WriteSegment(0, 2, Segment('a'), 0.0);
  MMDB_ASSERT_OK(done);
  EXPECT_GT(*done, 0.0);
  std::string out;
  MMDB_ASSERT_OK(store_->ReadSegment(0, 2, &out));
  EXPECT_EQ(out, Segment('a'));
  // The other copy is untouched.
  MMDB_ASSERT_OK(store_->ReadSegment(1, 2, &out));
  EXPECT_EQ(out, Segment('\0'));
}

TEST_F(BackupStoreTest, ReadSegmentIntoFillsTheCallersBuffer) {
  MMDB_ASSERT_OK(store_->WriteSegment(1, 5, Segment('q'), 0.0).status());
  std::string buf(params_.db.segment_bytes(), '?');
  MMDB_ASSERT_OK(store_->ReadSegmentInto(1, 5, std::span<char>(buf)));
  EXPECT_EQ(buf, Segment('q'));
  // A buffer of the wrong size is rejected before any read.
  std::string small(params_.db.segment_bytes() - 1, '?');
  EXPECT_TRUE(
      store_->ReadSegmentInto(1, 5, std::span<char>(small)).IsInvalidArgument());
  EXPECT_EQ(small, std::string(params_.db.segment_bytes() - 1, '?'));
}

// Reopening a directory whose copies hold a smaller geometry must fail
// without touching them: the header check precedes the preallocation.
TEST_F(BackupStoreTest, RejectedOpenLeavesCopiesUntouched) {
  MMDB_ASSERT_OK(store_->WriteSegment(0, 3, Segment('g'), 0.0).status());
  std::string before[2];
  for (uint32_t c = 0; c < 2; ++c) {
    MMDB_ASSERT_OK(env_->ReadFileToString(store_->CopyPath(c), &before[c]));
  }
  SystemParams bigger = params_;
  bigger.db.db_words = 64 * 1024;
  BackupStore reopened(env_.get(), "bk", bigger, disks_.get());
  EXPECT_TRUE(reopened.Open().IsInvalidArgument());
  for (uint32_t c = 0; c < 2; ++c) {
    std::string after;
    MMDB_ASSERT_OK(env_->ReadFileToString(store_->CopyPath(c), &after));
    EXPECT_EQ(after.size(), before[c].size()) << "copy " << c;
    EXPECT_TRUE(after == before[c]) << "copy " << c << " bytes changed";
  }
}

TEST_F(BackupStoreTest, CopyForAlternates) {
  EXPECT_EQ(BackupStore::CopyFor(1), 1u);
  EXPECT_EQ(BackupStore::CopyFor(2), 0u);
  EXPECT_EQ(BackupStore::CopyFor(3), 1u);
}

TEST_F(BackupStoreTest, RejectsBadArguments) {
  EXPECT_FALSE(store_->WriteSegment(2, 0, Segment('x'), 0.0).ok());
  EXPECT_FALSE(store_->WriteSegment(0, 99, Segment('x'), 0.0).ok());
  EXPECT_FALSE(store_->WriteSegment(0, 0, "short", 0.0).ok());
  std::string out;
  EXPECT_FALSE(store_->ReadSegment(0, 99, &out).ok());
}

TEST_F(BackupStoreTest, MetaRoundTripAndAtomicReplace) {
  EXPECT_TRUE(store_->ReadMeta().status().IsNotFound());
  CheckpointMeta meta;
  meta.checkpoint_id = 5;
  meta.copy = 1;
  meta.log_offset = 1234;
  meta.begin_lsn = 77;
  meta.tau = 9;
  MMDB_ASSERT_OK(store_->CommitCheckpoint(meta));
  auto read = store_->ReadMeta();
  MMDB_ASSERT_OK(read);
  EXPECT_EQ(*read, meta);

  meta.checkpoint_id = 6;
  meta.copy = 0;
  MMDB_ASSERT_OK(store_->CommitCheckpoint(meta));
  read = store_->ReadMeta();
  MMDB_ASSERT_OK(read);
  EXPECT_EQ(read->checkpoint_id, 6u);
}

TEST_F(BackupStoreTest, MetaCorruptionDetected) {
  CheckpointMeta meta;
  meta.checkpoint_id = 1;
  MMDB_ASSERT_OK(store_->CommitCheckpoint(meta));
  std::string contents;
  MMDB_ASSERT_OK(env_->ReadFileToString(store_->MetaPath(), &contents));
  contents[5] ^= 0x01;
  MMDB_ASSERT_OK(env_->WriteStringToFile(store_->MetaPath(), contents, false));
  EXPECT_TRUE(store_->ReadMeta().status().IsCorruption());
}

TEST_F(BackupStoreTest, CrashTearsInFlightWrites) {
  auto done = store_->WriteSegment(0, 1, Segment('z'), 0.0);
  MMDB_ASSERT_OK(done);
  // Crash before the modeled completion: the slot must fail verification.
  MMDB_ASSERT_OK(store_->Crash(*done - 1e-6));
  std::string out;
  EXPECT_TRUE(store_->ReadSegment(0, 1, &out).IsCorruption());
}

TEST_F(BackupStoreTest, CrashKeepsCompletedWrites) {
  auto done = store_->WriteSegment(0, 1, Segment('z'), 0.0);
  MMDB_ASSERT_OK(done);
  MMDB_ASSERT_OK(store_->Crash(*done));  // exactly at completion: landed
  std::string out;
  MMDB_ASSERT_OK(store_->ReadSegment(0, 1, &out));
  EXPECT_EQ(out, Segment('z'));
}

TEST_F(BackupStoreTest, BitRotDetectedByChecksum) {
  MMDB_ASSERT_OK(store_->WriteSegment(0, 4, Segment('m'), 0.0).status());
  // Flip one byte of the stored image directly.
  auto file = env_->NewRandomWriteFile(store_->CopyPath(0));
  MMDB_ASSERT_OK(file);
  auto size = env_->FileSize(store_->CopyPath(0));
  MMDB_ASSERT_OK(size);
  MMDB_ASSERT_OK((*file)->WriteAt(*size - 10, "X"));
  std::string out;
  EXPECT_TRUE(store_->ReadSegment(0, 7, &out).IsCorruption());
}

TEST_F(BackupStoreTest, WritesPaceOnTheDiskArray) {
  double last = 0.0;
  for (int i = 0; i < 40; ++i) {
    auto done = store_->WriteSegment(0, i % 8, Segment('a' + i % 8), 0.0);
    MMDB_ASSERT_OK(done);
    last = std::max(last, *done);
  }
  // 40 writes of 1024 words on 20 disks: two serial rounds.
  EXPECT_NEAR(last, 2 * params_.disk.IoSeconds(1024), 1e-9);
  EXPECT_EQ(store_->segments_written(), 40u);
}

}  // namespace
}  // namespace mmdb

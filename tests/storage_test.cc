// Tests for storage/: the primary database, segment control table, and
// buffer pool.

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>

#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/segment_table.h"

namespace mmdb {
namespace {

DatabaseParams SmallDb() {
  DatabaseParams p;
  p.db_words = 4 * 1024;  // 4 segments of 1024 words
  p.segment_words = 1024;
  p.record_words = 32;
  return p;
}

// A size that is not a page multiple: 97 one-record segments.
DatabaseParams OddDb() {
  DatabaseParams p = SmallDb();
  p.db_words = 3 * 1024 + 32;
  p.segment_words = 32;
  return p;
}

TEST(DatabaseTest, GeometryAndAddressing) {
  Database db(SmallDb());
  EXPECT_EQ(db.num_segments(), 4u);
  EXPECT_EQ(db.num_records(), 128u);
  EXPECT_EQ(db.record_bytes(), 128u);
  EXPECT_EQ(db.segment_bytes(), 4096u);
  EXPECT_EQ(db.SegmentOf(0), 0u);
  EXPECT_EQ(db.SegmentOf(31), 0u);
  EXPECT_EQ(db.SegmentOf(32), 1u);
  EXPECT_EQ(db.SegmentOf(127), 3u);
}

TEST(DatabaseTest, RecordReadWriteRoundTrip) {
  Database db(SmallDb());
  std::string image(db.record_bytes(), 'A');
  db.WriteRecord(5, image);
  EXPECT_EQ(db.ReadRecord(5), std::string_view(image));
  // Neighbors untouched.
  std::string zeros(db.record_bytes(), '\0');
  EXPECT_EQ(db.ReadRecord(4), std::string_view(zeros));
  EXPECT_EQ(db.ReadRecord(6), std::string_view(zeros));
}

TEST(DatabaseTest, SegmentContainsItsRecords) {
  Database db(SmallDb());
  std::string image(db.record_bytes(), 'B');
  db.WriteRecord(33, image);  // record 1 of segment 1
  std::string_view seg = db.ReadSegment(1);
  EXPECT_EQ(seg.substr(db.record_bytes(), db.record_bytes()),
            std::string_view(image));
}

TEST(DatabaseTest, SegmentWriteAndClear) {
  Database db(SmallDb());
  std::string seg(db.segment_bytes(), 'C');
  std::span<char> slot = db.MutableSegment(2);
  ASSERT_EQ(slot.size(), seg.size());
  std::copy(seg.begin(), seg.end(), slot.begin());
  EXPECT_EQ(db.ReadSegment(2), std::string_view(seg));
  EXPECT_EQ(db.ReadSegment(1), std::string(db.segment_bytes(), '\0'));
  EXPECT_EQ(db.ReadSegment(3), std::string(db.segment_bytes(), '\0'));
  uint32_t sum_before = db.Checksum();
  db.Clear();
  EXPECT_NE(db.Checksum(), sum_before);
  std::string zeros(db.segment_bytes(), '\0');
  EXPECT_EQ(db.ReadSegment(2), std::string_view(zeros));
}

TEST(DatabaseTest, StartsZeroedAtEveryGeometry) {
  for (const DatabaseParams& p : {SmallDb(), OddDb()}) {
    Database db(p);
    ASSERT_EQ(db.size_bytes(), p.db_words * kWordBytes);
    EXPECT_EQ(std::count(db.data(), db.data() + db.size_bytes(), '\0'),
              static_cast<std::ptrdiff_t>(db.size_bytes()));
    // The last byte is writable.
    db.mutable_data()[db.size_bytes() - 1] = 'x';
    EXPECT_EQ(db.data()[db.size_bytes() - 1], 'x');
  }
}

// A guard page follows the primary, so an overrun faults in every build
// (an anonymous mapping has no sanitizer redzones).
TEST(DatabaseDeathTest, WriteOnePastTheEndFaults) {
  for (const DatabaseParams& p : {SmallDb(), OddDb()}) {
    Database db(p);
    volatile char* end = db.mutable_data() + db.size_bytes();
    EXPECT_DEATH(*end = 1, "");
  }
}

TEST(SegmentTableTest, DualDirtyBitsForPingPong) {
  SegmentTable t(8);
  EXPECT_FALSE(t.dirty_any(3));
  t.MarkDirty(3);
  EXPECT_TRUE(t.dirty(3, 0));
  EXPECT_TRUE(t.dirty(3, 1));
  t.ClearDirty(3, 0);
  EXPECT_FALSE(t.dirty(3, 0));
  EXPECT_TRUE(t.dirty(3, 1));
  EXPECT_TRUE(t.dirty_any(3));
  t.ClearDirty(3, 1);
  EXPECT_FALSE(t.dirty_any(3));
  t.MarkDirty(3);
  t.MarkDirty(5);
  EXPECT_EQ(t.CountDirty(0), 2u);
  t.MarkAllDirty();
  EXPECT_EQ(t.CountDirty(1), 8u);
}

TEST(SegmentTableTest, PaintAndFlip) {
  SegmentTable t(4);
  for (SegmentId s = 0; s < 4; ++s) {
    EXPECT_EQ(t.color(s), PaintColor::kWhite);
  }
  t.Paint(1, PaintColor::kBlack);
  EXPECT_EQ(t.color(1), PaintColor::kBlack);
  EXPECT_EQ(t.color(0), PaintColor::kWhite);
  // Paint everything black, then flip: all white in O(1).
  for (SegmentId s = 0; s < 4; ++s) t.Paint(s, PaintColor::kBlack);
  t.FlipColors();
  for (SegmentId s = 0; s < 4; ++s) {
    EXPECT_EQ(t.color(s), PaintColor::kWhite);
  }
  // Painting still works under the flipped interpretation.
  t.Paint(2, PaintColor::kBlack);
  EXPECT_EQ(t.color(2), PaintColor::kBlack);
  EXPECT_EQ(t.color(3), PaintColor::kWhite);
}

TEST(SegmentTableTest, LsnTimestampOldCopy) {
  SegmentTable t(4);
  EXPECT_EQ(t.update_lsn(0), kInvalidLsn);
  t.set_update_lsn(0, 42);
  EXPECT_EQ(t.update_lsn(0), 42u);
  t.set_timestamp(0, 7);
  EXPECT_EQ(t.timestamp(0), 7u);
  EXPECT_FALSE(t.has_old_copy(0));
  t.set_old_copy(0, 3);
  EXPECT_TRUE(t.has_old_copy(0));
  EXPECT_EQ(t.old_copy(0), 3u);
  t.clear_old_copy(0);
  EXPECT_FALSE(t.has_old_copy(0));
  t.set_ckpt_locked(1, true);
  EXPECT_TRUE(t.ckpt_locked(1));
  t.Reset();
  EXPECT_EQ(t.update_lsn(0), kInvalidLsn);
  EXPECT_FALSE(t.ckpt_locked(1));
  EXPECT_EQ(t.color(2), PaintColor::kWhite);
}

TEST(BufferPoolTest, AllocateWriteReadFree) {
  BufferPool pool(256, 0);
  auto h = pool.Allocate();
  ASSERT_TRUE(h.ok());
  std::string data(256, 'x');
  pool.Write(*h, data);
  EXPECT_EQ(pool.Read(*h), std::string_view(data));
  EXPECT_EQ(pool.allocated(), 1u);
  pool.Free(*h);
  EXPECT_EQ(pool.allocated(), 0u);
  EXPECT_EQ(pool.high_water_mark(), 1u);
}

TEST(BufferPoolTest, RecyclesFreedBuffers) {
  BufferPool pool(64, 0);
  auto a = pool.Allocate();
  ASSERT_TRUE(a.ok());
  pool.Free(*a);
  auto b = pool.Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // same slot reused
}

TEST(BufferPoolTest, CapacityEnforced) {
  BufferPool pool(64, 2);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool.Allocate();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  pool.Free(*a);
  auto d = pool.Allocate();
  EXPECT_TRUE(d.ok());
}

TEST(BufferPoolTest, HighWaterTracksPeak) {
  BufferPool pool(64, 0);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  auto c = pool.Allocate();
  pool.Free(*b);
  pool.Free(*a);
  EXPECT_EQ(pool.high_water_mark(), 3u);
  EXPECT_EQ(pool.allocated(), 1u);
  (void)c;
}

}  // namespace
}  // namespace mmdb

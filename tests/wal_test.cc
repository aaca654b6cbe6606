// Tests for wal/: record encoding, framing, the LogManager's modeled
// durability and crash semantics, and the LogReader's frame access.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "gtest/gtest.h"
#include "sim/cpu_meter.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/string_util.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace mmdb {
namespace {

TEST(LogRecordTest, UpdateRoundTrip) {
  LogRecord r = LogRecord::Update(7, 123, std::string(128, 'q'));
  r.lsn = 99;
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord out;
  MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
  EXPECT_EQ(out, r);
}

TEST(LogRecordTest, CommitAbortRoundTrip) {
  for (LogRecord r : {LogRecord::Commit(5), LogRecord::Abort(6)}) {
    r.lsn = 3;
    std::string payload;
    r.EncodeTo(&payload);
    LogRecord out;
    MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
    EXPECT_EQ(out, r);
  }
}

TEST(LogRecordTest, BeginCheckpointWithActiveList) {
  LogRecord r = LogRecord::BeginCheckpoint(
      4, 1000, {{10, kInvalidLsn}, {11, 55}});
  r.lsn = 77;
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord out;
  MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
  EXPECT_EQ(out, r);
  ASSERT_EQ(out.active_txns.size(), 2u);
  EXPECT_EQ(out.active_txns[1].first_lsn, 55u);
}

TEST(LogRecordTest, EndCheckpointRoundTrip) {
  LogRecord r = LogRecord::EndCheckpoint(9);
  r.lsn = 80;
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord out;
  MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
  EXPECT_EQ(out, r);
}

std::vector<LogRecord> AllRecordShapes() {
  std::vector<LogRecord> records = {
      LogRecord::Update(7, 123, std::string(128, 'q')),
      LogRecord::Update(1, 0, ""),
      LogRecord::Delta(9, 456, 24, -17),
      LogRecord::Commit(5),
      LogRecord::Abort(6),
      LogRecord::BeginCheckpoint(4, 1000, {{10, kInvalidLsn}, {11, 55}}),
      LogRecord::BeginCheckpoint(2, 0, {}),
      LogRecord::EndCheckpoint(9),
  };
  Lsn lsn = 1;
  for (LogRecord& r : records) r.lsn = (lsn += 1000000);  // multi-byte varints
  return records;
}

TEST(LogRecordTest, EncodedSizeMatchesEncodeToForEveryShape) {
  // EncodedSize is computed arithmetically (the append path pre-reserves
  // with it); it must agree exactly with the bytes EncodeTo produces.
  for (const LogRecord& r : AllRecordShapes()) {
    std::string payload;
    r.EncodeTo(&payload);
    EXPECT_EQ(r.EncodedSize(), payload.size()) << r.DebugString();
  }
}

TEST(LogRecordTest, EncodeLogFrameLayoutAndAppendBehavior) {
  // The frame encoder writes [u32 len][payload][u32 masked-crc][u32 len]
  // and APPENDS: pre-existing bytes in dst (the log tail) stay untouched.
  for (const LogRecord& r : AllRecordShapes()) {
    std::string payload;
    r.EncodeTo(&payload);
    std::string frame;
    frame.append("PREFIX");
    EncodeLogFrame(r, &frame);
    ASSERT_EQ(frame.size(), 6 + payload.size() + kLogFrameOverhead)
        << r.DebugString();
    EXPECT_EQ(frame.substr(0, 6), "PREFIX");
    std::string_view body(frame.data() + 6, frame.size() - 6);
    EXPECT_EQ(DecodeFixed32(body.data()), payload.size());
    EXPECT_EQ(body.substr(4, payload.size()), payload);
    uint32_t stored_crc = DecodeFixed32(body.data() + 4 + payload.size());
    EXPECT_EQ(crc32c::Unmask(stored_crc), crc32c::Value(payload));
    EXPECT_EQ(DecodeFixed32(body.data() + 8 + payload.size()),
              payload.size());
  }
}

// A CRC-valid begin marker whose active-transaction count no payload could
// hold: the decoders return CORRUPTION instead of sizing a list by it.
std::string ForgedBeginMarker() {
  std::string payload;
  payload.push_back(static_cast<char>(LogRecordType::kBeginCheckpoint));
  PutVarint64(&payload, 7);                  // lsn
  PutVarint64(&payload, 0);                  // txn
  PutVarint64(&payload, 1);                  // checkpoint id
  PutVarint64(&payload, 0);                  // tau
  PutVarint64(&payload, uint64_t{1} << 62);  // active count
  PutVarint64(&payload, 3);                  // one entry's txn
  PutVarint64(&payload, kInvalidLsn);        // and first lsn
  return payload;
}

TEST(LogRecordTest, DecodeRejectsGarbage) {
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom("", &out).IsCorruption());
  EXPECT_TRUE(LogRecord::DecodeFrom("\x63", &out).IsCorruption());
  // Valid record with trailing junk.
  LogRecord r = LogRecord::Commit(1);
  std::string payload;
  r.EncodeTo(&payload);
  payload += "junk";
  EXPECT_TRUE(LogRecord::DecodeFrom(payload, &out).IsCorruption());
  EXPECT_TRUE(LogRecord::DecodeFrom(ForgedBeginMarker(), &out).IsCorruption());
}

class LogManagerTest : public testing::Test {
 protected:
  void Open(bool stable = false) {
    env_ = NewMemEnv();
    log_ = std::make_unique<LogManager>(env_.get(), "wal.log",
                                        SystemParams::TestDefaults(), &meter_,
                                        stable);
    MMDB_ASSERT_OK(log_->Open());
  }

  Lsn Append(TxnId txn) {
    LogRecord r = LogRecord::Commit(txn);
    return log_->Append(&r);
  }

  std::unique_ptr<Env> env_;
  CpuMeter meter_;
  std::unique_ptr<LogManager> log_;
};

TEST_F(LogManagerTest, LsnsAreDense) {
  Open();
  EXPECT_EQ(Append(1), 1u);
  EXPECT_EQ(Append(2), 2u);
  EXPECT_EQ(log_->NextLsn(), 3u);
  EXPECT_EQ(log_->LastLsn(), 2u);
}

TEST_F(LogManagerTest, DurabilityTracksFlushCompletion) {
  Open();
  Append(1);
  EXPECT_EQ(log_->DurableLsn(0.0), kInvalidLsn);
  double done = *log_->Flush(0.0);
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(log_->DurableLsn(done - 1e-9), kInvalidLsn);
  EXPECT_EQ(log_->DurableLsn(done), 1u);
  // WhenDurable: already durable -> now; future flush -> completion.
  Append(2);
  EXPECT_EQ(log_->WhenDurable(1, done + 1.0), done + 1.0);
  EXPECT_TRUE(std::isinf(log_->WhenDurable(2, done + 1.0)));
  double done2 = *log_->Flush(done + 1.0);
  EXPECT_EQ(log_->WhenDurable(2, done + 1.0), done2);
}

TEST_F(LogManagerTest, StableTailDurableImmediately) {
  Open(/*stable=*/true);
  Lsn lsn = Append(1);
  EXPECT_EQ(log_->DurableLsn(0.0), lsn);
  EXPECT_EQ(log_->WhenDurable(lsn, 0.0), 0.0);
}

TEST_F(LogManagerTest, CrashDropsUnflushedAndUnlandedBytes) {
  Open();
  Append(1);
  double done1 = *log_->Flush(0.0);  // lands at done1
  Append(2);
  MMDB_ASSERT_OK(log_->Flush(done1));  // lands later
  Append(3);           // never flushed
  // Crash after the first flush landed but before the second.
  MMDB_ASSERT_OK(log_->Crash(done1));
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->num_frames(), 1u);
}

TEST_F(LogManagerTest, StableCrashKeepsEverything) {
  Open(/*stable=*/true);
  Append(1);
  MMDB_ASSERT_OK(log_->Flush(0.0));
  Append(2);
  Append(3);
  MMDB_ASSERT_OK(log_->Crash(0.0));
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->num_frames(), 3u);
}

TEST_F(LogManagerTest, OpenExistingContinuesLsnsAndOffsets) {
  Open();
  Append(1);
  Append(2);
  MMDB_ASSERT_OK(log_->Flush(0.0));
  MMDB_ASSERT_OK(log_->Crash(100.0));  // everything landed

  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  ASSERT_EQ(reader->num_frames(), 2u);

  LogManager reopened(env_.get(), "wal.log", SystemParams::TestDefaults(),
                      &meter_, false);
  MMDB_ASSERT_OK(reopened.OpenExisting(reader->base_offset(),
                                        reader->valid_bytes(), 3));
  EXPECT_EQ(reopened.NextLsn(), 3u);
  EXPECT_EQ(reopened.NextOffset(), reader->valid_bytes());
  // The recovered prefix counts as durable.
  EXPECT_EQ(reopened.DurableLsn(0.0), 2u);
  EXPECT_EQ(reopened.WhenDurable(2, 5.0), 5.0);
  // New appends work and survive their own flush.
  LogRecord r = LogRecord::Commit(9);
  EXPECT_EQ(reopened.Append(&r), 3u);
  MMDB_ASSERT_OK(reopened.Flush(0.0));
  MMDB_ASSERT_OK(reopened.Crash(1000.0));
  auto reader2 = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader2);
  EXPECT_EQ(reader2->num_frames(), 3u);
}

TEST_F(LogManagerTest, TruncateBeforeDropsPrefixKeepsOffsets) {
  Open();
  Lsn l1 = Append(1);
  (void)l1;
  MMDB_ASSERT_OK(log_->Flush(0.0));
  uint64_t cut = log_->NextOffset();
  Lsn l2 = Append(2);
  MMDB_ASSERT_OK(log_->Flush(10.0));
  MMDB_ASSERT_OK(log_->Crash(1000.0));  // settle everything into the file

  LogManager reopened(env_.get(), "wal.log", SystemParams::TestDefaults(),
                      &meter_, false);
  MMDB_ASSERT_OK(reopened.OpenExisting(0, log_->NextOffset(), 3));
  auto dropped = reopened.TruncateBefore(cut);
  MMDB_ASSERT_OK(dropped);
  EXPECT_EQ(*dropped, cut);
  EXPECT_EQ(reopened.BaseOffset(), cut);
  // Idempotent / already-truncated cuts are no-ops.
  auto again = reopened.TruncateBefore(cut);
  MMDB_ASSERT_OK(again);
  EXPECT_EQ(*again, 0u);
  // Past-the-end cuts are rejected.
  EXPECT_FALSE(reopened.TruncateBefore(reopened.NextOffset() + 100).ok());

  // The surviving record is still readable at its ORIGINAL offset.
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->base_offset(), cut);
  EXPECT_EQ(reader->num_frames(), 1u);
  EXPECT_EQ(reader->FrameOffset(0), cut);
  auto rec = reader->RecordAtIndex(0);
  MMDB_ASSERT_OK(rec);
  EXPECT_EQ(rec->lsn, l2);
  EXPECT_TRUE(reader->FrameIndexAt(0).status().IsInvalidArgument());
}

TEST_F(LogManagerTest, AppendsAfterTruncationSurvive) {
  Open();
  Append(1);
  MMDB_ASSERT_OK(log_->Flush(0.0));
  uint64_t cut = log_->NextOffset();
  MMDB_ASSERT_OK(log_->TruncateBefore(cut).status());
  Lsn l2 = Append(2);
  MMDB_ASSERT_OK(log_->Flush(100.0));
  MMDB_ASSERT_OK(log_->Crash(10000.0));
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  ASSERT_EQ(reader->num_frames(), 1u);
  EXPECT_EQ(reader->FrameOffset(0), cut);
  auto rec = reader->RecordAtIndex(0);
  MMDB_ASSERT_OK(rec);
  EXPECT_EQ(rec->lsn, l2);
}

// Hand-built logs, written as engine log files (header, base 0) and read
// back through LogReader::Open.
class LogReaderTest : public testing::Test {
 protected:
  // Frames `records` behind the file header; returns each frame's offset.
  std::vector<uint64_t> Append(const std::vector<LogRecord>& records) {
    std::vector<uint64_t> offsets;
    for (LogRecord r : records) {
      r.lsn = next_lsn_++;
      offsets.push_back(frames_.size());
      EncodeLogFrame(r, &frames_);
    }
    return offsets;
  }

  LogReader Read() {
    EXPECT_TRUE(env_->WriteStringToFile("wal.log",
                                        EncodeLogFileHeader(0) + frames_,
                                        /*sync=*/true)
                    .ok());
    auto reader = LogReader::Open(env_.get(), "wal.log");
    EXPECT_TRUE(reader.ok()) << reader.status();
    return reader.ok() ? std::move(*reader) : LogReader();
  }

  std::unique_ptr<Env> env_ = NewMemEnv();
  std::string frames_;
  Lsn next_lsn_ = 1;
};

TEST_F(LogReaderTest, FramesReadInLogOrder) {
  Append({LogRecord::Commit(1), LogRecord::Commit(2), LogRecord::Commit(3)});
  LogReader reader = Read();
  EXPECT_FALSE(reader.truncated_tail());
  std::vector<TxnId> seen;
  for (size_t i = 0; i < reader.num_frames(); ++i) {
    auto r = reader.RecordAtIndex(i);
    MMDB_ASSERT_OK(r);
    seen.push_back(r->txn_id);
  }
  EXPECT_EQ(seen, (std::vector<TxnId>{1, 2, 3}));
}

TEST_F(LogReaderTest, HeaderCarriesEveryFieldButTheBulk) {
  Append({LogRecord::Update(7, 3, std::string(16, 'u')),
          LogRecord::BeginCheckpoint(4, 1000, {{10, kInvalidLsn}}),
          LogRecord::EndCheckpoint(4)});
  LogReader reader = Read();
  ASSERT_EQ(reader.num_frames(), 3u);
  LogRecordHeader h;
  MMDB_ASSERT_OK(reader.HeaderAt(0, &h));
  EXPECT_EQ(h.type, LogRecordType::kUpdate);
  EXPECT_EQ(h.lsn, 1u);
  EXPECT_EQ(h.txn_id, 7u);
  EXPECT_EQ(h.record_id, 3u);
  EXPECT_EQ(h.image_size, 16u);
  MMDB_ASSERT_OK(reader.HeaderAt(1, &h));
  EXPECT_EQ(h.type, LogRecordType::kBeginCheckpoint);
  EXPECT_EQ(h.checkpoint_id, 4u);
  MMDB_ASSERT_OK(reader.HeaderAt(2, &h));
  EXPECT_EQ(h.type, LogRecordType::kEndCheckpoint);
  EXPECT_EQ(h.checkpoint_id, 4u);
}

TEST_F(LogReaderTest, FrameIndexAtSavedOffset) {
  Append({LogRecord::Commit(1)});
  const uint64_t offset =
      Append({LogRecord::BeginCheckpoint(1, 0, {}), LogRecord::Commit(3)})[0];
  LogReader reader = Read();
  auto at = reader.FrameIndexAt(offset);
  MMDB_ASSERT_OK(at);
  EXPECT_EQ(*at, 1u);
  EXPECT_EQ(reader.FrameOffset(*at), offset);
  // Non-boundary offsets are rejected.
  EXPECT_TRUE(reader.FrameIndexAt(offset + 1).status().IsNotFound());
}

TEST_F(LogReaderTest, TornTailStopsCleanly) {
  Append({LogRecord::Commit(1), LogRecord::Commit(2)});
  const uint64_t good = frames_.size();
  Append({LogRecord::Commit(3)});
  frames_.resize(good + 7);  // partial frame
  LogReader reader = Read();
  EXPECT_TRUE(reader.truncated_tail());
  EXPECT_EQ(reader.num_frames(), 2u);
  EXPECT_EQ(reader.valid_bytes(), good);
}

TEST_F(LogReaderTest, FindNewestCompleteCheckpoint) {
  Append({LogRecord::Commit(1)});
  const uint64_t begin1 = Append({LogRecord::BeginCheckpoint(1, 0, {}),
                                  LogRecord::EndCheckpoint(1)})[0];
  const uint64_t begin2 = Append({LogRecord::BeginCheckpoint(2, 0, {}),
                                  LogRecord::EndCheckpoint(2)})[0];
  Append({LogRecord::BeginCheckpoint(3, 0, {})});  // incomplete: no end

  LogReader reader = Read();
  auto marker = reader.FindCheckpointBegin();
  MMDB_ASSERT_OK(marker);
  EXPECT_EQ(marker->checkpoint_id, 2u);
  EXPECT_EQ(marker->begin_offset, begin2);
  EXPECT_EQ(marker->begin_record.type, LogRecordType::kBeginCheckpoint);
  EXPECT_EQ(marker->begin_record.lsn, 4u);
  // By id: the older checkpoint's marker, and an absent one.
  auto older = reader.FindCheckpointBegin(1);
  MMDB_ASSERT_OK(older);
  EXPECT_EQ(older->begin_offset, begin1);
  EXPECT_TRUE(reader.FindCheckpointBegin(7).status().IsNotFound());
}

TEST_F(LogReaderTest, NoCompleteCheckpointIsNotFound) {
  Append({LogRecord::Commit(1), LogRecord::BeginCheckpoint(1, 0, {})});
  EXPECT_TRUE(Read().FindCheckpointBegin().status().IsNotFound());
}

TEST_F(LogReaderTest, EndMarkerWithoutItsBeginIsCorruption) {
  Append({LogRecord::BeginCheckpoint(1, 0, {}), LogRecord::EndCheckpoint(2)});
  EXPECT_TRUE(Read().FindCheckpointBegin().status().IsCorruption());
}

TEST_F(LogReaderTest, ForgedActiveCountIsCorruption) {
  const std::string payload = ForgedBeginMarker();
  PutFixed32(&frames_, static_cast<uint32_t>(payload.size()));
  frames_ += payload;
  PutFixed32(&frames_, crc32c::Mask(crc32c::Value(payload)));
  PutFixed32(&frames_, static_cast<uint32_t>(payload.size()));
  Append({LogRecord::EndCheckpoint(1)});
  LogReader reader = Read();
  ASSERT_EQ(reader.num_frames(), 2u);
  LogRecordHeader h;
  EXPECT_TRUE(reader.HeaderAt(0, &h).IsCorruption());
  EXPECT_TRUE(reader.RecordAtIndex(0).status().IsCorruption());
  EXPECT_TRUE(reader.FindCheckpointBegin().status().IsCorruption());
}

// LogReader::Open against real, then deliberately damaged, engine-written
// log files. The dividing line under test: damage at the END of the file
// (a torn flush) is expected and survivable, while damage in the MIDDLE —
// with intact frames after it — means committed transactions would be
// silently dropped, and must surface as Corruption.
class DamagedLogFileTest : public testing::Test {
 protected:
  // Writes a real log file with three identically-sized commit frames and
  // returns its raw bytes (16-byte file header + 3 frames).
  void WriteLog() {
    env_ = NewMemEnv();
    LogManager log(env_.get(), "wal.log", SystemParams::TestDefaults(),
                   &meter_, /*stable_log_tail=*/false);
    MMDB_ASSERT_OK(log.Open());
    for (TxnId t = 1; t <= 3; ++t) {
      LogRecord r = LogRecord::Commit(t);
      log.Append(&r);
    }
    MMDB_ASSERT_OK(log.Flush(0.0));
    MMDB_ASSERT_OK(env_->ReadFileToString("wal.log", &bytes_));
    frame_bytes_ = (bytes_.size() - kLogFileHeaderBytes) / 3;
    ASSERT_EQ(bytes_.size(), kLogFileHeaderBytes + 3 * frame_bytes_);
  }

  void Rewrite() {
    MMDB_ASSERT_OK(env_->WriteStringToFile("wal.log", bytes_, /*sync=*/true));
  }

  std::unique_ptr<Env> env_;
  CpuMeter meter_;
  std::string bytes_;
  uint64_t frame_bytes_ = 0;
};

TEST_F(DamagedLogFileTest, MissingFileIsNotFound) {
  auto env = NewMemEnv();
  auto reader = LogReader::Open(env.get(), "nope.log");
  EXPECT_TRUE(reader.status().IsNotFound());
}

TEST_F(DamagedLogFileTest, FlippedHeaderBitIsCorruptionNotEmptyLog) {
  WriteLog();
  bytes_[1] ^= 0x08;  // damage the magic number
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
  EXPECT_NE(reader.status().ToString().find("not a log file"),
            std::string::npos);
}

TEST_F(DamagedLogFileTest, UnsupportedVersionIsCorruption) {
  WriteLog();
  bytes_[4] = static_cast<char>(0x7f);  // version field
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
  EXPECT_NE(reader.status().ToString().find("version"), std::string::npos);
}

TEST_F(DamagedLogFileTest, MidLogBitFlipIsCorruptionNotATornTail) {
  WriteLog();
  // Flip one payload bit of the SECOND frame: the first and third frames
  // are intact, so resuming at the last good frame would drop commit 3.
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 6] ^= 0x10;
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(DamagedLogFileTest, OverrunLengthFieldIsCorruption) {
  WriteLog();
  // An absurd length in the second frame's header makes the frame overrun
  // the file; with frame 3 intact after it, this is mid-log damage, not a
  // short final write.
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 0] = static_cast<char>(0xff);
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 1] = static_cast<char>(0xff);
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 2] = static_cast<char>(0xff);
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(DamagedLogFileTest, TruncatedFinalFrameIsASurvivableTornTail) {
  WriteLog();
  bytes_.resize(bytes_.size() - 5);  // tear the last frame
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_TRUE(reader->truncated_tail());
  EXPECT_EQ(reader->num_frames(), 2u);
  EXPECT_EQ(reader->valid_bytes(), 2 * frame_bytes_);
}

TEST_F(DamagedLogFileTest, CorruptTailFrameIsAlsoSurvivable) {
  WriteLog();
  // Damage confined to the LAST frame reads as a torn tail even at full
  // length: nothing valid follows it, so nothing committed is lost beyond
  // the tail itself.
  bytes_[kLogFileHeaderBytes + 2 * frame_bytes_ + 6] ^= 0x10;
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_TRUE(reader->truncated_tail());
  EXPECT_EQ(reader->num_frames(), 2u);
}


// ---------------------------------------------------------------------------
// The reader's outcomes on malformed logs, pinned. One engine-written log
// (updates, commits, an abort, two complete checkpoints and a third whose
// end marker never came) is mutated 512 seeded ways; each mutant's Open
// status, frame count, valid prefix, torn-tail flag, marker search result
// and first undecodable frame are compared line for line with
// tests/testdata/log_mutation_golden.txt. Regenerate only for an intended
// change in what the reader accepts, with
//   MMDB_REGENERATE_GOLDEN=1 ./wal_test --gtest_filter='LogMutationTest.*'
// ---------------------------------------------------------------------------

std::string MutationGoldenPath() {
  return std::string(MMDB_TESTDATA_DIR) + "/log_mutation_golden.txt";
}

// The log every mutant starts from.
std::string EngineWrittenLog() {
  auto env = NewMemEnv();
  EngineOptions opt = TinyOptions();
  opt.dir = "mutants";
  auto engine = Engine::Open(opt, env.get());
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return "";
  Engine* e = engine->get();
  const size_t bytes = e->db().record_bytes();
  auto put = [&](RecordId r, uint64_t marker) {
    MMDB_EXPECT_OK(e->Apply({{r, MakeRecordImage(bytes, r, marker)}}));
  };
  put(0, 1);
  put(70, 1);
  Transaction* t = e->Begin();
  MMDB_EXPECT_OK(e->Write(t, 5, MakeRecordImage(bytes, 5, 9)));
  e->Abort(t);
  MMDB_EXPECT_OK(e->RunCheckpointToCompletion());
  put(130, 2);
  MMDB_EXPECT_OK(e->RunCheckpointToCompletion());
  put(0, 3);
  MMDB_EXPECT_OK(e->StartCheckpoint());  // flushes checkpoint 3's begin
  put(200, 4);
  MMDB_EXPECT_OK(e->FlushLog());
  std::string log;
  MMDB_EXPECT_OK(env->ReadFileToString(e->LogPath(), &log));
  return log;
}

// Frame start offsets (file bytes) of an intact log.
std::vector<size_t> FrameStarts(const std::string& log) {
  std::vector<size_t> starts;
  for (size_t pos = kLogFileHeaderBytes; pos + kLogFrameOverhead <= log.size();
       pos += kLogFrameOverhead + DecodeFixed32(log.data() + pos)) {
    starts.push_back(pos);
  }
  return starts;
}

// Rewrites the frame at `pos` around `payload`, with lengths and a CRC that
// match it.
void Reseal(std::string* log, size_t pos, const std::string& payload) {
  const uint32_t old_len = DecodeFixed32(log->data() + pos);
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  PutFixed32(&frame, crc32c::Mask(crc32c::Value(payload)));
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  log->replace(pos, kLogFrameOverhead + old_len, frame);
}

// Mutant `i` of `base`: a description and the mutated bytes.
std::pair<std::string, std::string> Mutate(const std::string& base,
                                           uint64_t i) {
  Random rnd(0x6d757461 + i);
  std::string log = base;
  const std::vector<size_t> frames = FrameStarts(base);
  const size_t pos = rnd.Uniform(log.size());
  const size_t frame = frames[rnd.Uniform(frames.size())];
  switch (i % 5) {
    case 0: {
      log[pos] = static_cast<char>(log[pos] ^ (1 + rnd.Uniform(255)));
      return {StringPrintf("flip@%zu", pos), log};
    }
    case 1:
      log.resize(pos);
      return {StringPrintf("cut@%zu", pos), log};
    case 2: {
      // The leading or the trailing copy of a frame's length.
      const uint32_t len = DecodeFixed32(log.data() + frame);
      const size_t at = rnd.Uniform(2) == 0 ? frame : frame + 8 + len;
      const uint32_t values[] = {0, len - 1, len + 1, 0xffffffffu,
                                 static_cast<uint32_t>(rnd.Next())};
      const uint32_t v = values[rnd.Uniform(5)];
      EncodeFixed32(log.data() + at, v);
      return {StringPrintf("len@%zu=%u", at, v), log};
    }
    case 3: {
      std::string bytes(1 + rnd.Uniform(8), '\0');
      for (char& c : bytes) c = static_cast<char>(rnd.Uniform(256));
      log.insert(pos, bytes);
      return {StringPrintf("insert@%zu+%zu", pos, bytes.size()), log};
    }
    default: {
      std::string payload =
          log.substr(frame + 4, DecodeFixed32(log.data() + frame));
      const size_t at = rnd.Uniform(payload.size());
      std::string what;
      switch (rnd.Uniform(4)) {
        case 0:
          payload[at] = static_cast<char>(payload[at] ^ (1 + rnd.Uniform(255)));
          what = StringPrintf("flip%zu", at);
          break;
        case 1:
          payload[at] = static_cast<char>(0xff);  // a varint that runs on
          what = StringPrintf("ff%zu", at);
          break;
        case 2: {
          const size_t n = 1 + rnd.Uniform(3);
          payload.append(n, static_cast<char>(rnd.Uniform(128)));
          what = StringPrintf("grow%zu", n);
          break;
        }
        default: {
          const size_t n = 1 + rnd.Uniform(std::min<size_t>(3, payload.size()));
          payload.resize(payload.size() - n);
          what = StringPrintf("shrink%zu", n);
          break;
        }
      }
      Reseal(&log, frame, payload);
      return {StringPrintf("reseal@%zu:%s", frame, what.c_str()), log};
    }
  }
}

std::string CodeOf(const Status& s) {
  return std::string(StatusCodeToString(s.code()));
}

// One golden line: what the reader makes of `log`.
std::string Outcome(const std::string& log) {
  auto env = NewMemEnv();
  EXPECT_TRUE(env->WriteStringToFile("wal.log", log, /*sync=*/true).ok());
  auto reader = LogReader::Open(env.get(), "wal.log");
  if (!reader.ok()) return "open=" + CodeOf(reader.status());
  std::string marker;
  auto m = reader->FindCheckpointBegin();
  if (m.ok()) {
    marker = StringPrintf("%llu@%llu",
                          static_cast<unsigned long long>(m->checkpoint_id),
                          static_cast<unsigned long long>(m->begin_offset));
  } else {
    marker = CodeOf(m.status());
  }
  long long first_bad = -1;
  for (size_t i = 0; i < reader->num_frames(); ++i) {
    LogRecordHeader h;
    const bool full = reader->RecordAtIndex(i).ok();
    // The header decoder accepts exactly the frames the full one does.
    EXPECT_EQ(reader->HeaderAt(i, &h).ok(), full) << "frame " << i;
    if (!full && first_bad < 0) first_bad = static_cast<long long>(i);
  }
  return StringPrintf("open=OK frames=%zu valid=%llu torn=%d marker=%s "
                      "first_bad=%lld",
                      reader->num_frames(),
                      static_cast<unsigned long long>(reader->valid_bytes()),
                      reader->truncated_tail() ? 1 : 0, marker.c_str(),
                      first_bad);
}

TEST(LogMutationTest, OutcomesMatchGolden) {
  const std::string base = EngineWrittenLog();
  ASSERT_FALSE(base.empty());
  std::string text = StringPrintf("base bytes=%zu crc=%08x frames=%zu %s\n",
                                  base.size(), crc32c::Value(base),
                                  FrameStarts(base).size(),
                                  Outcome(base).c_str());
  for (uint64_t i = 0; i < 512; ++i) {
    auto [what, log] = Mutate(base, i);
    text += StringPrintf("%llu %s %s\n", static_cast<unsigned long long>(i),
                         what.c_str(), Outcome(log).c_str());
  }
  if (std::getenv("MMDB_REGENERATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(MutationGoldenPath().c_str(), "wb");
    ASSERT_NE(f, nullptr) << MutationGoldenPath();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "golden regenerated at " << MutationGoldenPath();
  }
  std::string golden;
  if (std::FILE* f = std::fopen(MutationGoldenPath().c_str(), "rb")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) golden.append(buf, n);
    std::fclose(f);
  }
  // Line by line, so a drift names the mutant.
  std::istringstream want(golden), got(text);
  for (int line = 1; want.good() || got.good(); ++line) {
    std::string w, g;
    std::getline(want, w);
    std::getline(got, g);
    ASSERT_EQ(g, w) << "line " << line << " of " << MutationGoldenPath()
                    << "; regenerate with MMDB_REGENERATE_GOLDEN=1 only for "
                       "an intended change in what the reader accepts";
  }
}

}  // namespace
}  // namespace mmdb

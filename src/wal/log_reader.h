#ifndef MMDB_WAL_LOG_READER_H_
#define MMDB_WAL_LOG_READER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "env/env.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace mmdb {

// Read-side of the log format (see EncodeLogFrame). The reader indexes every
// well-formed frame on construction; a torn or corrupt tail — the normal
// result of crashing mid-flush — simply ends the log at the last good frame
// (LevelDB-style), which `truncated_tail()` reports.
//
// A bad frame followed by intact frames is a different story: the damage is
// mid-log (a bit flip, an overlong length field), and stopping quietly at
// the last good frame would silently drop committed transactions. That case
// is reported as Corruption through status() — and by Open(), which also
// rejects a file whose magic/version header is unreadable.
//
// Frames carry a trailing length copy, so the reader also supports the
// paper's *backward* scan used at recovery to locate the begin-checkpoint
// marker of the most recent complete checkpoint (Section 3.3).
class LogReader {
 public:
  // Takes ownership of raw log bytes. If they begin with the log-file
  // header (see kLogFileMagic), its base offset is honored; headerless
  // byte strings (tests, hand-built logs) read with base 0. Check status()
  // for mid-log corruption.
  explicit LogReader(std::string contents);

  // Reads `path` via `env` and wraps it. NOT_FOUND if the file does not
  // exist; CORRUPTION if it lacks a valid log-file header (bad magic,
  // unsupported version, bit-flipped header) or has mid-log damage.
  static StatusOr<LogReader> Open(Env* env, const std::string& path);

  // OK, or Corruption when frames were damaged mid-log (intact frames
  // exist past the first bad one, so this is not a torn tail).
  const Status& status() const { return status_; }

  // Logical offset of the oldest frame retained (> 0 after truncation).
  uint64_t base_offset() const { return base_offset_; }

  size_t num_records() const { return index_.size(); }
  bool truncated_tail() const { return truncated_tail_; }
  // Logical end offset of the well-formed prefix (base included).
  uint64_t valid_bytes() const { return valid_bytes_; }

  // Decodes the record whose frame starts at byte `offset`.
  StatusOr<LogRecord> RecordAt(uint64_t offset) const;

  // Frame-granular access for the recovery scan and per-segment replay.
  // The reader is immutable after construction, so const access is
  // thread-safe.
  //
  // num_frames() aliases num_records(); frames are addressed by index in
  // log order.
  size_t num_frames() const { return index_.size(); }

  // Logical offset (base included) of frame `i`. i < num_frames().
  uint64_t FrameOffset(size_t i) const { return base_offset_ + index_[i].offset; }

  // Index of the frame starting at logical byte `offset`, or
  // INVALID_ARGUMENT / NOT_FOUND when `offset` is not a frame boundary —
  // how recovery converts a checkpoint marker's saved offset into a replay
  // range.
  StatusOr<size_t> FrameIndexAt(uint64_t offset) const;

  // Shallow header decode of frame `i` (no after-image copy) — the
  // classification scan's fast path.
  Status HeaderAt(size_t i, LogRecordHeader* out) const;

  // Full decode of frame `i`.
  StatusOr<LogRecord> RecordAtIndex(size_t i) const;

  // Invokes `fn(record, frame_offset)` for each record from the frame at
  // `from_offset` (which must be a frame boundary, typically 0 or an offset
  // saved in checkpoint metadata) to the end. `fn` returns false to stop.
  Status ScanForward(
      uint64_t from_offset,
      const std::function<bool(const LogRecord&, uint64_t)>& fn) const;

  // Same, newest-to-oldest over the whole log.
  Status ScanBackward(
      const std::function<bool(const LogRecord&, uint64_t)>& fn) const;

  // Position of the begin-checkpoint marker of the last *complete*
  // checkpoint: scans backward for the newest end-checkpoint record, then
  // for the matching begin marker. Mirrors the paper's rule of skipping a
  // begin marker with no completion (an in-progress checkpoint at crash
  // time). Returns NOT_FOUND if no checkpoint ever completed.
  struct CheckpointMarker {
    CheckpointId checkpoint_id;
    uint64_t begin_offset;
    LogRecord begin_record;
  };
  StatusOr<CheckpointMarker> FindLastCompleteCheckpoint() const;

 private:
  struct FrameRef {
    uint64_t offset;        // of the frame start
    uint32_t payload_size;  // bytes
  };

  void BuildIndex();
  // Whether any well-formed frame starts after byte `pos` (used to tell a
  // torn tail from mid-log corruption).
  bool AnyValidFrameAfter(uint64_t pos) const;

  std::string contents_;   // frames only (file header stripped)
  std::vector<FrameRef> index_;
  uint64_t base_offset_ = 0;
  bool truncated_tail_ = false;
  uint64_t valid_bytes_ = 0;
  Status status_;
};

}  // namespace mmdb

#endif  // MMDB_WAL_LOG_READER_H_

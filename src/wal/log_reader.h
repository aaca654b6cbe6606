#ifndef MMDB_WAL_LOG_READER_H_
#define MMDB_WAL_LOG_READER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "env/env.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace mmdb {

// Read side of the log file (see EncodeLogFrame and kLogFileMagic), and the
// only code that parses one. Open indexes every well-formed frame; a torn
// or corrupt tail — the normal result of crashing mid-flush — simply ends
// the log at the last good frame (LevelDB-style), which `truncated_tail()`
// reports. A bad frame followed by intact frames is mid-log damage (a bit
// flip, an overlong length field): stopping quietly at the last good frame
// would drop committed transactions, so Open reports it as Corruption.
//
// Frames are addressed by index in log order. HeaderAt accepts exactly the
// frames RecordAtIndex does without copying an after-image, so callers walk
// headers and fully decode only the frames they apply or return. The
// reader is immutable once open, so const access is thread-safe.
class LogReader {
 public:
  // An empty log: no frames, base 0.
  LogReader() = default;

  // Reads `path` via `env` and indexes it. NOT_FOUND if the file does not
  // exist; CORRUPTION if it lacks a valid log-file header (bad magic,
  // unsupported version, bit-flipped header) or has mid-log damage.
  static StatusOr<LogReader> Open(Env* env, const std::string& path);

  // Logical offset of the oldest frame retained (> 0 after truncation).
  uint64_t base_offset() const { return base_offset_; }
  bool truncated_tail() const { return truncated_tail_; }
  // Logical end offset of the well-formed prefix (base included).
  uint64_t valid_bytes() const { return valid_bytes_; }

  size_t num_frames() const { return index_.size(); }

  // Logical offset (base included) of frame `i`. i < num_frames().
  uint64_t FrameOffset(size_t i) const { return base_offset_ + index_[i].offset; }

  // Index of the frame starting at logical byte `offset`: INVALID_ARGUMENT
  // if `offset` precedes the base (truncated away), NOT_FOUND if no frame
  // starts there. How a checkpoint marker's saved offset becomes a replay
  // range.
  StatusOr<size_t> FrameIndexAt(uint64_t offset) const;

  // Header decode of frame `i` (no after-image copy). i < num_frames().
  Status HeaderAt(size_t i, LogRecordHeader* out) const;

  // Full decode of frame `i`. i < num_frames().
  StatusOr<LogRecord> RecordAtIndex(size_t i) const;

  struct CheckpointMarker {
    CheckpointId checkpoint_id;
    uint64_t begin_offset;
    LogRecord begin_record;
  };
  // The paper's backward scan for a begin-checkpoint marker (Section 3.3),
  // over headers from the newest frame; only the marker it returns is
  // decoded in full. It returns the marker of the newest complete
  // checkpoint (its end marker is in the log), skipping a begin marker
  // with no completion (a checkpoint in progress at crash time). With
  // `older_than`: the newest complete checkpoint with a smaller id written
  // to the other backup copy (ids alternate copies, BackupStore::CopyFor),
  // the one the older-copy fallback restores. NOT_FOUND if there is no
  // such checkpoint; CORRUPTION if its end marker has no begin marker or
  // a frame on the way does not decode.
  StatusOr<CheckpointMarker> FindCheckpointBegin(
      std::optional<CheckpointId> older_than = std::nullopt) const;

 private:
  struct FrameRef {
    uint64_t offset;        // of the frame start
    uint32_t payload_size;  // bytes
  };

  Status BuildIndex();
  std::string_view Payload(size_t i) const {
    return std::string_view(contents_.data() + index_[i].offset + 4,
                            index_[i].payload_size);
  }

  std::string contents_;  // frames only (file header stripped)
  std::vector<FrameRef> index_;
  uint64_t base_offset_ = 0;
  bool truncated_tail_ = false;
  uint64_t valid_bytes_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_WAL_LOG_READER_H_

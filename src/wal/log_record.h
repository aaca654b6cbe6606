#ifndef MMDB_WAL_LOG_RECORD_H_
#define MMDB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/types.h"

namespace mmdb {

class JsonWriter;

// REDO-only log record kinds (Section 2.6: shadow-copy updates make UNDO
// logging unnecessary — old versions are never overwritten before commit).
enum class LogRecordType : uint8_t {
  kUpdate = 1,           // after-image of one record (physical logging)
  kCommit = 2,           // transaction committed
  kAbort = 3,            // transaction aborted (accounting only; never redone)
  kBeginCheckpoint = 4,  // checkpoint begin marker + active transaction list
  kEndCheckpoint = 5,    // checkpoint completion marker
  // Logical (operation) logging: an 8-byte signed addition at an offset
  // within a record — a fraction of an after-image's bytes, but NOT
  // idempotent, so it is legal only with checkpoints whose backup is an
  // exact snapshot at the replay start point (the COU algorithms). The
  // paper notes this logging style as an advantage of consistent backups
  // (Section 3.2).
  kDelta = 6,
};

// Canonical record-type names, shared by every formatter that renders log
// records (DebugString, `mmdb_log_dump --json`, and the tracer's JSON
// emitter) so the spellings cannot drift apart. Inline so header-only
// users (the obs layer) need no link-time dependency on mmdb_wal.
inline std::string_view LogRecordTypeName(LogRecordType type) {
  switch (type) {
    case LogRecordType::kUpdate:
      return "UPDATE";
    case LogRecordType::kCommit:
      return "COMMIT";
    case LogRecordType::kAbort:
      return "ABORT";
    case LogRecordType::kBeginCheckpoint:
      return "BEGIN_CKPT";
    case LogRecordType::kEndCheckpoint:
      return "END_CKPT";
    case LogRecordType::kDelta:
      return "DELTA";
  }
  return "INVALID";
}

// One entry in a begin-checkpoint marker's active-transaction list. For
// fuzzy checkpoints, recovery must scan back to the earliest active
// transaction's first log record (Section 3.3); `first_lsn` is kInvalidLsn
// when the transaction has not logged anything yet (always the case under
// commit-time logging, where a transaction's records are emitted as one
// contiguous group at commit).
struct ActiveTxnEntry {
  TxnId txn_id = kInvalidTxnId;
  Lsn first_lsn = kInvalidLsn;

  friend bool operator==(const ActiveTxnEntry&, const ActiveTxnEntry&) =
      default;
};

// Shallow view of a record payload: every field but the bulk ones (an
// update's after-image, a delta's amount, a begin marker's tau and active
// list) — enough for recovery's classification scan (commit set, segment
// bucketing, max lsn, malformed-record checks) and its marker search
// without copying an after-image. The bulk fields are walked, not stored,
// by the same parser as LogRecord::DecodeFrom, so a frame whose header
// decodes always decodes in full, whatever its kind.
struct LogRecordHeader {
  LogRecordType type = LogRecordType::kUpdate;
  Lsn lsn = kInvalidLsn;
  TxnId txn_id = kInvalidTxnId;
  RecordId record_id = 0;      // kUpdate / kDelta only; 0 otherwise
  uint64_t image_size = 0;     // kUpdate: after-image length
  uint32_t field_offset = 0;   // kDelta: byte offset of the 8-byte field
  CheckpointId checkpoint_id = 0;  // kBeginCheckpoint / kEndCheckpoint

  // Parses a payload produced by LogRecord::EncodeTo. Returns CORRUPTION
  // exactly when LogRecord::DecodeFrom would.
  static Status DecodeFrom(std::string_view payload, LogRecordHeader* out);
};

// In-memory form of a log record. Only the fields relevant to `type` are
// meaningful; the encoder writes exactly those.
struct LogRecord {
  LogRecordType type = LogRecordType::kUpdate;
  Lsn lsn = kInvalidLsn;  // assigned by LogManager::Append
  TxnId txn_id = kInvalidTxnId;

  // kUpdate / kDelta:
  RecordId record_id = 0;
  std::string image;       // kUpdate: after-image, record_bytes long
  uint32_t field_offset = 0;  // kDelta: byte offset of the 8-byte field
  int64_t delta = 0;          // kDelta: signed amount added to the field

  // kBeginCheckpoint / kEndCheckpoint:
  CheckpointId checkpoint_id = 0;
  Timestamp timestamp = 0;                    // tau(CH) for COU checkpoints
  std::vector<ActiveTxnEntry> active_txns;    // kBeginCheckpoint only

  static LogRecord Update(TxnId txn, RecordId record, std::string image);
  static LogRecord Delta(TxnId txn, RecordId record, uint32_t field_offset,
                         int64_t delta);
  static LogRecord Commit(TxnId txn);
  static LogRecord Abort(TxnId txn);
  static LogRecord BeginCheckpoint(CheckpointId id, Timestamp tau,
                                   std::vector<ActiveTxnEntry> active);
  static LogRecord EndCheckpoint(CheckpointId id);

  // Serializes the record payload (without framing) onto *dst.
  void EncodeTo(std::string* dst) const;

  // Parses a payload produced by EncodeTo. Returns CORRUPTION on malformed
  // input.
  static Status DecodeFrom(std::string_view payload, LogRecord* out);

  // Payload size in bytes once encoded. Computed arithmetically (no
  // encoding pass), so it is cheap enough for the append hot path to
  // pre-reserve frames with.
  size_t EncodedSize() const;

  std::string DebugString() const;

  // Emits this record as one JSON object (type name, lsn, and the fields
  // meaningful for `type`) — the formatter behind `mmdb_log_dump --json`.
  void AppendJsonTo(JsonWriter* writer) const;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

}  // namespace mmdb

#endif  // MMDB_WAL_LOG_RECORD_H_

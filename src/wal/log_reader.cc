#include "wal/log_reader.h"

#include <algorithm>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/string_util.h"
#include "wal/log_manager.h"

namespace mmdb {

namespace {

// Payload size of the well-formed frame starting at byte `pos` of
// `frames`, if one does: the one frame check. Inline because the index
// calls it once per frame; out of line it made Open 40% slower.
inline std::optional<uint32_t> ValidFrameAt(std::string_view frames,
                                            uint64_t pos) {
  if (pos + kLogFrameOverhead > frames.size()) return std::nullopt;
  const uint32_t len = DecodeFixed32(frames.data() + pos);
  if (len > frames.size() - pos - kLogFrameOverhead) return std::nullopt;
  // Cheap filter first (the trailing length copy), CRC last.
  const char* trailer = frames.data() + pos + 4 + len;
  if (DecodeFixed32(trailer + 4) != len ||
      crc32c::Unmask(DecodeFixed32(trailer)) !=
          crc32c::Value(frames.data() + pos + 4, len)) {
    return std::nullopt;
  }
  return len;
}

}  // namespace

StatusOr<LogReader> LogReader::Open(Env* env, const std::string& path) {
  if (!env->FileExists(path)) {
    return NotFoundError("no log file at '" + path + "'");
  }
  LogReader reader;
  std::string& contents = reader.contents_;
  MMDB_RETURN_IF_ERROR(env->ReadFileToString(path, &contents));
  // Engine-written log files always begin with the fixed header; anything
  // else (including a bit flip within the header, which would otherwise
  // silently read as an empty base-0 log) is corruption.
  if (contents.size() < kLogFileHeaderBytes ||
      DecodeFixed32(contents.data()) != kLogFileMagic) {
    return CorruptionError("'" + path +
                           "' is not a log file (bad or missing header)");
  }
  uint32_t version = DecodeFixed32(contents.data() + 4);
  if (version != kLogFileVersion) {
    return CorruptionError(
        StringPrintf("'%s' has unsupported log version %u", path.c_str(),
                     version));
  }
  reader.base_offset_ = DecodeFixed64(contents.data() + 8);
  contents.erase(0, kLogFileHeaderBytes);
  MMDB_RETURN_IF_ERROR(reader.BuildIndex());
  return reader;
}

Status LogReader::BuildIndex() {
  uint64_t pos = 0;
  while (std::optional<uint32_t> len = ValidFrameAt(contents_, pos)) {
    index_.push_back(FrameRef{pos, *len});
    pos += kLogFrameOverhead + *len;
  }
  truncated_tail_ = pos < contents_.size();
  valid_bytes_ = base_offset_ + pos;
  for (uint64_t q = pos + 1; q < contents_.size(); ++q) {
    if (!ValidFrameAt(contents_, q)) continue;
    // Intact frames past the bad one: the log was damaged in place, not
    // torn at the end. Resuming quietly at the last good frame would drop
    // the committed transactions between here and those frames.
    return CorruptionError(StringPrintf(
        "log frame at offset %llu is corrupt but later frames are intact",
        static_cast<unsigned long long>(valid_bytes_)));
  }
  return Status::OK();
}

StatusOr<size_t> LogReader::FrameIndexAt(uint64_t offset) const {
  if (offset < base_offset_) {
    return InvalidArgumentError(
        "offset precedes the log's base (truncated away)");
  }
  auto it = std::lower_bound(
      index_.begin(), index_.end(), offset - base_offset_,
      [](const FrameRef& f, uint64_t off) { return f.offset < off; });
  if (it == index_.end() || it->offset != offset - base_offset_) {
    return NotFoundError(
        StringPrintf("no log frame at offset %llu",
                     static_cast<unsigned long long>(offset)));
  }
  return static_cast<size_t>(it - index_.begin());
}

Status LogReader::HeaderAt(size_t i, LogRecordHeader* out) const {
  return LogRecordHeader::DecodeFrom(Payload(i), out);
}

StatusOr<LogRecord> LogReader::RecordAtIndex(size_t i) const {
  LogRecord record;
  MMDB_RETURN_IF_ERROR(LogRecord::DecodeFrom(Payload(i), &record));
  return record;
}

StatusOr<LogReader::CheckpointMarker> LogReader::FindCheckpointBegin(
    std::optional<CheckpointId> id) const {
  const bool newest_complete = !id.has_value();
  for (size_t i = index_.size(); i-- > 0;) {
    LogRecordHeader h;
    MMDB_RETURN_IF_ERROR(HeaderAt(i, &h));
    if (!id.has_value()) {
      if (h.type == LogRecordType::kEndCheckpoint) id = h.checkpoint_id;
    } else if (h.type == LogRecordType::kBeginCheckpoint &&
               h.checkpoint_id == *id) {
      MMDB_ASSIGN_OR_RETURN(LogRecord begin, RecordAtIndex(i));
      return CheckpointMarker{*id, FrameOffset(i), std::move(begin)};
    }
  }
  if (!id.has_value()) {
    return NotFoundError("no completed checkpoint in the log");
  }
  const std::string what =
      StringPrintf("no begin marker for checkpoint %llu in the log",
                   static_cast<unsigned long long>(*id));
  // A completion marker without its begin marker is damage.
  return newest_complete ? CorruptionError(what) : NotFoundError(what);
}

}  // namespace mmdb

#include "wal/log_reader.h"

#include <algorithm>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/string_util.h"
#include "wal/log_manager.h"

namespace mmdb {

LogReader::LogReader(std::string contents) : contents_(std::move(contents)) {
  if (contents_.size() >= kLogFileHeaderBytes &&
      DecodeFixed32(contents_.data()) == kLogFileMagic) {
    base_offset_ = DecodeFixed64(contents_.data() + 8);
    contents_.erase(0, kLogFileHeaderBytes);
  }
  BuildIndex();
}

StatusOr<LogReader> LogReader::Open(Env* env, const std::string& path) {
  if (!env->FileExists(path)) {
    return NotFoundError("no log file at '" + path + "'");
  }
  std::string contents;
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
  LogReader reader(std::move(contents));
  MMDB_RETURN_IF_ERROR(reader.status());
  return reader;
}

void LogReader::BuildIndex() {
  uint64_t pos = 0;
  const uint64_t size = contents_.size();
  while (pos + kLogFrameOverhead <= size) {
    uint32_t len = DecodeFixed32(contents_.data() + pos);
    uint64_t frame_end = pos + 4 + len + 8;
    if (frame_end > size) {
      truncated_tail_ = true;
      break;
    }
    const char* payload = contents_.data() + pos + 4;
    uint32_t stored_crc =
        crc32c::Unmask(DecodeFixed32(contents_.data() + pos + 4 + len));
    uint32_t trailer_len = DecodeFixed32(contents_.data() + pos + 4 + len + 4);
    if (trailer_len != len || crc32c::Value(payload, len) != stored_crc) {
      truncated_tail_ = true;
      break;
    }
    index_.push_back(FrameRef{pos, len});
    pos = frame_end;
  }
  if (pos < size && !truncated_tail_) truncated_tail_ = true;
  valid_bytes_ = base_offset_ + (pos <= size ? pos : size);
  if (!index_.empty()) {
    valid_bytes_ = base_offset_ + index_.back().offset + 4 +
                   index_.back().payload_size + 8;
  }
  if (truncated_tail_ && AnyValidFrameAfter(pos)) {
    // Intact frames past the bad one: the log was damaged in place, not
    // torn at the end. Resuming quietly at the last good frame would drop
    // the committed transactions between here and those frames.
    status_ = CorruptionError(StringPrintf(
        "log frame at offset %llu is corrupt but later frames are intact",
        static_cast<unsigned long long>(base_offset_ + pos)));
  }
}

bool LogReader::AnyValidFrameAfter(uint64_t pos) const {
  const uint64_t size = contents_.size();
  for (uint64_t q = pos + 1; q + kLogFrameOverhead <= size; ++q) {
    uint32_t len = DecodeFixed32(contents_.data() + q);
    uint64_t frame_end = q + 4 + len + 8;
    if (frame_end > size) continue;
    // Cheap filters first (trailer length copy), CRC last.
    if (DecodeFixed32(contents_.data() + q + 4 + len + 4) != len) continue;
    uint32_t stored_crc =
        crc32c::Unmask(DecodeFixed32(contents_.data() + q + 4 + len));
    if (crc32c::Value(contents_.data() + q + 4, len) != stored_crc) continue;
    return true;
  }
  return false;
}

StatusOr<LogRecord> LogReader::RecordAt(uint64_t offset) const {
  if (offset < base_offset_) {
    return NotFoundError("offset precedes the log's base (truncated)");
  }
  offset -= base_offset_;
  auto it = std::lower_bound(
      index_.begin(), index_.end(), offset,
      [](const FrameRef& f, uint64_t off) { return f.offset < off; });
  if (it == index_.end() || it->offset != offset) {
    return NotFoundError(
        StringPrintf("no log frame at offset %llu",
                     static_cast<unsigned long long>(offset)));
  }
  LogRecord record;
  MMDB_RETURN_IF_ERROR(LogRecord::DecodeFrom(
      std::string_view(contents_.data() + it->offset + 4, it->payload_size),
      &record));
  return record;
}

StatusOr<size_t> LogReader::FrameIndexAt(uint64_t offset) const {
  if (offset < base_offset_) {
    return InvalidArgumentError(
        "offset precedes the log's base (truncated away)");
  }
  offset -= base_offset_;
  auto it = std::lower_bound(
      index_.begin(), index_.end(), offset,
      [](const FrameRef& f, uint64_t off) { return f.offset < off; });
  if (it == index_.end() || it->offset != offset) {
    return NotFoundError(
        StringPrintf("no log frame at offset %llu",
                     static_cast<unsigned long long>(base_offset_ + offset)));
  }
  return static_cast<size_t>(it - index_.begin());
}

Status LogReader::HeaderAt(size_t i, LogRecordHeader* out) const {
  const FrameRef& f = index_[i];
  return LogRecordHeader::DecodeFrom(
      std::string_view(contents_.data() + f.offset + 4, f.payload_size), out);
}

StatusOr<LogRecord> LogReader::RecordAtIndex(size_t i) const {
  const FrameRef& f = index_[i];
  LogRecord record;
  MMDB_RETURN_IF_ERROR(LogRecord::DecodeFrom(
      std::string_view(contents_.data() + f.offset + 4, f.payload_size),
      &record));
  return record;
}

Status LogReader::ScanForward(
    uint64_t from_offset,
    const std::function<bool(const LogRecord&, uint64_t)>& fn) const {
  if (from_offset < base_offset_) {
    return InvalidArgumentError(
        "scan start precedes the log's base (truncated away)");
  }
  from_offset -= base_offset_;
  auto it = std::lower_bound(
      index_.begin(), index_.end(), from_offset,
      [](const FrameRef& f, uint64_t off) { return f.offset < off; });
  if (it != index_.end() && it->offset != from_offset) {
    return InvalidArgumentError("from_offset is not a frame boundary");
  }
  for (; it != index_.end(); ++it) {
    LogRecord record;
    MMDB_RETURN_IF_ERROR(LogRecord::DecodeFrom(
        std::string_view(contents_.data() + it->offset + 4, it->payload_size),
        &record));
    if (!fn(record, base_offset_ + it->offset)) break;
  }
  return Status::OK();
}

Status LogReader::ScanBackward(
    const std::function<bool(const LogRecord&, uint64_t)>& fn) const {
  for (auto it = index_.rbegin(); it != index_.rend(); ++it) {
    LogRecord record;
    MMDB_RETURN_IF_ERROR(LogRecord::DecodeFrom(
        std::string_view(contents_.data() + it->offset + 4, it->payload_size),
        &record));
    if (!fn(record, base_offset_ + it->offset)) break;
  }
  return Status::OK();
}

StatusOr<LogReader::CheckpointMarker> LogReader::FindLastCompleteCheckpoint()
    const {
  bool found_end = false;
  CheckpointId end_id = 0;
  bool found_begin = false;
  CheckpointMarker marker;
  Status scan = ScanBackward([&](const LogRecord& r, uint64_t offset) {
    if (!found_end) {
      if (r.type == LogRecordType::kEndCheckpoint) {
        found_end = true;
        end_id = r.checkpoint_id;
      }
      return true;  // keep scanning
    }
    if (r.type == LogRecordType::kBeginCheckpoint &&
        r.checkpoint_id == end_id) {
      marker = CheckpointMarker{end_id, offset, r};
      found_begin = true;
      return false;
    }
    return true;
  });
  MMDB_RETURN_IF_ERROR(scan);
  if (!found_end) return NotFoundError("no completed checkpoint in the log");
  if (!found_begin) {
    return CorruptionError(StringPrintf(
        "end-checkpoint %llu has no begin marker",
        static_cast<unsigned long long>(end_id)));
  }
  return marker;
}

}  // namespace mmdb

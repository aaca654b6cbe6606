#include "tools/inspect.h"

#include <unordered_set>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/json.h"
#include "util/string_util.h"
#include "wal/log_reader.h"

namespace mmdb {

std::string LogSummary::ToString() const {
  std::string out = StringPrintf(
      "log: base=%llu valid_bytes=%llu%s\n"
      "records: %llu total | %llu updates, %llu commits, %llu aborts, "
      "%llu begin-ckpt, %llu end-ckpt | %llu distinct txns\n",
      static_cast<unsigned long long>(base_offset),
      static_cast<unsigned long long>(valid_bytes),
      torn_tail ? " (torn tail)" : "",
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(updates),
      static_cast<unsigned long long>(commits),
      static_cast<unsigned long long>(aborts),
      static_cast<unsigned long long>(begin_markers),
      static_cast<unsigned long long>(end_markers),
      static_cast<unsigned long long>(distinct_txns));
  for (const CheckpointSpan& c : checkpoints) {
    out += StringPrintf("checkpoint %llu: begin@%llu %s\n",
                        static_cast<unsigned long long>(c.id),
                        static_cast<unsigned long long>(c.begin_offset),
                        c.complete ? "complete" : "IN PROGRESS at crash");
  }
  return out;
}

StatusOr<LogSummary> SummarizeLog(Env* env, const std::string& log_path) {
  MMDB_ASSIGN_OR_RETURN(LogReader reader, LogReader::Open(env, log_path));
  LogSummary summary;
  summary.base_offset = reader.base_offset();
  summary.valid_bytes = reader.valid_bytes();
  summary.torn_tail = reader.truncated_tail();

  std::unordered_set<TxnId> txns;
  for (size_t i = 0; i < reader.num_frames(); ++i) {
    LogRecordHeader h;
    MMDB_RETURN_IF_ERROR(reader.HeaderAt(i, &h));
    ++summary.records;
    switch (h.type) {
      case LogRecordType::kUpdate:
      case LogRecordType::kDelta:
        ++summary.updates;
        txns.insert(h.txn_id);
        break;
      case LogRecordType::kCommit:
        ++summary.commits;
        txns.insert(h.txn_id);
        break;
      case LogRecordType::kAbort:
        ++summary.aborts;
        txns.insert(h.txn_id);
        break;
      case LogRecordType::kBeginCheckpoint:
        ++summary.begin_markers;
        summary.checkpoints.push_back(LogSummary::CheckpointSpan{
            h.checkpoint_id, reader.FrameOffset(i), false});
        break;
      case LogRecordType::kEndCheckpoint:
        ++summary.end_markers;
        for (auto& span : summary.checkpoints) {
          if (span.id == h.checkpoint_id) span.complete = true;
        }
        break;
    }
  }
  summary.distinct_txns = txns.size();
  return summary;
}

namespace {

// The frame a dump starts at: the one at `from_offset`, or the first
// frame when `from_offset` lies at or below the base.
StatusOr<size_t> DumpStart(const LogReader& reader, uint64_t from_offset) {
  if (from_offset <= reader.base_offset()) return size_t{0};
  return reader.FrameIndexAt(from_offset);
}

}  // namespace

StatusOr<uint64_t> DumpLog(Env* env, const std::string& log_path,
                           uint64_t from_offset, std::FILE* out) {
  MMDB_ASSIGN_OR_RETURN(LogReader reader, LogReader::Open(env, log_path));
  MMDB_ASSIGN_OR_RETURN(size_t begin, DumpStart(reader, from_offset));
  uint64_t printed = 0;
  for (size_t i = begin; i < reader.num_frames(); ++i) {
    MMDB_ASSIGN_OR_RETURN(LogRecord r, reader.RecordAtIndex(i));
    std::fprintf(out, "%10llu  %s\n",
                 static_cast<unsigned long long>(reader.FrameOffset(i)),
                 r.DebugString().c_str());
    ++printed;
  }
  if (reader.truncated_tail()) {
    std::fprintf(out, "%10llu  <torn tail>\n",
                 static_cast<unsigned long long>(reader.valid_bytes()));
  }
  return printed;
}

StatusOr<uint64_t> DumpLogJson(Env* env, const std::string& log_path,
                               uint64_t from_offset, std::string* out) {
  MMDB_ASSIGN_OR_RETURN(LogReader reader, LogReader::Open(env, log_path));
  MMDB_ASSIGN_OR_RETURN(size_t begin, DumpStart(reader, from_offset));
  JsonWriter w;
  w.BeginObject();
  w.Key("base_offset");
  w.Uint(reader.base_offset());
  w.Key("valid_bytes");
  w.Uint(reader.valid_bytes());
  w.Key("torn_tail");
  w.Bool(reader.truncated_tail());
  w.Key("records");
  w.BeginArray();
  uint64_t emitted = 0;
  for (size_t i = begin; i < reader.num_frames(); ++i) {
    MMDB_ASSIGN_OR_RETURN(LogRecord r, reader.RecordAtIndex(i));
    w.BeginObject();
    w.Key("offset");
    w.Uint(reader.FrameOffset(i));
    w.Key("record");
    r.AppendJsonTo(&w);
    w.EndObject();
    ++emitted;
  }
  w.EndArray();
  w.EndObject();
  out->append(w.TakeString());
  return emitted;
}

std::string BackupSummary::ToString() const {
  std::string out = StringPrintf(
      "geometry: %llu words, %u-word segments, %u-word records "
      "(%llu segments)\n",
      static_cast<unsigned long long>(geometry.db_words),
      geometry.segment_words, geometry.record_words,
      static_cast<unsigned long long>(geometry.num_segments()));
  if (has_meta) {
    out += StringPrintf(
        "last complete checkpoint: id=%llu copy=%u begin-marker@%llu "
        "(lsn %llu)\n",
        static_cast<unsigned long long>(meta.checkpoint_id), meta.copy,
        static_cast<unsigned long long>(meta.log_offset),
        static_cast<unsigned long long>(meta.begin_lsn));
  } else {
    out += "no completed checkpoint recorded\n";
  }
  for (uint32_t c = 0; c < 2; ++c) {
    if (!copies[c].present) {
      out += StringPrintf("copy %u: missing\n", c);
      continue;
    }
    out += StringPrintf("copy %u: %llu segments ok, %llu corrupt", c,
                        static_cast<unsigned long long>(
                            copies[c].valid_segments),
                        static_cast<unsigned long long>(
                            copies[c].corrupt_segments));
    if (!copies[c].corrupt_examples.empty()) {
      out += " (e.g.";
      for (SegmentId s : copies[c].corrupt_examples) {
        out += StringPrintf(" %llu", static_cast<unsigned long long>(s));
      }
      out += ")";
    }
    out += "\n";
  }
  return out;
}

StatusOr<BackupSummary> InspectBackup(Env* env, const std::string& dir) {
  BackupSummary summary;
  const std::string copy0 = dir + "/backup_0.db";
  if (!env->FileExists(copy0)) {
    return NotFoundError("no backup copies under '" + dir + "'");
  }
  MMDB_ASSIGN_OR_RETURN(summary.geometry,
                        BackupStore::ReadGeometry(env, copy0));

  // Metadata (optional: absent before the first checkpoint completes).
  const std::string meta_path = dir + "/CHECKPOINT";
  if (env->FileExists(meta_path)) {
    std::string contents;
    MMDB_RETURN_IF_ERROR(env->ReadFileToString(meta_path, &contents));
    MMDB_RETURN_IF_ERROR(CheckpointMeta::DecodeFrom(contents, &summary.meta));
    summary.has_meta = true;
  }

  for (uint32_t c = 0; c < 2; ++c) {
    const std::string path = dir + "/backup_" + std::to_string(c) + ".db";
    if (!env->FileExists(path)) continue;
    summary.copies[c].present = true;
    MMDB_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                          env->NewRandomAccessFile(path));
    std::string image, crc_bytes;
    for (SegmentId s = 0; s < summary.geometry.num_segments(); ++s) {
      MMDB_RETURN_IF_ERROR(
          file->Read(BackupStore::SlotOffsetFor(summary.geometry, s),
                     summary.geometry.segment_bytes(), &image));
      MMDB_RETURN_IF_ERROR(
          file->Read(BackupStore::CrcOffsetFor(summary.geometry, s), 4,
                     &crc_bytes));
      bool ok = image.size() == summary.geometry.segment_bytes() &&
                crc_bytes.size() == 4 &&
                crc32c::Unmask(DecodeFixed32(crc_bytes.data())) ==
                    crc32c::Value(image);
      if (ok) {
        ++summary.copies[c].valid_segments;
      } else {
        ++summary.copies[c].corrupt_segments;
        if (summary.copies[c].corrupt_examples.size() < 5) {
          summary.copies[c].corrupt_examples.push_back(s);
        }
      }
    }
  }
  return summary;
}

}  // namespace mmdb

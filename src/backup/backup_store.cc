#include "backup/backup_store.h"

#include <algorithm>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace mmdb {
namespace {

constexpr uint32_t kMetaMagic = 0x4d4d4d43;  // "MMMC"
constexpr uint64_t kHeaderBytes = 64;
// Encoded fields at the start of the header: magic, copy index, geometry.
constexpr size_t kHeaderFieldBytes = 4 + 4 + 8 + 4 + 4;

Status DecodeHeader(std::string_view in, uint32_t* copy_idx,
                    DatabaseParams* db) {
  uint32_t magic;
  if (!GetFixed32(&in, &magic) || magic != kMetaMagic ||
      !GetFixed32(&in, copy_idx) || !GetFixed64(&in, &db->db_words) ||
      !GetFixed32(&in, &db->segment_words) ||
      !GetFixed32(&in, &db->record_words)) {
    return CorruptionError("backup copy header unreadable");
  }
  return Status::OK();
}

}  // namespace

void CheckpointMeta::EncodeTo(std::string* dst) const {
  std::string body;
  PutFixed32(&body, kMetaMagic);
  PutFixed64(&body, checkpoint_id);
  PutFixed32(&body, copy);
  PutFixed64(&body, log_offset);
  PutFixed64(&body, begin_lsn);
  PutFixed64(&body, tau);
  uint32_t crc = crc32c::Mask(crc32c::Value(body));
  dst->append(body);
  PutFixed32(dst, crc);
}

Status CheckpointMeta::DecodeFrom(std::string_view data, CheckpointMeta* out) {
  constexpr size_t kBodyBytes = 4 + 8 + 4 + 8 + 8 + 8;
  if (data.size() < kBodyBytes + 4) {
    return CorruptionError("checkpoint meta too short");
  }
  std::string_view body = data.substr(0, kBodyBytes);
  std::string_view rest = data.substr(kBodyBytes);
  uint32_t stored_crc;
  if (!GetFixed32(&rest, &stored_crc)) {
    return CorruptionError("checkpoint meta missing crc");
  }
  if (crc32c::Unmask(stored_crc) != crc32c::Value(body)) {
    return CorruptionError("checkpoint meta crc mismatch");
  }
  uint32_t magic;
  GetFixed32(&body, &magic);
  if (magic != kMetaMagic) return CorruptionError("checkpoint meta bad magic");
  GetFixed64(&body, &out->checkpoint_id);
  GetFixed32(&body, &out->copy);
  GetFixed64(&body, &out->log_offset);
  GetFixed64(&body, &out->begin_lsn);
  GetFixed64(&body, &out->tau);
  return Status::OK();
}

BackupStore::BackupStore(Env* env, std::string dir, const SystemParams& params,
                         DiskArrayModel* disks)
    : env_(env), dir_(std::move(dir)), params_(params), disks_(disks) {}

std::string BackupStore::CopyPath(uint32_t copy) const {
  return dir_ + "/backup_" + std::to_string(copy) + ".db";
}

std::string BackupStore::MetaPath() const { return dir_ + "/CHECKPOINT"; }

uint64_t BackupStore::SlotOffsetFor(const DatabaseParams& db,
                                    SegmentId segment) {
  return kHeaderBytes + db.num_segments() * 4 + segment * db.segment_bytes();
}

uint64_t BackupStore::CrcOffsetFor(const DatabaseParams& /*db*/,
                                   SegmentId segment) {
  // The CRC table layout happens not to depend on the geometry, but the
  // parameter keeps the two offset helpers symmetric.
  return kHeaderBytes + segment * 4;
}

uint64_t BackupStore::SlotOffset(SegmentId segment) const {
  return SlotOffsetFor(params_.db, segment);
}

uint64_t BackupStore::CrcOffset(SegmentId segment) const {
  return CrcOffsetFor(params_.db, segment);
}

StatusOr<DatabaseParams> BackupStore::ReadGeometry(
    Env* env, const std::string& copy_path) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        env->NewRandomAccessFile(copy_path));
  std::string header;
  MMDB_RETURN_IF_ERROR(file->Read(0, kHeaderFieldBytes, &header));
  uint32_t copy_idx;
  DatabaseParams db;
  MMDB_RETURN_IF_ERROR(DecodeHeader(header, &copy_idx, &db));
  return db;
}

Status BackupStore::Open() {
  MMDB_RETURN_IF_ERROR(env_->CreateDirIfMissing(dir_));
  const uint64_t total =
      kHeaderBytes + params_.db.num_segments() * 4 +
      params_.db.num_segments() * params_.db.segment_bytes();
  for (uint32_t c = 0; c < 2; ++c) {
    const bool fresh = !env_->FileExists(CopyPath(c));
    MMDB_ASSIGN_OR_RETURN(copies_[c], env_->NewRandomWriteFile(CopyPath(c)));
    if (!fresh) {
      // Reopening existing copies: the stored geometry must match ours, or
      // every slot offset would be misinterpreted. Check before sizing the
      // file, so a rejected open leaves the copy as it found it.
      std::string header;
      MMDB_RETURN_IF_ERROR(copies_[c]->Read(0, kHeaderFieldBytes, &header));
      uint32_t copy_idx;
      DatabaseParams db;
      MMDB_RETURN_IF_ERROR(DecodeHeader(header, &copy_idx, &db));
      if (copy_idx != c) {
        return CorruptionError("backup copy index mismatch");
      }
      if (db.db_words != params_.db.db_words ||
          db.segment_words != params_.db.segment_words ||
          db.record_words != params_.db.record_words) {
        return InvalidArgumentError(StringPrintf(
            "backup geometry mismatch: file has db=%llu seg=%u rec=%u",
            static_cast<unsigned long long>(db.db_words), db.segment_words,
            db.record_words));
      }
    }
    // Zero-filled extents when fresh; a reopened copy already has `total`.
    MMDB_RETURN_IF_ERROR(copies_[c]->Truncate(total));
    if (!fresh) continue;  // keep existing images and checksums
    // Header: magic + geometry, written once (idempotent).
    std::string header;
    PutFixed32(&header, kMetaMagic);
    PutFixed32(&header, c);
    PutFixed64(&header, params_.db.db_words);
    PutFixed32(&header, params_.db.segment_words);
    PutFixed32(&header, params_.db.record_words);
    MMDB_RETURN_IF_ERROR(copies_[c]->WriteAt(0, header));
    // Checksum slots must match the zero-filled segment extents so a
    // freshly-created copy reads back cleanly (a partial checkpoint may
    // legitimately skip most segments).
    std::string zero_crcs;
    const std::string zero_segment(params_.db.segment_bytes(), '\0');
    uint32_t crc = crc32c::Mask(crc32c::Value(zero_segment));
    for (uint64_t s = 0; s < params_.db.num_segments(); ++s) {
      PutFixed32(&zero_crcs, crc);
    }
    MMDB_RETURN_IF_ERROR(copies_[c]->WriteAt(CrcOffset(0), zero_crcs));
  }
  return Status::OK();
}

StatusOr<double> BackupStore::WriteSegment(uint32_t copy, SegmentId segment,
                                           std::string_view data, double now) {
  if (copy > 1) return InvalidArgumentError("copy must be 0 or 1");
  if (segment >= params_.db.num_segments()) {
    return InvalidArgumentError("segment out of range");
  }
  if (data.size() != params_.db.segment_bytes()) {
    return InvalidArgumentError("segment image has wrong size");
  }
  // Prune in-flight entries that have landed by now.
  std::erase_if(in_flight_,
                [now](const InFlight& w) { return w.done_time <= now; });

  MMDB_RETURN_IF_ERROR(copies_[copy]->WriteAt(SlotOffset(segment), data));
  std::string crc;
  PutFixed32(&crc, crc32c::Mask(crc32c::Value(data)));
  MMDB_RETURN_IF_ERROR(copies_[copy]->WriteAt(CrcOffset(segment), crc));

  double done = disks_->Submit(now, params_.db.segment_words);
  in_flight_.push_back(InFlight{copy, segment, done});
  ++segments_written_;
  if (m_segment_writes_ != nullptr) {
    m_segment_writes_->Increment();
    m_segment_write_bytes_->Increment(data.size());
    m_write_service_seconds_->Record(done - now);
  }
  return done;
}

void BackupStore::set_obs(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  m_segment_writes_ = registry->counter("backup.segment_writes");
  m_segment_write_bytes_ = registry->counter("backup.segment_write_bytes");
  m_segment_reads_ = registry->counter("backup.segment_reads");
  m_read_errors_ = registry->counter("backup.read_errors");
  m_meta_commits_ = registry->counter("backup.meta_commits");
  m_write_service_seconds_ = registry->timer("backup.write_service_seconds");
}

Status BackupStore::ReadSegmentInto(uint32_t copy, SegmentId segment,
                                    std::span<char> dst) const {
  if (copy > 1) return InvalidArgumentError("copy must be 0 or 1");
  if (segment >= params_.db.num_segments()) {
    return InvalidArgumentError("segment out of range");
  }
  if (dst.size() != params_.db.segment_bytes()) {
    return InvalidArgumentError("segment buffer has wrong size");
  }
  if (m_segment_reads_ != nullptr) m_segment_reads_->Increment();
  MMDB_ASSIGN_OR_RETURN(size_t got,
                        copies_[copy]->ReadInto(SlotOffset(segment), dst));
  if (got != dst.size()) {
    return CorruptionError("short segment read from backup");
  }
  char crc_bytes[4];
  MMDB_ASSIGN_OR_RETURN(got,
                        copies_[copy]->ReadInto(CrcOffset(segment), crc_bytes));
  if (got != sizeof(crc_bytes)) return CorruptionError("short crc read");
  uint32_t stored = crc32c::Unmask(DecodeFixed32(crc_bytes));
  if (stored != crc32c::Value(dst.data(), dst.size())) {
    if (m_read_errors_ != nullptr) m_read_errors_->Increment();
    return CorruptionError(StringPrintf(
        "backup copy %u segment %llu checksum mismatch", copy,
        static_cast<unsigned long long>(segment)));
  }
  return Status::OK();
}

Status BackupStore::ReadSegment(uint32_t copy, SegmentId segment,
                                std::string* out) const {
  out->resize(params_.db.segment_bytes());
  return ReadSegmentInto(copy, segment, std::span<char>(*out));
}

Status BackupStore::CommitCheckpoint(const CheckpointMeta& meta) {
  if (m_meta_commits_ != nullptr) m_meta_commits_->Increment();
  std::string encoded;
  meta.EncodeTo(&encoded);
  const std::string tmp = MetaPath() + ".tmp";
  MMDB_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, encoded, /*sync=*/true));
  return env_->RenameFile(tmp, MetaPath());
}

StatusOr<CheckpointMeta> BackupStore::ReadMeta() const {
  if (!env_->FileExists(MetaPath())) {
    return NotFoundError("no completed checkpoint");
  }
  std::string contents;
  MMDB_RETURN_IF_ERROR(env_->ReadFileToString(MetaPath(), &contents));
  CheckpointMeta meta;
  MMDB_RETURN_IF_ERROR(CheckpointMeta::DecodeFrom(contents, &meta));
  return meta;
}

Status BackupStore::Crash(double now) {
  // Writes still in flight tear: scribble the slot so the checksum fails.
  for (const InFlight& w : in_flight_) {
    if (w.done_time > now) {
      std::string garbage(params_.db.segment_bytes(), '\xde');
      MMDB_RETURN_IF_ERROR(
          copies_[w.copy]->WriteAt(SlotOffset(w.segment), garbage));
      std::string bad_crc;
      PutFixed32(&bad_crc, 0xdeadbeef);
      MMDB_RETURN_IF_ERROR(
          copies_[w.copy]->WriteAt(CrcOffset(w.segment), bad_crc));
    }
  }
  in_flight_.clear();
  return Status::OK();
}

}  // namespace mmdb

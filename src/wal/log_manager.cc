#include "wal/log_manager.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/coding.h"
#include "util/crc32c.h"

namespace mmdb {

void EncodeLogFrame(const LogRecord& record, std::string* dst) {
  // Encode the payload straight into *dst (the caller's long-lived tail
  // buffer) behind a length placeholder — no per-record scratch string.
  // EncodedSize() is a cheap arithmetic walk, so the reserve costs nothing
  // and the appends below never re-grow.
  dst->reserve(dst->size() + record.EncodedSize() + kLogFrameOverhead);
  const size_t len_pos = dst->size();
  PutFixed32(dst, 0);  // backfilled once the payload size is known
  const size_t payload_pos = dst->size();
  record.EncodeTo(dst);
  const uint32_t payload_size =
      static_cast<uint32_t>(dst->size() - payload_pos);
  EncodeFixed32(dst->data() + len_pos, payload_size);
  uint32_t crc =
      crc32c::Mask(crc32c::Value(dst->data() + payload_pos, payload_size));
  PutFixed32(dst, crc);
  PutFixed32(dst, payload_size);
}

std::string EncodeLogFileHeader(uint64_t base_offset) {
  std::string header;
  PutFixed32(&header, kLogFileMagic);
  PutFixed32(&header, kLogFileVersion);
  PutFixed64(&header, base_offset);
  return header;
}

LogManager::LogManager(Env* env, std::string path, const SystemParams& params,
                       CpuMeter* meter, bool stable_log_tail,
                       double min_flush_spacing)
    : env_(env),
      path_(std::move(path)),
      params_(params),
      meter_(meter),
      stable_log_tail_(stable_log_tail),
      min_flush_spacing_(min_flush_spacing) {}

Status LogManager::Open() {
  MMDB_ASSIGN_OR_RETURN(file_, env_->NewWritableFile(path_));
  MMDB_RETURN_IF_ERROR(file_->Append(EncodeLogFileHeader(0)));
  base_offset_ = 0;
  return Status::OK();
}

Status LogManager::PersistRewrite(const std::string& contents) {
  const std::string tmp = path_ + ".tmp";
  MMDB_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, contents, /*sync=*/true));
  return env_->RenameFile(tmp, path_);
}

Status LogManager::Repair() {
  // A failed append may have deposited an arbitrary prefix of the batch.
  // Close may itself fail on a hosed device; the cut supersedes whatever
  // state the handle left behind.
  if (file_ != nullptr) (void)file_->Close();
  file_.reset();
  const uint64_t keep = kLogFileHeaderBytes + (written_bytes_ - base_offset_);
  MMDB_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path_));
  if (size < keep) {
    return CorruptionError("log file lost bytes that were already flushed");
  }
  Status cut = env_->CutFile(path_, keep);
  // Reopen even if the cut failed so the manager stays usable; damaged_
  // then remains set and the next Flush retries the repair.
  MMDB_ASSIGN_OR_RETURN(file_, env_->NewAppendableFile(path_));
  MMDB_RETURN_IF_ERROR(cut);
  damaged_ = false;
  return Status::OK();
}

Status LogManager::OpenExisting(uint64_t base, uint64_t valid_bytes,
                                Lsn next_lsn) {
  // The file's header already reads `base` (LogReader::Open checked it);
  // keep it and the valid frames, and cut whatever follows them in place.
  MMDB_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path_));
  const uint64_t keep = kLogFileHeaderBytes + (valid_bytes - base);
  if (valid_bytes < base || size < keep) {
    return CorruptionError("log file shorter than its valid prefix");
  }
  if (size > keep) MMDB_RETURN_IF_ERROR(env_->CutFile(path_, keep));
  MMDB_ASSIGN_OR_RETURN(file_, env_->NewAppendableFile(path_));
  // The reopen is where the recovered prefix becomes durable; a cut has
  // synced it already.
  if (size == keep) MMDB_RETURN_IF_ERROR(file_->Sync());
  damaged_ = false;
  tail_.clear();
  base_offset_ = base;
  written_bytes_ = valid_bytes;
  appended_bytes_ = valid_bytes;
  next_lsn_ = next_lsn;
  tail_last_lsn_ = kInvalidLsn;
  pending_.clear();
  flushed_lsn_ = next_lsn > 0 ? next_lsn - 1 : kInvalidLsn;
  durable_floor_ = flushed_lsn_;
  durable_bytes_floor_ = valid_bytes;
  return Status::OK();
}

void LogManager::set_obs(MetricsRegistry* registry, Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) return;
  m_appends_ = registry->counter("log.appends");
  m_append_bytes_ = registry->counter("log.append_bytes");
  m_flush_batches_ = registry->counter("log.flush_batches");
  m_flush_bytes_ = registry->counter("log.flush_bytes");
  m_flush_errors_ = registry->counter("log.flush_errors");
  m_group_merges_ = registry->counter("log.group_commit_merges");
  m_flush_seconds_ = registry->timer("log.flush_seconds");
}

Lsn LogManager::Append(LogRecord* record, double now) {
  record->lsn = next_lsn_++;
  size_t before = tail_.size();
  EncodeLogFrame(*record, &tail_);
  size_t frame_bytes = tail_.size() - before;
  appended_bytes_ += frame_bytes;
  tail_last_lsn_ = record->lsn;
  // Log creation is data movement into the log buffer: 1 instr/word. This
  // is base logging work, excluded from checkpoint-overhead metrics.
  meter_->Charge(CpuCategory::kLogging,
                 params_.costs.move_per_word *
                     (static_cast<double>(frame_bytes) / kWordBytes));
  if (m_appends_ != nullptr) {
    m_appends_->Increment();
    m_append_bytes_->Increment(frame_bytes);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kLogAppend, now, 0.0, record->lsn,
                    static_cast<uint64_t>(record->type), frame_bytes);
  }
  return record->lsn;
}

StatusOr<double> LogManager::Flush(double now) {
  if (tail_.empty()) return now;
  if (damaged_) MMDB_RETURN_IF_ERROR(Repair());
  uint64_t words = (tail_.size() + kWordBytes - 1) / kWordBytes;
  uint64_t batch_bytes = tail_.size();

  // The bytes go to the Env file immediately; Crash() rolls back anything
  // whose modeled completion hadn't been reached. If the append fails the
  // tail is kept (no durability promise is made) and the file is repaired
  // before the retry — bytes it did take were never promised and are cut
  // back then.
  Status st = file_->Append(tail_);
  if (!st.ok()) {
    damaged_ = true;
    if (m_flush_errors_ != nullptr) m_flush_errors_->Increment();
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kLogFlushError, now, 0.0,
                      tail_last_lsn_);
    }
    return st;
  }
  written_bytes_ += batch_bytes;
  tail_.clear();
  flushed_lsn_ = tail_last_lsn_;
  if (m_flush_bytes_ != nullptr) m_flush_bytes_->Increment(batch_bytes);

  double done;
  if (!pending_.empty() && pending_.back().start_time > now) {
    // Group commit: the previous batch has not started writing yet; this
    // request coalesces into it rather than issuing another seek. Earlier
    // bytes keep their already-promised completion (they stream to the
    // platter first); the merged bytes become durable when the enlarged
    // batch finishes. Recorded as a new immutable entry so no durability
    // promise ever moves — the write-ahead gates depend on that.
    const PendingFlush& batch = pending_.back();
    uint64_t batch_words = batch.words + words;
    done = std::max(batch.done_time,
                    batch.start_time + FlushSeconds(batch_words));
    pending_.push_back(PendingFlush{tail_last_lsn_, written_bytes_,
                                    batch_words, batch.start_time, done});
    if (m_group_merges_ != nullptr) m_group_merges_->Increment();
  } else {
    // One I/O initiation per physical flush batch.
    meter_->Charge(CpuCategory::kLogging,
                   static_cast<double>(params_.costs.io));
    // Serial stream: a batch starts no sooner than the cadence allows and
    // never before the previous batch finished.
    double start = std::max(now, last_flush_start_ + min_flush_spacing_);
    if (!pending_.empty()) start = std::max(start, pending_.back().done_time);
    last_flush_start_ = start;
    done = start + FlushSeconds(words);
    ++flush_count_;
    pending_.push_back(
        PendingFlush{tail_last_lsn_, written_bytes_, words, start, done});
    if (m_flush_batches_ != nullptr) {
      m_flush_batches_->Increment();
      m_flush_seconds_->Record(done - start);
    }
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kLogFlush, now, done, flushed_lsn_,
                    batch_bytes);
  }
  return done;
}

Lsn LogManager::DurableLsn(double now) const {
  if (stable_log_tail_) return LastLsn();
  Lsn durable = durable_floor_;
  for (const PendingFlush& f : pending_) {
    if (f.done_time <= now) durable = f.last_lsn;
  }
  return durable;
}

double LogManager::WhenDurable(Lsn lsn, double now) const {
  if (lsn == kInvalidLsn) return now;
  if (stable_log_tail_) return now;
  if (lsn <= durable_floor_) return now;
  for (const PendingFlush& f : pending_) {
    if (f.last_lsn >= lsn) return std::max(now, f.done_time);
  }
  // Still in the tail (or not yet appended): not durable until a future
  // Flush covers it.
  return std::numeric_limits<double>::infinity();
}

Status LogManager::Crash(double now) {
  uint64_t surviving = durable_bytes_floor_;
  if (stable_log_tail_) {
    // Stable RAM: both the flushed prefix and the tail survive. Persist
    // the tail so recovery sees it in the file (cutting any garbage a
    // failed append left in between first).
    if (damaged_) MMDB_RETURN_IF_ERROR(Repair());
    if (!tail_.empty()) {
      MMDB_RETURN_IF_ERROR(file_->Append(tail_));
      written_bytes_ += tail_.size();
      tail_.clear();
    }
    surviving = written_bytes_;
  } else {
    for (const PendingFlush& f : pending_) {
      if (f.done_time <= now) surviving = f.bytes_upto;
    }
  }
  if (file_ != nullptr) {
    MMDB_RETURN_IF_ERROR(file_->Close());
    file_.reset();
  }
  const uint64_t physical_keep =
      kLogFileHeaderBytes +
      (surviving > base_offset_ ? surviving - base_offset_ : 0);
  // A file already shorter than what survives (a torn append that reported
  // success) is left as it is.
  MMDB_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path_));
  if (size > physical_keep) {
    MMDB_RETURN_IF_ERROR(env_->CutFile(path_, physical_keep));
  }
  return Status::OK();
}

StatusOr<uint64_t> LogManager::TruncateBefore(uint64_t cut) {
  if (cut < base_offset_) return uint64_t{0};  // already truncated past it
  if (cut > written_bytes_) {
    return InvalidArgumentError(
        "cannot truncate past the end of the flushed log");
  }
  if (cut == base_offset_) return uint64_t{0};

  // A failed append's trailing garbage must not ride along into the
  // rewritten file.
  if (damaged_) MMDB_RETURN_IF_ERROR(Repair());

  const uint64_t dropped = cut - base_offset_;
  std::string contents;
  MMDB_RETURN_IF_ERROR(env_->ReadFileToString(path_, &contents));
  if (contents.size() < kLogFileHeaderBytes + dropped) {
    return CorruptionError("log file shorter than its truncation point");
  }
  std::string rewritten = EncodeLogFileHeader(cut);
  rewritten.append(contents, kLogFileHeaderBytes + dropped,
                   contents.size() - kLogFileHeaderBytes - dropped);
  MMDB_RETURN_IF_ERROR(file_->Close());
  file_.reset();
  Status rewrite = PersistRewrite(rewritten);
  // On failure the original file is intact (temp + rename); reopen it so
  // the manager stays usable — truncation is only an optimization and the
  // caller may treat the error as non-fatal.
  MMDB_ASSIGN_OR_RETURN(file_, env_->NewAppendableFile(path_));
  MMDB_RETURN_IF_ERROR(rewrite);
  base_offset_ = cut;
  return dropped;
}

}  // namespace mmdb

#include "recovery/instant.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string>

#include "util/coding.h"
#include "util/string_util.h"
#include "wal/log_record.h"

namespace mmdb {

namespace {

// Only CRC damage and device faults on the newest copy are survivable via
// the older copy; anything else (bad geometry, programming error) is
// fatal.
bool Survivable(const Status& st) {
  return st.IsCorruption() || st.IsIoError();
}

// Adds the host seconds its scope takes to `*sum`: each host.recovery
// phase is timed where the work happens, whichever schedule runs it.
class HostTimer {
 public:
  explicit HostTimer(double* sum)
      : sum_(sum), start_(std::chrono::steady_clock::now()) {}
  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;
  ~HostTimer() {
    *sum_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  }

 private:
  double* sum_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

InstantRecovery::InstantRecovery(RecoveryPlan plan, const SystemParams& params,
                                 BackupStore* backup, Database* db,
                                 CpuMeter* meter, MetricsRegistry* metrics,
                                 EventSink events)
    : plan_(std::move(plan)),
      params_(params),
      backup_(backup),
      db_(db),
      meter_(meter),
      metrics_(metrics),
      events_(events),
      num_segments_(db->num_segments()),
      disks_(params.disk) {
  availability_.assign(num_segments_, -1.0);
  submit_time_.assign(num_segments_, 0.0);
  touch_count_.assign(num_segments_, 0);
  loaded_.assign(num_segments_, false);
  announced_.assign(num_segments_, false);
  unsubmitted_ = plan_.have_checkpoint ? num_segments_ : 0;
}

Status InstantRecovery::LoadAll() {
  if (plan_.have_checkpoint) {
    // Every segment's read + CRC check, collecting failures rather than
    // stopping at one: the fallback needs the complete failed set.
    std::vector<SegmentId> failed;
    Status trigger;
    for (SegmentId s = 0; s < num_segments_; ++s) {
      Status st = ReadSegment(s);
      if (st.ok()) continue;
      if (!Survivable(st)) return st;
      if (failed.empty()) trigger = st;
      failed.push_back(s);
    }
    if (!failed.empty()) {
      MMDB_RETURN_IF_ERROR(FallBack(std::move(failed), trigger,
                                    /*failed_set_complete=*/true,
                                    plan_.crash_time));
      for (SegmentId s = 0; s < num_segments_; ++s) {
        // A failure here means neither copy is readable: fatal.
        if (plan_.result.lineage[s].retried) {
          MMDB_RETURN_IF_ERROR(ReadSegment(s));
        }
      }
    }
  }
  for (SegmentId s = 0; s < num_segments_; ++s) {
    MMDB_RETURN_IF_ERROR(ApplyRedo(s));
  }
  loaded_.assign(num_segments_, true);
  loaded_count_ = num_segments_;
  // Nothing reads the log snapshot or the buckets again: free them before
  // the engine rewrites the log, as a restart's peak memory.
  plan_.reader = LogReader();
  plan_.redo.buckets = {};
  return Status::OK();
}

void InstantRecovery::StartClock(double now) {
  if (clock_started_) return;
  clock_started_ = true;
  last_completion_ = now;
  if (!plan_.have_checkpoint) {
    // Cold start: there is no backup to read, so every segment is
    // "available" the instant the plan is — only its REDO replay remains.
    for (SegmentId s = 0; s < num_segments_; ++s) {
      availability_[s] = now;
      submit_time_[s] = now;
      due_.push_back(s);
    }
    return;
  }
  // Prime one request per device; every completion refills from the
  // pending set, so the array never idles until the schedule drains.
  const uint64_t window = std::min<uint64_t>(
      params_.disk.num_disks, static_cast<uint64_t>(num_segments_));
  for (uint64_t i = 0; i < window; ++i) {
    SubmitSegment(PickNextPending(), now);
  }
}

SegmentId InstantRecovery::PickNextPending() {
  // Any touched pending segment outranks every untouched one.
  if (!touched_pending_.empty()) return touched_pending_.begin()->second;
  // Segments only ever leave the untouched pending set, so its lowest id
  // never decreases and the cursor sweeps each segment once per restart.
  while (untouched_cursor_ < num_segments_ &&
         (availability_[untouched_cursor_] >= 0.0 ||
          touch_count_[untouched_cursor_] > 0)) {
    ++untouched_cursor_;
  }
  return untouched_cursor_;
}

void InstantRecovery::SubmitSegment(SegmentId s, double at) {
  if (touch_count_[s] > 0) touched_pending_.erase({touch_count_[s], s});
  availability_[s] = disks_.Submit(at, params_.db.segment_words);
  submit_time_[s] = at;
  if (availability_[s] > last_completion_) {
    last_completion_ = availability_[s];
  }
  inflight_.push(Inflight{availability_[s], s});
  --unsubmitted_;
}

void InstantRecovery::AdvanceScheduleTo(double t) {
  while (!inflight_.empty() && inflight_.top().first <= t) {
    const SegmentId s = inflight_.top().second;
    const double done = inflight_.top().first;
    inflight_.pop();
    due_.push_back(s);
    if (unsubmitted_ > 0) {
      // Refill the freed device with the hottest pending segment.
      SubmitSegment(PickNextPending(), done);
    }
  }
}

double InstantRecovery::Touch(SegmentId s, double now) {
  AdvanceScheduleTo(now);
  if (s >= num_segments_) return now;
  if (availability_[s] < 0.0) {
    // Still pending: re-rank it under its new touch count.
    if (touch_count_[s] > 0) touched_pending_.erase({touch_count_[s], s});
    touched_pending_.insert({touch_count_[s] + 1, s});
  }
  ++touch_count_[s];
  if (loaded_[s]) return now;
  if (availability_[s] < 0.0) {
    // The schedule had not reached this segment: jump it to the front
    // (the earliest-available device picks it up next).
    SubmitSegment(s, now);
  }
  return std::max(availability_[s], now);
}

double InstantRecovery::CompleteSchedule() {
  AdvanceScheduleTo(std::numeric_limits<double>::infinity());
  return last_completion_;
}

Status InstantRecovery::MaterializeDue(double now) {
  AdvanceScheduleTo(now);
  // A full-reload fallback inside Materialize queues the served segments
  // again, so take the list until it stays empty.
  while (!due_.empty()) {
    std::vector<SegmentId> work;
    work.swap(due_);
    for (SegmentId s : work) {
      MMDB_RETURN_IF_ERROR(Materialize(s, now, LoadTrigger::kBackground));
    }
  }
  return Status::OK();
}

Status InstantRecovery::ReadSegment(SegmentId s) {
  HostTimer timer(&plan_.result.stats.backup_read_wall_seconds);
  return backup_->ReadSegmentInto(plan_.result.lineage[s].copy, s,
                                  db_->MutableSegment(s));
}

Status InstantRecovery::Reload(SegmentId s, double now) {
  if (!plan_.have_checkpoint) return Status::OK();
  Status st = ReadSegment(s);
  if (st.ok() || !Survivable(st) || plan_.result.lineage[s].retried) {
    return st;
  }
  if (fell_back_) {
    // A later newest-copy failure after a full-image fallback: the
    // segment is simply one more member of the retry set.
    MarkRetried(s);
    ++plan_.result.stats.segments_retried;
  } else {
    MMDB_RETURN_IF_ERROR(
        FallBack({s}, st, /*failed_set_complete=*/false, now));
  }
  return ReadSegment(s);  // neither copy readable: fatal
}

Status InstantRecovery::ApplyRedo(SegmentId s) {
  HostTimer timer(&plan_.result.stats.replay_wall_seconds);
  for (std::size_t frame : plan_.redo.buckets[s]) {
    MMDB_ASSIGN_OR_RETURN(LogRecord r, plan_.reader.RecordAtIndex(frame));
    if (r.type == LogRecordType::kUpdate) {
      db_->WriteRecord(r.record_id, r.image);
      continue;
    }
    // Logical REDO: NOT idempotent — correct exactly because the restored
    // backup is the snapshot at the replay start point (enforced at write
    // time; see Engine::WriteDelta).
    std::string image(db_->ReadRecord(r.record_id));
    uint64_t field = DecodeFixed64(image.data() + r.field_offset);
    EncodeFixed64(image.data() + r.field_offset,
                  field + static_cast<uint64_t>(r.delta));
    db_->WriteRecord(r.record_id, image);
  }
  return Status::OK();
}

void InstantRecovery::MarkRetried(SegmentId s) {
  SegmentLineage& l = plan_.result.lineage[s];
  l.checkpoint_id = plan_.result.stats.checkpoint_id;
  l.copy = plan_.result.stats.copy;
  l.retried = true;
}

Status InstantRecovery::FallBack(std::vector<SegmentId> failed,
                                 const Status& trigger,
                                 bool failed_set_complete, double now) {
  const LogReader& reader = plan_.reader;
  RecoveryResult& result = plan_.result;
  RecoveryStats& stats = result.stats;

  // The newest copy has CRC-bad or unreadable segments (a torn checkpoint
  // tail, scribbled in-flight slots, or device faults). The ping-pong
  // protocol guarantees the PREVIOUS checkpoint's copy was complete
  // before this one started overwriting the other file, so fall back to
  // it and replay the longer log suffix from its begin marker, which log
  // truncation keeps (it cuts before the begin marker of the checkpoint
  // preceding the newest complete one). A first checkpoint has no
  // predecessor: then the restart fails.
  const CheckpointId prev_id = plan_.restore_id - 1;
  // Finding and scanning the longer suffix is log-scan time.
  std::optional<HostTimer> rescan(&stats.log_scan_wall_seconds);
  StatusOr<LogReader::CheckpointMarker> prev =
      prev_id >= 1 ? reader.FindCheckpointBegin(prev_id)
                   : NotFoundError("no checkpoint precedes the first");
  if (prev.status().IsNotFound()) {
    return CorruptionError(StringPrintf(
        "backup copy %u of checkpoint %llu is unreadable (%s) and no "
        "older complete checkpoint is reachable in the log",
        plan_.restore_copy, static_cast<unsigned long long>(plan_.restore_id),
        trigger.message().c_str()));
  }
  MMDB_RETURN_IF_ERROR(prev.status());
  const uint64_t prev_offset = prev->begin_offset;
  for (const ActiveTxnEntry& e : prev->begin_record.active_txns) {
    if (e.first_lsn != kInvalidLsn) {
      return NotSupportedError(
          "active transaction with pre-marker log records; update-time "
          "logging is not used by this engine");
    }
  }
  MMDB_ASSIGN_OR_RETURN(std::size_t prev_start,
                        reader.FrameIndexAt(prev_offset));
  std::vector<SegmentLineage> lineage = result.lineage;
  MMDB_ASSIGN_OR_RETURN(RedoScan redo,
                        ScanRedo(reader, prev_start, params_.db, &lineage));
  rescan.reset();

  // Retry protocol (DESIGN.md §14): with full-image (UPDATE) replay only,
  // re-reading JUST the failed segments is sound — commit-time logging
  // puts every post-prev-marker update in the longer suffix, and full
  // images are idempotent, so the mixed-copy state converges to the same
  // bytes. DELTA records are logical additions and demand an exact
  // snapshot at the replay start point, so their presence forces a full
  // reload of the previous copy.
  const bool full_reload = redo.has_delta;
  if (full_reload && loaded_count_ > 0 && committed_since_start_) {
    return FailedPreconditionError(
        "the older-copy fallback must reload every segment (the log holds "
        "delta records), but transactions have committed since the "
        "restart; a retried Recover() loads eagerly and replays them");
  }
  if (full_reload && !failed_set_complete) {
    // Every segment is retried, so the modeled load count needs every
    // newest-copy failure: read the segments not served yet (a served
    // segment's read succeeded).
    for (SegmentId s = 0; s < num_segments_; ++s) {
      if (loaded_[s] ||
          std::find(failed.begin(), failed.end(), s) != failed.end()) {
        continue;
      }
      Status st = ReadSegment(s);
      if (st.ok()) continue;
      if (!Survivable(st)) return st;
      failed.push_back(s);
    }
    std::sort(failed.begin(), failed.end());
  }
  const std::string text = trigger.ToString();
  events_.Emit({TraceEventType::kRecoveryFallback, now, 0.0,
                {plan_.restore_id, plan_.restore_copy, prev_id,
                 BackupStore::CopyFor(prev_id), full_reload}},
               {.text = text, .segments = failed});

  // Stats and lineage become exactly what a restart from the longer
  // suffix reports.
  const uint64_t charged_full = plan_.redo.full_applies;
  const uint64_t charged_delta = plan_.redo.delta_applies;
  plan_.redo = std::move(redo);
  result.lineage = std::move(lineage);
  stats.checkpoint_id = prev_id;
  stats.copy = BackupStore::CopyFor(prev_id);
  stats.fell_back_to_older_copy = true;
  if (full_reload) {
    for (SegmentId s = 0; s < num_segments_; ++s) MarkRetried(s);
    stats.segments_retried = num_segments_;
  } else {
    for (SegmentId s : failed) MarkRetried(s);
    stats.segments_retried = failed.size();
  }
  stats.segments_loaded =
      num_segments_ - failed.size() + stats.segments_retried;
  result.replay_from_offset = prev_offset;
  stats.log_bytes_read = result.log_valid_bytes > prev_offset
                             ? result.log_valid_bytes - prev_offset
                             : 0;
  stats.records_scanned = plan_.redo.records;
  stats.updates_applied = plan_.redo.full_applies + plan_.redo.delta_applies;
  stats.txns_redone = plan_.redo.txns;
  ModelRecoveryTimes(params_, plan_.crash_time, plan_.redo.full_applies,
                     plan_.redo.delta_applies, &stats);
  meter_->Charge(CpuCategory::kRecovery,
                 ReplayInstructions(params_,
                                    plan_.redo.full_applies - charged_full,
                                    plan_.redo.delta_applies - charged_delta));
  fell_back_ = true;

  if (full_reload) {
    // Nothing has committed since the restart, so a served segment holds
    // exactly its planned state. Latch it again; it reloads from the
    // previous snapshot at its next touch or the next sweep.
    for (SegmentId s = 0; s < num_segments_; ++s) {
      if (!loaded_[s]) continue;
      loaded_[s] = false;
      --loaded_count_;
      due_.push_back(s);
    }
  }
  return Status::OK();
}

Status InstantRecovery::Materialize(SegmentId s, double now,
                                    LoadTrigger trigger) {
  if (s >= num_segments_) {
    return InvalidArgumentError("segment out of range");
  }
  if (loaded_[s]) return Status::OK();
  MMDB_RETURN_IF_ERROR(Reload(s, now));
  MMDB_RETURN_IF_ERROR(ApplyRedo(s));
  loaded_[s] = true;
  ++loaded_count_;
  if (!announced_[s]) Announce(s, now, trigger);
  return Status::OK();
}

void InstantRecovery::Announce(SegmentId s, double now, LoadTrigger trigger) {
  announced_[s] = true;
  const uint64_t order = load_order_++;
  switch (trigger) {
    case LoadTrigger::kTouch:
      ++touch_loads_;
      break;
    case LoadTrigger::kBackground:
      ++background_loads_;
      break;
    case LoadTrigger::kForce:
      ++force_loads_;
      break;
  }
  const SegmentLineage& l = plan_.result.lineage[s];
  // The ring-only start of the segment's Perfetto span: its backup read's
  // submission, or the materialization itself when none was scheduled.
  const double submitted = availability_[s] >= 0.0 ? submit_time_[s] : now;
  events_.Emit({TraceEventType::kRecoverySegmentOnDemand, now, submitted,
                {s, static_cast<uint64_t>(trigger), l.checkpoint_id, l.copy,
                 l.retried, l.frames, order}});
  if (metrics_ != nullptr) {
    metrics_->counter("recovery.segments_on_demand")->Increment();
  }
}

}  // namespace mmdb

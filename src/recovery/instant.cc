#include "recovery/instant.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "util/coding.h"
#include "util/string_util.h"
#include "wal/log_record.h"

namespace mmdb {

namespace {

const char* TriggerName(InstantRecovery::LoadTrigger trigger) {
  switch (trigger) {
    case InstantRecovery::LoadTrigger::kTouch:
      return "touch";
    case InstantRecovery::LoadTrigger::kBackground:
      return "background";
    case InstantRecovery::LoadTrigger::kForce:
      return "force";
  }
  return "unknown";
}

}  // namespace

InstantRecovery::InstantRecovery(InstantRecoveryPlan plan,
                                 const SystemParams& params,
                                 BackupStore* backup, Database* db,
                                 CpuMeter* meter, MetricsRegistry* metrics,
                                 Tracer* tracer, AuditJournal* audit)
    : plan_(std::move(plan)),
      params_(params),
      backup_(backup),
      db_(db),
      meter_(meter),
      metrics_(metrics),
      tracer_(tracer),
      audit_(audit),
      num_segments_(db->num_segments()),
      disks_(params.disk) {
  availability_.assign(num_segments_, -1.0);
  submit_time_.assign(num_segments_, 0.0);
  touch_count_.assign(num_segments_, 0);
  loaded_.assign(num_segments_, false);
  announced_.assign(num_segments_, false);
  unsubmitted_ = plan_.have_checkpoint ? num_segments_ : 0;
}

void InstantRecovery::StartClock(double now) {
  if (clock_started_) return;
  clock_started_ = true;
  start_ = now;
  last_completion_ = now;
  if (!plan_.have_checkpoint) {
    // Cold start: there is no backup to read, so every segment is
    // "available" the instant the plan is — only its REDO replay remains.
    for (SegmentId s = 0; s < num_segments_; ++s) {
      availability_[s] = now;
      submit_time_[s] = now;
      due_.push_back(s);
    }
    schedule_complete_ = true;
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
  if (inflight_.empty() && unsubmitted_ == 0) schedule_complete_ = true;
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
  // Swap out the work list first: a fallback inside Materialize may
  // re-materialize other segments, and due entries must not be lost.
  std::vector<SegmentId> work;
  work.swap(due_);
  for (SegmentId s : work) {
    if (loaded_[s]) continue;
    MMDB_RETURN_IF_ERROR(Materialize(s, now, LoadTrigger::kBackground));
  }
  return Status::OK();
}

Status InstantRecovery::ReplayFrames(const std::vector<std::size_t>& frames,
                                     bool use_ext_committed,
                                     ApplyStats* out) {
  const LogReader& reader = plan_.reader;
  for (std::size_t frame : frames) {
    MMDB_ASSIGN_OR_RETURN(LogRecord r, reader.RecordAtIndex(frame));
    const bool committed =
        plan_.committed.count(r.txn_id) != 0 ||
        (use_ext_committed && ext_committed_.count(r.txn_id) != 0);
    if (!committed) continue;
    bool applied = false;
    if (r.type == LogRecordType::kUpdate) {
      if (r.record_id >= db_->num_records() ||
          r.image.size() != db_->record_bytes()) {
        return CorruptionError(StringPrintf(
            "update record for txn %llu is malformed",
            static_cast<unsigned long long>(r.txn_id)));
      }
      db_->WriteRecord(r.record_id, r.image);
      ++out->full_applies;
      applied = true;
    } else if (r.type == LogRecordType::kDelta) {
      if (r.record_id >= db_->num_records() ||
          r.field_offset + 8 > db_->record_bytes()) {
        return CorruptionError(StringPrintf(
            "delta record for txn %llu is malformed",
            static_cast<unsigned long long>(r.txn_id)));
      }
      std::string image(db_->ReadRecord(r.record_id));
      uint64_t field = DecodeFixed64(image.data() + r.field_offset);
      EncodeFixed64(image.data() + r.field_offset,
                    field + static_cast<uint64_t>(r.delta));
      db_->WriteRecord(r.record_id, image);
      ++out->delta_applies;
      applied = true;
    }
    if (applied) {
      if (out->first_lsn == kInvalidLsn) out->first_lsn = r.lsn;
      out->last_lsn = r.lsn;
      const uint32_t stream = reader.FrameStream(frame);
      if (std::find(out->streams.begin(), out->streams.end(), stream) ==
          out->streams.end()) {
        out->streams.push_back(stream);
      }
    }
  }
  return Status::OK();
}

Status InstantRecovery::PrepareFallback(const Status& trigger_status,
                                        SegmentId s, double now) {
  LogReader& reader = plan_.reader;
  RecoveryResult& result = plan_.result;
  RecoveryStats& stats = result.stats;

  // Locate the previous checkpoint's begin marker — the ping-pong
  // protocol guarantees its copy was complete before the newest one
  // started overwriting the other file.
  const CheckpointId prev_id = plan_.restore_id - 1;
  bool found_prev = false;
  uint64_t prev_begin_offset = 0;
  LogRecord prev_begin_record;
  if (prev_id >= 1) {
    MMDB_RETURN_IF_ERROR(
        reader.ScanBackward([&](const LogRecord& r, uint64_t offset) {
          if (r.type == LogRecordType::kBeginCheckpoint &&
              r.checkpoint_id == prev_id) {
            prev_begin_offset = offset;
            prev_begin_record = r;
            found_prev = true;
            return false;
          }
          return true;
        }));
  }
  if (!found_prev) {
    return CorruptionError(StringPrintf(
        "backup copy %u of checkpoint %llu is unreadable (%s) and no "
        "older complete checkpoint is reachable in the log",
        plan_.restore_copy, static_cast<unsigned long long>(plan_.restore_id),
        trigger_status.message().c_str()));
  }
  for (const ActiveTxnEntry& e : prev_begin_record.active_txns) {
    if (e.first_lsn != kInvalidLsn) {
      return NotSupportedError(
          "active transaction with pre-marker log records; update-time "
          "logging is not used by this engine");
    }
  }

  // DELTA records anywhere in the longer suffix force a full reload from
  // the previous copy (logical REDO demands an exact snapshot at the
  // replay start point) — the same rule as blocking recovery.
  bool suffix_has_delta = false;
  MMDB_RETURN_IF_ERROR(
      reader.ScanForward(prev_begin_offset, [&](const LogRecord& r, uint64_t) {
        if (r.type == LogRecordType::kDelta) {
          suffix_has_delta = true;
          return false;
        }
        return true;
      }));

  // Scan the extension [prev begin marker, newest begin marker) into
  // per-segment buckets plus the overflow bucket, and collect its
  // commits. Extension data frames may belong to transactions whose
  // commit record lies in the MAIN suffix, so extension replay honors
  // the union of both committed sets; main frames never need the
  // extension's commits (a commit is a transaction's last record, so a
  // main-suffix data frame's commit is also in the main suffix).
  MMDB_ASSIGN_OR_RETURN(std::size_t prev_start_frame,
                        reader.FrameIndexAt(prev_begin_offset));
  const std::size_t num_buckets = static_cast<std::size_t>(num_segments_) + 1;
  const std::size_t overflow_bucket = num_buckets - 1;
  ext_buckets_.assign(num_buckets, {});
  const uint64_t records_per_segment = params_.db.records_per_segment();
  uint64_t ext_frames = 0;
  for (std::size_t frame = prev_start_frame; frame < plan_.start_frame;
       ++frame) {
    LogRecordHeader h;
    MMDB_RETURN_IF_ERROR(reader.HeaderAt(frame, &h));
    ++ext_frames;
    if (h.type == LogRecordType::kCommit) {
      ext_committed_.insert(h.txn_id);
    } else if (h.type == LogRecordType::kUpdate ||
               h.type == LogRecordType::kDelta) {
      std::size_t b = static_cast<std::size_t>(std::min<uint64_t>(
          h.record_id / records_per_segment, overflow_bucket));
      ext_buckets_[b].push_back(frame);
    }
  }

  // Validate every extension frame exactly as blocking recovery's replay
  // would (decode errors, malformed checks on committed frames) and
  // tally the per-segment applies — the lineage/stat refinements the
  // longer suffix adds to EVERY segment, not just the failed one.
  ext_stats_.assign(num_buckets, ApplyStats{});
  uint64_t ext_full = 0;
  uint64_t ext_delta = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    ApplyStats& es = ext_stats_[b];
    for (std::size_t frame : ext_buckets_[b]) {
      MMDB_ASSIGN_OR_RETURN(LogRecord r, reader.RecordAtIndex(frame));
      const bool committed = plan_.committed.count(r.txn_id) != 0 ||
                             ext_committed_.count(r.txn_id) != 0;
      if (!committed) continue;
      if (r.type == LogRecordType::kUpdate) {
        if (r.record_id >= db_->num_records() ||
            r.image.size() != db_->record_bytes()) {
          return CorruptionError(StringPrintf(
              "update record for txn %llu is malformed",
              static_cast<unsigned long long>(r.txn_id)));
        }
        ++es.full_applies;
      } else if (r.type == LogRecordType::kDelta) {
        if (r.record_id >= db_->num_records() ||
            r.field_offset + 8 > db_->record_bytes()) {
          return CorruptionError(StringPrintf(
              "delta record for txn %llu is malformed",
              static_cast<unsigned long long>(r.txn_id)));
        }
        ++es.delta_applies;
      } else {
        continue;
      }
      if (es.first_lsn == kInvalidLsn) es.first_lsn = r.lsn;
      es.last_lsn = r.lsn;
      const uint32_t stream = reader.FrameStream(frame);
      if (std::find(es.streams.begin(), es.streams.end(), stream) ==
          es.streams.end()) {
        es.streams.push_back(stream);
      }
      if (b != overflow_bucket) {
        ext_full += r.type == LogRecordType::kUpdate ? 1 : 0;
        ext_delta += r.type == LogRecordType::kDelta ? 1 : 0;
      }
    }
  }

  if (audit_ != nullptr) {
    const std::string trigger = trigger_status.ToString();
    audit_->Record("recovery.fallback", now, [&](JsonWriter& w) {
      w.Key("from_checkpoint");
      w.Uint(plan_.restore_id);
      w.Key("from_copy");
      w.Uint(plan_.restore_copy);
      w.Key("to_checkpoint");
      w.Uint(prev_id);
      w.Key("to_copy");
      w.Uint(BackupStore::CopyFor(prev_id));
      w.Key("trigger");
      w.String(trigger);
      w.Key("failed_segments");
      w.BeginArray();
      w.Uint(s);
      w.EndArray();
      w.Key("full_reload");
      w.Bool(suffix_has_delta);
    });
  }

  // Refine the modeled stats to the longer suffix, exactly as blocking
  // recovery computes them. The backup-phase duration only changes on a
  // full reload: blocking submits one modeled read per SUCCESSFUL
  // segment read, and a partial retry re-reads each failed segment once,
  // so the submission count stays num_segments.
  fallback_prev_id_ = prev_id;
  fallback_prev_copy_ = BackupStore::CopyFor(prev_id);
  stats.checkpoint_id = prev_id;
  stats.copy = fallback_prev_copy_;
  stats.fell_back_to_older_copy = true;
  stats.log_bytes_read = result.log_valid_bytes > prev_begin_offset
                             ? result.log_valid_bytes - prev_begin_offset
                             : 0;
  {
    DiskArrayModel log_disks(params_.disk.LogArray());
    constexpr uint64_t kChunkWords = 64 * 1024;
    uint64_t log_words =
        (stats.log_bytes_read + kWordBytes - 1) / kWordBytes;
    for (uint64_t w = 0; w < log_words; w += kChunkWords) {
      log_disks.Submit(0.0, std::min(kChunkWords, log_words - w));
    }
    stats.log_read_seconds = std::max(log_disks.AllIdleTime(), 0.0);
  }
  stats.records_scanned += ext_frames;
  stats.txns_redone = 0;
  {
    std::unordered_set<TxnId> all_committed = plan_.committed;
    for (TxnId t : ext_committed_) all_committed.insert(t);
    stats.txns_redone = all_committed.size();
  }
  stats.updates_applied += ext_full + ext_delta;
  const double ext_instructions =
      params_.costs.move_per_word *
          static_cast<double>(params_.db.record_words) *
          static_cast<double>(ext_full) +
      (8.0 / kWordBytes) * static_cast<double>(ext_delta);
  meter_->Charge(CpuCategory::kRecovery, ext_instructions);
  stats.replay_cpu_seconds += params_.InstructionsToSeconds(ext_instructions);

  // The replay fan-out now spans every bucket with main OR extension
  // frames (what blocking's longer-suffix pass 2 would have seen).
  uint64_t fanout = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    if (!plan_.buckets[b].empty() || !ext_buckets_[b].empty()) ++fanout;
  }
  plan_.replay_buckets = fanout;

  // Fold the extension applies into every touched segment's lineage:
  // extension frames replay BEFORE the main suffix, so they supply the
  // first LSN and lead the stream order.
  for (std::size_t b = 0; b < static_cast<std::size_t>(num_segments_); ++b) {
    const ApplyStats& es = ext_stats_[b];
    if (es.full_applies + es.delta_applies == 0) continue;
    SegmentLineage& l = result.lineage[b];
    l.frames += es.full_applies + es.delta_applies;
    if (es.first_lsn != kInvalidLsn) l.first_lsn = es.first_lsn;
    if (l.last_lsn == kInvalidLsn) l.last_lsn = es.last_lsn;
    std::vector<uint32_t> streams = es.streams;
    for (uint32_t st : l.streams) {
      if (std::find(streams.begin(), streams.end(), st) == streams.end()) {
        streams.push_back(st);
      }
    }
    l.streams = std::move(streams);
  }

  fallback_prepared_ = true;
  full_reload_ = suffix_has_delta;

  if (full_reload_) {
    // Blocking recovery probes every newest-copy segment before deciding,
    // counts each successful read, then reloads ALL segments from the
    // previous copy: 2N - failures modeled submissions and loads.
    uint64_t first_pass_failures = 0;
    std::string scratch;
    for (SegmentId i = 0; i < num_segments_; ++i) {
      Status st = i == s ? trigger_status
                         : backup_->ReadSegment(plan_.restore_copy, i,
                                                &scratch);
      if (st.ok()) continue;
      if (!st.IsCorruption() && !st.IsIoError()) return st;
      ++first_pass_failures;
    }
    stats.segments_loaded =
        2 * static_cast<uint64_t>(num_segments_) - first_pass_failures;
    stats.segments_retried = num_segments_;
    {
      DiskArrayModel backup_disks(params_.disk);
      for (uint64_t i = 0; i < stats.segments_loaded; ++i) {
        backup_disks.Submit(0.0, params_.db.segment_words);
      }
      stats.backup_read_seconds = std::max(backup_disks.AllIdleTime(), 0.0);
    }
    for (SegmentId i = 0; i < num_segments_; ++i) {
      SegmentLineage& l = result.lineage[i];
      l.checkpoint_id = prev_id;
      l.copy = fallback_prev_copy_;
      l.retried = true;
    }
  }

  stats.total_seconds = stats.backup_read_seconds + stats.log_read_seconds +
                        stats.replay_cpu_seconds;

  // Segments already served their main-suffix replay without the
  // extension; re-materialize them so their bytes match the longer
  // suffix (extension first, then main — log order). With full images
  // this re-run is idempotent-converging; with deltas every segment
  // reloads from the previous snapshot first, so it is exact.
  for (SegmentId i = 0; i < num_segments_; ++i) {
    if (!loaded_[i]) continue;
    loaded_[i] = false;
    --loaded_count_;
    MMDB_RETURN_IF_ERROR(Materialize(i, now, LoadTrigger::kBackground));
  }
  if (full_reload_) {
    // The previous snapshot must be in place for every segment before
    // any further delta replay; load the rest of the database now.
    for (SegmentId i = 0; i < num_segments_; ++i) {
      if (loaded_[i] || i == s) continue;
      MMDB_RETURN_IF_ERROR(Materialize(i, now, LoadTrigger::kBackground));
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
  bool retried = false;
  if (plan_.have_checkpoint) {
    // The backup image lands straight in the primary slot. A CRC-failed
    // read leaves unspecified bytes there until the older-copy retry
    // overwrites them; the segment stays latched until then.
    const std::span<char> slot = db_->MutableSegment(s);
    if (full_reload_) {
      MMDB_RETURN_IF_ERROR(
          backup_->ReadSegmentInto(fallback_prev_copy_, s, slot));
      retried = true;
    } else {
      Status st = backup_->ReadSegmentInto(plan_.restore_copy, s, slot);
      if (!st.ok()) {
        // Only CRC damage and device faults are survivable via the
        // older copy; anything else is fatal.
        if (!st.IsCorruption() && !st.IsIoError()) return st;
        if (!fallback_prepared_) {
          MMDB_RETURN_IF_ERROR(PrepareFallback(st, s, now));
          // A full reload materialized everything, this segment included.
          if (loaded_[s]) return Status::OK();
        }
        Status st2 = backup_->ReadSegmentInto(
            full_reload_ ? fallback_prev_copy_
                         : BackupStore::CopyFor(fallback_prev_id_),
            s, slot);
        if (!st2.ok()) return st2;  // neither copy readable: fatal
        retried = true;
      }
    }
    if (retried && !full_reload_) {
      RecoveryStats& stats = plan_.result.stats;
      SegmentLineage& l = plan_.result.lineage[s];
      if (!l.retried) {
        l.checkpoint_id = fallback_prev_id_;
        l.copy = fallback_prev_copy_;
        l.retried = true;
        ++stats.segments_retried;
      }
    }
  }
  if (fallback_prepared_) {
    ApplyStats ignored;
    MMDB_RETURN_IF_ERROR(
        ReplayFrames(ext_buckets_[s], /*use_ext_committed=*/true, &ignored));
  }
  ApplyStats main_applies;
  MMDB_RETURN_IF_ERROR(
      ReplayFrames(plan_.buckets[s], /*use_ext_committed=*/false,
                   &main_applies));
  loaded_[s] = true;
  ++loaded_count_;

  if (!announced_[s]) {
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
    if (audit_ != nullptr) {
      audit_->Record("recovery.segment_on_demand", now, [&](JsonWriter& w) {
        w.Key("segment");
        w.Uint(s);
        w.Key("trigger");
        w.String(TriggerName(trigger));
        w.Key("checkpoint");
        w.Uint(l.checkpoint_id);
        w.Key("copy");
        w.Uint(l.copy);
        w.Key("retried");
        w.Bool(l.retried);
        w.Key("frames");
        w.Uint(l.frames);
        w.Key("order");
        w.Uint(order);
      });
    }
    if (tracer_ != nullptr) {
      const bool scheduled = availability_[s] >= 0.0;
      const double submit = scheduled ? submit_time_[s] : now;
      const double avail =
          scheduled ? std::max(availability_[s], submit) : now;
      tracer_->Record(TraceEventType::kRecoverySegmentOnDemand, submit, avail,
                      static_cast<int64_t>(s),
                      static_cast<int64_t>(trigger),
                      static_cast<int64_t>(order));
    }
    if (metrics_ != nullptr) {
      metrics_->counter("recovery.segments_on_demand")->Increment();
    }
  }
  (void)main_applies;
  return Status::OK();
}

void InstantRecovery::PublishFinal(double crash_now) {
  RecoveryManager::Publish(metrics_, tracer_, plan_.result.stats, crash_now,
                           plan_.replay_buckets);
}

}  // namespace mmdb

#include "recovery/recovery_manager.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "sim/disk_model.h"
#include "util/string_util.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace mmdb {

double ReplayInstructions(const SystemParams& params, uint64_t full_applies,
                          uint64_t delta_applies) {
  return params.costs.move_per_word *
             static_cast<double>(params.db.record_words) *
             static_cast<double>(full_applies) +
         (8.0 / kWordBytes) * static_cast<double>(delta_applies);
}

void ModelRecoveryTimes(const SystemParams& params, double now,
                        uint64_t full_applies, uint64_t delta_applies,
                        RecoveryStats* stats) {
  // Fresh disk service state: the arrays restart with the machine.
  DiskArrayModel backup_disks(params.disk);
  for (uint64_t i = 0; i < stats->segments_loaded; ++i) {
    backup_disks.Submit(now, params.db.segment_words);
  }
  const double backup_done = std::max(now, backup_disks.AllIdleTime());
  stats->backup_read_seconds = backup_done - now;

  // The log read is sequential from the marker to the end of the log, in
  // large striped chunks across the log disks.
  DiskArrayModel log_disks(params.disk.LogArray());
  constexpr uint64_t kChunkWords = 64 * 1024;  // 256 KiB per device request
  const uint64_t log_words =
      (stats->log_bytes_read + kWordBytes - 1) / kWordBytes;
  for (uint64_t w = 0; w < log_words; w += kChunkWords) {
    log_disks.Submit(backup_done, std::min(kChunkWords, log_words - w));
  }
  const double log_done = std::max(log_disks.AllIdleTime(), backup_done);
  stats->log_read_seconds = log_done - backup_done;

  stats->replay_cpu_seconds = params.InstructionsToSeconds(
      ReplayInstructions(params, full_applies, delta_applies));
  // This grouping, not a three-way sum: float addition is not
  // associative, and every equivalence gate compares total_seconds
  // exactly.
  stats->total_seconds = (log_done - now) + stats->replay_cpu_seconds;
}

StatusOr<RedoScan> ScanRedo(const LogReader& reader, std::size_t start,
                            const DatabaseParams& db,
                            std::vector<SegmentLineage>* lineage) {
  const uint64_t num_records = db.num_records();
  const uint64_t record_bytes = db.record_bytes();

  // Pass over the frames: the tallies, the committed set and the data
  // frames. A data frame whose operand lies outside the database is
  // flagged here and rejected below only if its transaction committed.
  struct DataFrame {
    std::size_t frame;
    RecordId record_id;
    TxnId txn_id;
    Lsn lsn;
    bool delta;
    bool malformed;
  };
  RedoScan out;
  std::unordered_set<TxnId> committed;
  std::vector<DataFrame> data;
  for (std::size_t frame = start; frame < reader.num_frames(); ++frame) {
    LogRecordHeader h;
    MMDB_RETURN_IF_ERROR(reader.HeaderAt(frame, &h));
    ++out.records;
    if (out.max_lsn == kInvalidLsn || h.lsn > out.max_lsn) out.max_lsn = h.lsn;
    if (h.type == LogRecordType::kCommit) {
      committed.insert(h.txn_id);
    } else if (h.type == LogRecordType::kUpdate ||
               h.type == LogRecordType::kDelta) {
      const bool delta = h.type == LogRecordType::kDelta;
      const bool malformed =
          h.record_id >= num_records ||
          (delta ? h.field_offset + uint64_t{8} > record_bytes
                 : h.image_size != record_bytes);
      data.push_back(
          DataFrame{frame, h.record_id, h.txn_id, h.lsn, delta, malformed});
    }
  }
  out.txns = committed.size();

  // Bucket the committed data frames by segment, in log order — the order
  // each segment's replay relies on.
  const uint64_t records_per_segment = db.records_per_segment();
  out.buckets.assign(db.num_segments(), {});
  for (SegmentLineage& l : *lineage) {
    l.frames = 0;
    l.first_lsn = kInvalidLsn;
    l.last_lsn = kInvalidLsn;
  }
  for (const DataFrame& d : data) {
    out.has_delta = out.has_delta || d.delta;
    if (committed.count(d.txn_id) == 0) continue;
    if (d.malformed) {
      return CorruptionError(StringPrintf(
          "%s record for txn %llu is malformed", d.delta ? "delta" : "update",
          static_cast<unsigned long long>(d.txn_id)));
    }
    const SegmentId s = d.record_id / records_per_segment;
    out.buckets[s].push_back(d.frame);
    ++(d.delta ? out.delta_applies : out.full_applies);
    SegmentLineage& l = (*lineage)[s];
    ++l.frames;
    if (l.first_lsn == kInvalidLsn) l.first_lsn = d.lsn;
    l.last_lsn = d.lsn;
  }
  return out;
}

namespace {

// Engines before the single-log layout could split the REDO log into
// `<log_path>.<k>` stream files. Recovering such a directory from the log
// file alone would silently drop the commits the other streams carry.
Status RefuseStreamSiblings(Env* env, const std::string& log_path) {
  const size_t slash = log_path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : log_path.substr(0, slash);
  const std::string prefix = log_path.substr(slash + 1) + ".";
  std::vector<std::string> children;
  MMDB_RETURN_IF_ERROR(env->ListDir(dir, &children));
  std::sort(children.begin(), children.end());  // name the same file each run
  for (const std::string& child : children) {
    uint64_t k = 0;
    if (StartsWith(child, prefix) &&
        ParseNumber(std::string_view(child).substr(prefix.size()), &k) &&
        k >= 1) {
      return FailedPreconditionError(
          "'" + dir + "/" + child +
          "' is a stream of a multi-stream log, which this engine does not "
          "read; recovering from '" + log_path + "' alone would lose its "
          "commits");
    }
  }
  return Status::OK();
}

}  // namespace

RecoveryManager::RecoveryManager(Env* env, const SystemParams& params,
                                 CpuMeter* meter, EventSink events)
    : env_(env), params_(params), meter_(meter), events_(events) {}

void RecoveryManager::Publish(MetricsRegistry* metrics,
                              const RecoveryStats& stats) {
  if (metrics != nullptr) {
    metrics->counter("recovery.runs")->Increment();
    metrics->counter("recovery.segments_loaded")
        ->Increment(stats.segments_loaded);
    metrics->counter("recovery.segments_retried")
        ->Increment(stats.segments_retried);
    metrics->counter("recovery.log_bytes_read")
        ->Increment(stats.log_bytes_read);
    metrics->counter("recovery.updates_applied")
        ->Increment(stats.updates_applied);
    metrics->counter("recovery.txns_redone")->Increment(stats.txns_redone);
    if (stats.fell_back_to_older_copy) {
      metrics->counter("recovery.copy_fallbacks")->Increment();
    }
    metrics->timer("recovery.backup_read_seconds")
        ->Record(stats.backup_read_seconds);
    metrics->timer("recovery.log_read_seconds")
        ->Record(stats.log_read_seconds);
    metrics->timer("recovery.replay_cpu_seconds")
        ->Record(stats.replay_cpu_seconds);
    metrics->timer("recovery.total_seconds")->Record(stats.total_seconds);
  }
}

Status RecoveryManager::ChooseRestore(BackupStore* backup,
                                      const std::string& log_path,
                                      Database* db, double now,
                                      RecoveryPlan* plan) {
  RecoveryResult* result = &plan->result;
  // --- Phase 1: decide which checkpoint to restore ----------------------
  // Two sources name the last complete checkpoint: the metadata file
  // (renamed into place after the end marker is durable) and the log's own
  // backward scan for an end-checkpoint marker (the paper's rule). The
  // metadata may legitimately lag: a crash can land after the end marker
  // reached stable storage but before the metadata rename, and failed
  // metadata rewrites degrade gracefully (the checkpoint still counts), so
  // the lag can span several checkpoints. The log is then ahead, and the
  // newer checkpoint IS complete (its segment writes all finished before
  // its end marker was cut), so the log wins. Metadata NEWER than the
  // log's last end marker is corruption.
  MMDB_ASSIGN_OR_RETURN(LogReader reader, LogReader::Open(env_, log_path));
  result->log_base_offset = reader.base_offset();
  result->log_valid_bytes = reader.valid_bytes();
  // What the log reopen will keep: the valid prefix, and whether a torn
  // tail past it is cut off.
  events_.Emit({TraceEventType::kRecoveryLog, now, 0.0,
                {reader.valid_bytes(), reader.truncated_tail()}});

  StatusOr<CheckpointMeta> meta = backup->ReadMeta();
  if (!meta.ok() && !meta.status().IsNotFound()) return meta.status();
  StatusOr<LogReader::CheckpointMarker> marker = reader.FindCheckpointBegin();
  if (!marker.ok() && !marker.status().IsNotFound()) return marker.status();

  bool have_checkpoint = false;
  CheckpointId restore_id = 0;
  uint32_t restore_copy = 0;
  uint64_t replay_from_offset = 0;
  // Which source named the restored checkpoint: the metadata when it and
  // the log agree, the log when its end marker overruled lagging/missing
  // metadata, none for a cold start.
  RestoreSource source = RestoreSource::kNone;
  if (marker.ok()) {
    if (meta.ok() && meta->checkpoint_id == marker->checkpoint_id) {
      if (meta->log_offset != marker->begin_offset) {
        return CorruptionError(StringPrintf(
            "checkpoint metadata offset %llu disagrees with the log's "
            "begin marker at %llu for checkpoint %llu",
            static_cast<unsigned long long>(meta->log_offset),
            static_cast<unsigned long long>(marker->begin_offset),
            static_cast<unsigned long long>(meta->checkpoint_id)));
      }
      restore_copy = meta->copy;
      source = RestoreSource::kMeta;
    } else if (!meta.ok() || meta->checkpoint_id < marker->checkpoint_id) {
      // Metadata lags the log (or is missing for the very first
      // checkpoint): a crash can land after the end marker reached stable
      // storage but before the metadata rename, and with graceful
      // degradation of failed metadata rewrites the lag can exceed one
      // checkpoint. The end marker always certifies a complete copy, so
      // trust the log and repair the metadata so later restarts (and log
      // truncation) see a consistent pair.
      restore_copy = BackupStore::CopyFor(marker->checkpoint_id);
      CheckpointMeta repaired;
      repaired.checkpoint_id = marker->checkpoint_id;
      repaired.copy = restore_copy;
      repaired.log_offset = marker->begin_offset;
      repaired.begin_lsn = marker->begin_record.lsn;
      repaired.tau = marker->begin_record.timestamp;
      MMDB_RETURN_IF_ERROR(backup->CommitCheckpoint(repaired));
      source = RestoreSource::kLog;
    } else {
      return CorruptionError(StringPrintf(
          "checkpoint metadata (id=%llu) and log (id=%llu) are "
          "irreconcilable",
          static_cast<unsigned long long>(
              meta.ok() ? meta->checkpoint_id : 0),
          static_cast<unsigned long long>(marker->checkpoint_id)));
    }
    have_checkpoint = true;
    restore_id = marker->checkpoint_id;
    replay_from_offset = marker->begin_offset;
    result->newest_end_id = marker->checkpoint_id;
    // Fuzzy checkpoints may require scanning back to the earliest
    // transaction active at the marker. Under commit-time logging an
    // active transaction has no log records yet, so the extension is
    // always empty; verify that invariant.
    for (const ActiveTxnEntry& e : marker->begin_record.active_txns) {
      if (e.first_lsn != kInvalidLsn) {
        return NotSupportedError(
            "active transaction with pre-marker log records; update-time "
            "logging is not used by this engine");
      }
    }
  } else if (meta.ok()) {
    // The metadata survived but the log lost the completion marker the
    // rename was ordered after: impossible without corruption.
    return CorruptionError(
        "checkpoint metadata names a checkpoint but the log has no "
        "completed checkpoint");
  } else {
    // Cold start: REDO rebuilds the database from zeros, and the primary
    // may still hold a crashed incarnation's bytes. A warm restart needs
    // no clear: every restart path overwrites each segment from a backup
    // copy before replaying into it.
    db->Clear();
  }
  events_.Emit({TraceEventType::kRecoveryPlan, now, 0.0,
                {restore_id, restore_copy, replay_from_offset,
                 static_cast<uint64_t>(source)}});

  // Seed every segment's lineage with the plan; the fallback protocol and
  // REDO replay refine individual entries.
  result->lineage.assign(db->num_segments(), SegmentLineage{});
  if (have_checkpoint) {
    for (SegmentLineage& l : result->lineage) {
      l.checkpoint_id = restore_id;
      l.copy = restore_copy;
    }
  }

  plan->reader = std::move(reader);
  plan->have_checkpoint = have_checkpoint;
  plan->restore_id = restore_id;
  plan->restore_copy = restore_copy;
  result->replay_from_offset = replay_from_offset;
  return Status::OK();
}

StatusOr<RecoveryPlan> RecoveryManager::Plan(BackupStore* backup,
                                             const std::string& log_path,
                                             Database* db,
                                             SegmentTable* segments,
                                             double now) {
  RecoveryPlan plan;
  plan.crash_time = now;
  RecoveryResult& result = plan.result;
  RecoveryStats& stats = result.stats;

  MMDB_RETURN_IF_ERROR(RefuseStreamSiblings(env_, log_path));
  MMDB_RETURN_IF_ERROR(ChooseRestore(backup, log_path, db, now, &plan));
  const LogReader& reader = plan.reader;

  // Classification scan of the replay suffix: the committed set, the max
  // LSN, the per-segment buckets, and the lineage and apply tallies.
  const auto scan_start = std::chrono::steady_clock::now();
  std::size_t start_frame = 0;
  if (reader.num_frames() > 0) {
    MMDB_ASSIGN_OR_RETURN(start_frame,
                          reader.FrameIndexAt(result.replay_from_offset));
  }
  MMDB_ASSIGN_OR_RETURN(plan.redo, ScanRedo(reader, start_frame, params_.db,
                                            &result.lineage));
  // The suffix ends at the newest frame, so its max is the log's.
  result.last_lsn = plan.redo.max_lsn;
  stats.log_scan_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    scan_start)
          .count();

  // Modeled stats, closed-form: one backup read per segment, the suffix
  // from the marker, and the replay tallies. The recovery CPU is charged
  // here, once; loading segments later moves the bytes but charges
  // nothing.
  if (plan.have_checkpoint) {
    stats.checkpoint_id = plan.restore_id;
    stats.copy = plan.restore_copy;
    stats.segments_loaded = db->num_segments();
  }
  stats.log_bytes_read = result.log_valid_bytes > result.replay_from_offset
                             ? result.log_valid_bytes -
                                   result.replay_from_offset
                             : 0;
  stats.records_scanned = plan.redo.records;
  stats.updates_applied = plan.redo.full_applies + plan.redo.delta_applies;
  stats.txns_redone = plan.redo.txns;
  ModelRecoveryTimes(params_, now, plan.redo.full_applies,
                     plan.redo.delta_applies, &stats);
  meter_->Charge(CpuCategory::kRecovery,
                 ReplayInstructions(params_, plan.redo.full_applies,
                                    plan.redo.delta_applies));

  // Control state restarts conservatively: everything dirty (the next two
  // checkpoints will rewrite both copies in partial mode), colors white,
  // no old copies, no LSNs.
  segments->Reset();
  segments->MarkAllDirty();
  return plan;
}

}  // namespace mmdb

#include "recovery/recovery_manager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <unordered_set>
#include <utility>

#include "parallel/parallel.h"
#include "sim/disk_model.h"
#include "util/coding.h"
#include "util/string_util.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace mmdb {

namespace {

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

// Chunk size targeting ~4 chunks per worker: coarse enough that enqueue
// overhead is amortized, fine enough that a straggler chunk cannot idle
// the rest of the pool for long. The chunk DECOMPOSITION never affects
// results — every merge below is by index or a commutative reduction — so
// this is purely a scheduling knob.
std::size_t ChunkFor(std::size_t n, uint32_t threads) {
  std::size_t target = static_cast<std::size_t>(threads) * 4;
  return std::max<std::size_t>(1, (n + target - 1) / target);
}

// Per-thread busy-time sink for the wall-clock breakdown. Nanosecond
// integer accumulators (not atomic<double>) so concurrent adds stay
// lock-free and exact.
class BusyMeter {
 public:
  explicit BusyMeter(uint32_t threads) : ns_(threads) {}

  // Charges the elapsed time since `start` to the calling thread's slot.
  void Charge(WallClock::time_point start) {
    int w = ThreadPool::CurrentWorkerIndex();
    std::size_t slot = w < 0 ? 0 : static_cast<std::size_t>(w);
    if (slot >= ns_.size()) slot = 0;
    auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
        WallClock::now() - start);
    ns_[slot].fetch_add(static_cast<uint64_t>(d.count()),
                        std::memory_order_relaxed);
  }

  std::vector<double> Seconds() const {
    std::vector<double> out;
    out.reserve(ns_.size());
    for (const auto& v : ns_) {
      out.push_back(static_cast<double>(v.load(std::memory_order_relaxed)) *
                    1e-9);
    }
    return out;
  }

 private:
  std::vector<std::atomic<uint64_t>> ns_;
};

}  // namespace

RecoveryManager::RecoveryManager(Env* env, const SystemParams& params,
                                 CpuMeter* meter, MetricsRegistry* metrics,
                                 Tracer* tracer, ThreadPool* pool)
    : env_(env),
      params_(params),
      meter_(meter),
      metrics_(metrics),
      tracer_(tracer),
      pool_(pool) {}

uint32_t RecoveryManager::ResolveThreads(uint32_t configured) {
  const char* env = std::getenv("MMDB_RECOVERY_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      return static_cast<uint32_t>(parsed);
    }
  }
  if (configured != 0) return configured;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

void RecoveryManager::Publish(MetricsRegistry* metrics, Tracer* tracer,
                              const RecoveryStats& stats, double now,
                              uint64_t replay_buckets) {
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
  if (tracer != nullptr) {
    tracer->Record(
        TraceEventType::kRecoveryPhase, now, stats.backup_read_seconds,
        static_cast<int64_t>(RecoveryPhase::kBackupLoad),
        static_cast<int64_t>(stats.segments_loaded),
        static_cast<int64_t>(stats.copy));
    tracer->Record(TraceEventType::kRecoveryPhase, now,
                   stats.log_read_seconds,
                   static_cast<int64_t>(RecoveryPhase::kLogRead),
                   static_cast<int64_t>(stats.log_bytes_read));
    tracer->Record(TraceEventType::kRecoveryPhase, now,
                   stats.replay_cpu_seconds,
                   static_cast<int64_t>(RecoveryPhase::kReplay),
                   static_cast<int64_t>(stats.updates_applied),
                   static_cast<int64_t>(stats.txns_redone));
    tracer->Record(TraceEventType::kRecoveryFanout, now, 0.0,
                   static_cast<int64_t>(stats.threads_used),
                   static_cast<int64_t>(stats.segments_loaded),
                   static_cast<int64_t>(replay_buckets));
    tracer->Record(TraceEventType::kRecoveryEnd, now, stats.total_seconds,
                   static_cast<int64_t>(stats.checkpoint_id));
  }
}

StatusOr<RecoveryResult> RecoveryManager::Recover(
    BackupStore* backup, const std::vector<std::string>& log_paths,
    Database* db, SegmentTable* segments, double now) {
  StatusOr<RecoveryResult> result =
      RecoverImpl(backup, log_paths, db, segments, now);
  if (audit_ != nullptr) {
    if (!result.ok()) {
      const std::string error = result.status().ToString();
      audit_->Record("recovery.error", now, [&](JsonWriter& w) {
        w.Key("error");
        w.String(error);
      });
      audit_->Sync();
    } else {
      const RecoveryResult& r = *result;
      audit_->Record("recovery.lineage", now, [&](JsonWriter& w) {
        w.Key("lineage");
        WriteLineageJson(r.lineage, &w);
      });
      audit_->Record("recovery.end", now, [&](JsonWriter& w) {
        w.Key("checkpoint");
        w.Uint(r.stats.checkpoint_id);
        w.Key("copy");
        w.Uint(r.stats.copy);
        w.Key("fell_back");
        w.Bool(r.stats.fell_back_to_older_copy);
        w.Key("last_lsn");
        w.Uint(r.last_lsn);
        w.Key("applies");
        w.Uint(r.stats.updates_applied);
        w.Key("txns");
        w.Uint(r.stats.txns_redone);
      });
      audit_->Sync();
    }
  }
  return result;
}

StatusOr<RecoveryManager::RestorePlan> RecoveryManager::BuildRestorePlan(
    BackupStore* backup, const std::vector<std::string>& log_paths,
    Database* db, double now, RecoveryResult* result) {
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
  MMDB_ASSIGN_OR_RETURN(
      LogReader reader,
      LogReader::OpenStreams(env_, log_paths, &result->stream_valid_bytes));
  result->log_valid_bytes = reader.valid_bytes();
  if (audit_ != nullptr) {
    // What the stream merge salvaged: the valid prefix per stream, the
    // CRC-clean frames each stream lost past the merge frontier, and
    // whether a gang batch was torn across streams at crash time.
    audit_->Record("recovery.streams", now, [&](JsonWriter& w) {
      w.Key("valid_bytes");
      w.BeginArray();
      for (uint64_t v : result->stream_valid_bytes) w.Uint(v);
      w.EndArray();
      w.Key("dropped_frames");
      w.BeginArray();
      for (uint64_t v : reader.stream_dropped_frames()) w.Uint(v);
      w.EndArray();
      w.Key("torn_gang");
      w.Bool(reader.torn_gang());
      w.Key("gap_lsn");
      w.Uint(reader.torn_gang_lsn());
    });
  }

  StatusOr<CheckpointMeta> meta = backup->ReadMeta();
  if (!meta.ok() && !meta.status().IsNotFound()) return meta.status();
  StatusOr<LogReader::CheckpointMarker> marker =
      reader.FindLastCompleteCheckpoint();
  if (!marker.ok() && !marker.status().IsNotFound()) return marker.status();

  bool have_checkpoint = false;
  CheckpointId restore_id = 0;
  uint32_t restore_copy = 0;
  uint64_t replay_from_offset = 0;
  // Which source named the restored checkpoint: "meta" when metadata and
  // log agree, "log" when the log's end marker overruled lagging/missing
  // metadata, "none" for a cold start.
  const char* plan_source = "none";
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
      plan_source = "meta";
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
      plan_source = "log";
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
  if (audit_ != nullptr) {
    audit_->Record("recovery.plan", now, [&](JsonWriter& w) {
      w.Key("checkpoint");
      w.Uint(restore_id);
      w.Key("copy");
      w.Uint(restore_copy);
      w.Key("begin_offset");
      w.Uint(replay_from_offset);
      w.Key("source");
      w.String(plan_source);
    });
  }

  // Seed every segment's lineage with the plan; the fallback protocol and
  // REDO replay refine individual entries.
  result->lineage.assign(db->num_segments(), SegmentLineage{});
  if (have_checkpoint) {
    for (SegmentLineage& l : result->lineage) {
      l.checkpoint_id = restore_id;
      l.copy = restore_copy;
    }
  }

  RestorePlan plan{std::move(reader)};
  plan.have_checkpoint = have_checkpoint;
  plan.restore_id = restore_id;
  plan.restore_copy = restore_copy;
  plan.replay_from_offset = replay_from_offset;
  return plan;
}

StatusOr<RecoveryResult> RecoveryManager::RecoverImpl(
    BackupStore* backup, const std::vector<std::string>& log_paths,
    Database* db, SegmentTable* segments, double now) {
  RecoveryResult result;
  RecoveryStats& stats = result.stats;
  const uint32_t threads =
      pool_ != nullptr ? static_cast<uint32_t>(pool_->num_threads()) : 1;
  stats.threads_used = threads;
  BusyMeter busy(threads);

  // Fresh disk service state: the array restarts with the machine.
  DiskArrayModel backup_disks(params_.disk);
  DiskArrayModel log_disks(params_.disk.LogArray());

  MMDB_ASSIGN_OR_RETURN(RestorePlan plan, BuildRestorePlan(backup, log_paths,
                                                           db, now, &result));
  LogReader& reader = plan.reader;
  const bool have_checkpoint = plan.have_checkpoint;
  CheckpointId restore_id = plan.restore_id;
  uint32_t restore_copy = plan.restore_copy;
  uint64_t replay_from_offset = plan.replay_from_offset;

  // --- Phase 2: load the chosen backup copy -----------------------------
  // Segments are independent byte ranges of both the copy file and the
  // primary, so the reads+CRC checks fan out across the pool in chunks.
  // Each segment is read straight into its primary slot and verified
  // there; a failed slot holds unspecified bytes until the older-copy
  // retry overwrites it, and no retry means the restart fails.
  // Per-segment failures are COLLECTED (not fail-fast): the fallback
  // protocol needs the complete failed set, and collecting makes the
  // outcome independent of worker scheduling. Modeled disk submissions
  // happen serially afterwards, one per successful read at time `now` —
  // exactly the sequence the serial path issued, so the modeled
  // backup_read_seconds is bit-identical for any thread count.
  WallClock::time_point backup_wall_start = WallClock::now();
  double backup_done = now;
  if (have_checkpoint) {
    // Reads segments `ids` of `copy_idx` into the primary. Failures land
    // in `failures` ordered by segment id.
    struct SegmentFailure {
      SegmentId segment;
      Status status;
    };
    auto load_segments = [&](uint32_t copy_idx,
                             const std::vector<SegmentId>& ids,
                             std::vector<SegmentFailure>* failures)
        -> Status {
      std::vector<Status> seg_status(ids.size());
      Status fan = ParallelFor(
          pool_, ids.size(), ChunkFor(ids.size(), threads),
          [&](std::size_t begin, std::size_t end) -> Status {
            WallClock::time_point start = WallClock::now();
            for (std::size_t i = begin; i < end; ++i) {
              seg_status[i] = backup->ReadSegmentInto(
                  copy_idx, ids[i], db->MutableSegment(ids[i]));
            }
            busy.Charge(start);
            return Status::OK();
          });
      MMDB_RETURN_IF_ERROR(fan);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (seg_status[i].ok()) {
          backup_disks.Submit(now, params_.db.segment_words);
          ++stats.segments_loaded;
        } else {
          failures->push_back(SegmentFailure{ids[i], seg_status[i]});
        }
      }
      return Status::OK();
    };

    std::vector<SegmentId> all_segments(db->num_segments());
    for (SegmentId s = 0; s < db->num_segments(); ++s) all_segments[s] = s;
    std::vector<SegmentFailure> failures;
    MMDB_RETURN_IF_ERROR(load_segments(restore_copy, all_segments, &failures));
    for (const SegmentFailure& f : failures) {
      // Only CRC damage and device faults are survivable via the older
      // copy; anything else (bad geometry, programming error) is fatal.
      if (!f.status.IsCorruption() && !f.status.IsIoError()) {
        return f.status;
      }
    }
    if (!failures.empty()) {
      // The newest copy has CRC-bad or unreadable segments (a torn
      // checkpoint tail, scribbled in-flight slots, or device faults).
      // The ping-pong protocol guarantees the PREVIOUS checkpoint's copy
      // was complete before this one started overwriting the other file,
      // so fall back to it and replay the longer log suffix from its
      // begin marker — which must still be in the log, since truncation
      // only ever cuts before the newest complete checkpoint's marker.
      CheckpointId prev_id = restore_id - 1;
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
            restore_copy, static_cast<unsigned long long>(restore_id),
            failures.front().status.message().c_str()));
      }
      for (const ActiveTxnEntry& e : prev_begin_record.active_txns) {
        if (e.first_lsn != kInvalidLsn) {
          return NotSupportedError(
              "active transaction with pre-marker log records; update-time "
              "logging is not used by this engine");
        }
      }
      // Retry protocol (DESIGN.md §14): with full-image (UPDATE) replay
      // only, re-reading JUST the failed segments from the previous copy
      // is sound — commit-time logging puts every post-prev-marker update
      // in the replay suffix, and full images are idempotent, so the
      // mixed-copy state converges to the same bytes. DELTA records are
      // logical additions and demand an exact snapshot at the replay
      // start point, so their presence in the suffix forces a full
      // reload of the previous copy.
      bool suffix_has_delta = false;
      MMDB_RETURN_IF_ERROR(reader.ScanForward(
          prev_begin_offset, [&](const LogRecord& r, uint64_t) {
            if (r.type == LogRecordType::kDelta) {
              suffix_has_delta = true;
              return false;
            }
            return true;
          }));
      std::vector<SegmentId> retry_ids;
      if (suffix_has_delta) {
        retry_ids = all_segments;
      } else {
        retry_ids.reserve(failures.size());
        for (const SegmentFailure& f : failures) {
          retry_ids.push_back(f.segment);
        }
      }
      if (audit_ != nullptr) {
        const std::string trigger = failures.front().status.ToString();
        audit_->Record("recovery.fallback", now, [&](JsonWriter& w) {
          w.Key("from_checkpoint");
          w.Uint(restore_id);
          w.Key("from_copy");
          w.Uint(restore_copy);
          w.Key("to_checkpoint");
          w.Uint(prev_id);
          w.Key("to_copy");
          w.Uint(BackupStore::CopyFor(prev_id));
          w.Key("trigger");
          w.String(trigger);
          w.Key("failed_segments");
          w.BeginArray();
          for (const SegmentFailure& f : failures) w.Uint(f.segment);
          w.EndArray();
          w.Key("full_reload");
          w.Bool(suffix_has_delta);
        });
      }
      // Every retried segment's bytes now come from the previous copy
      // (mixed-copy provenance when the retry set is partial).
      for (SegmentId s : retry_ids) {
        SegmentLineage& l = result.lineage[s];
        l.checkpoint_id = prev_id;
        l.copy = BackupStore::CopyFor(prev_id);
        l.retried = true;
      }
      restore_id = prev_id;
      restore_copy = BackupStore::CopyFor(prev_id);
      replay_from_offset = prev_begin_offset;
      stats.fell_back_to_older_copy = true;
      stats.segments_retried = retry_ids.size();
      // A failure here means neither copy is readable: fatal.
      std::vector<SegmentFailure> retry_failures;
      MMDB_RETURN_IF_ERROR(
          load_segments(restore_copy, retry_ids, &retry_failures));
      if (!retry_failures.empty()) return retry_failures.front().status;
    }
    stats.checkpoint_id = restore_id;
    stats.copy = restore_copy;
    backup_done = std::max(now, backup_disks.AllIdleTime());
  }
  stats.backup_read_seconds = backup_done - now;
  stats.backup_read_wall_seconds = SecondsSince(backup_wall_start);

  // The read is sequential from the marker to the end of the log, in large
  // striped chunks across the log disks.
  uint64_t log_bytes = result.log_valid_bytes > replay_from_offset
                           ? result.log_valid_bytes - replay_from_offset
                           : 0;
  stats.log_bytes_read = log_bytes;
  constexpr uint64_t kChunkWords = 64 * 1024;  // 256 KiB per device request
  uint64_t log_words = (log_bytes + kWordBytes - 1) / kWordBytes;
  double log_done = backup_done;
  for (uint64_t w = 0; w < log_words; w += kChunkWords) {
    log_done = log_disks.Submit(backup_done, std::min(kChunkWords,
                                                      log_words - w));
  }
  log_done = std::max(log_disks.AllIdleTime(), backup_done);
  stats.log_read_seconds = log_done - backup_done;

  // --- Phase 3: REDO replay ---------------------------------------------
  // Pass 1 — classification scan: shallow-decode every frame in the
  // replay suffix to find the committed set, the max LSN, and the
  // per-segment buckets for partitioned replay. Frame ranges are disjoint
  // and the reader is immutable, so chunks decode concurrently; chunk
  // results merge in chunk order, making every output identical to the
  // serial scan.
  WallClock::time_point scan_wall_start = WallClock::now();
  std::size_t start_frame = 0;
  if (reader.num_frames() > 0) {
    MMDB_ASSIGN_OR_RETURN(start_frame,
                          reader.FrameIndexAt(replay_from_offset));
  }
  const std::size_t suffix_frames = reader.num_frames() - start_frame;

  struct ScanChunk {
    uint64_t records = 0;
    Lsn max_lsn = kInvalidLsn;
    std::vector<TxnId> commits;
    // (record_id, absolute frame index) of each UPDATE/DELTA, frame order.
    std::vector<std::pair<RecordId, std::size_t>> data;
  };
  const std::size_t scan_chunk = ChunkFor(suffix_frames, threads);
  const std::size_t num_scan_chunks =
      suffix_frames == 0 ? 0 : (suffix_frames + scan_chunk - 1) / scan_chunk;
  std::vector<ScanChunk> scan_chunks(num_scan_chunks);
  MMDB_RETURN_IF_ERROR(ParallelFor(
      pool_, suffix_frames, scan_chunk,
      [&](std::size_t begin, std::size_t end) -> Status {
        WallClock::time_point start = WallClock::now();
        ScanChunk& out = scan_chunks[begin / scan_chunk];
        for (std::size_t i = begin; i < end; ++i) {
          std::size_t frame = start_frame + i;
          LogRecordHeader h;
          MMDB_RETURN_IF_ERROR(reader.HeaderAt(frame, &h));
          ++out.records;
          if (out.max_lsn == kInvalidLsn || h.lsn > out.max_lsn) {
            out.max_lsn = h.lsn;
          }
          if (h.type == LogRecordType::kCommit) {
            out.commits.push_back(h.txn_id);
          } else if (h.type == LogRecordType::kUpdate ||
                     h.type == LogRecordType::kDelta) {
            out.data.emplace_back(h.record_id, frame);
          }
        }
        busy.Charge(start);
        return Status::OK();
      }));

  // Merge pass (serial, chunk order): commit set, counters, and the
  // per-segment frame lists. Appending chunk by chunk preserves global
  // frame order within every bucket — the invariant partitioned replay
  // relies on. Out-of-range record ids are parked in an overflow bucket
  // whose replay reports the malformed record.
  std::unordered_set<TxnId> committed;
  Lsn last_lsn = kInvalidLsn;
  const std::size_t num_buckets =
      static_cast<std::size_t>(db->num_segments()) + 1;
  const std::size_t overflow_bucket = num_buckets - 1;
  std::vector<std::vector<std::size_t>> buckets(num_buckets);
  const uint64_t records_per_segment = params_.db.records_per_segment();
  for (const ScanChunk& c : scan_chunks) {
    stats.records_scanned += c.records;
    if (c.max_lsn != kInvalidLsn &&
        (last_lsn == kInvalidLsn || c.max_lsn > last_lsn)) {
      last_lsn = c.max_lsn;
    }
    for (TxnId t : c.commits) committed.insert(t);
    for (const auto& [record_id, frame] : c.data) {
      std::size_t b = static_cast<std::size_t>(
          std::min<uint64_t>(record_id / records_per_segment,
                             overflow_bucket));
      buckets[b].push_back(frame);
    }
  }
  // The tail beyond the marker may still contain older LSNs? No: LSNs are
  // monotone in file order, but records before the marker can carry higher
  // ids after a previous recovery reopened the log. Take the global max.
  MMDB_RETURN_IF_ERROR(
      reader.ScanBackward([&](const LogRecord& r, uint64_t) {
        if (last_lsn == kInvalidLsn || r.lsn > last_lsn) last_lsn = r.lsn;
        return false;  // only the newest record is needed
      }));
  result.last_lsn = last_lsn;
  stats.log_scan_wall_seconds = SecondsSince(scan_wall_start);

  // Pass 2 — partitioned REDO: each bucket holds one segment's data
  // records in log order, buckets touch disjoint byte ranges of the
  // primary, and the committed set is now read-only, so buckets replay
  // concurrently and the restored bytes are identical to the sequential
  // pass. Workers full-decode their own frames (the decode work rides the
  // replay fan-out instead of a serial feeder pass). Errors are collected
  // per bucket and the one at the smallest frame index wins — the same
  // record the serial scan would have died on.
  WallClock::time_point replay_wall_start = WallClock::now();
  std::vector<std::size_t> active_buckets;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    if (!buckets[b].empty()) active_buckets.push_back(b);
  }
  struct BucketResult {
    uint64_t full_applies = 0;
    uint64_t delta_applies = 0;
    // Replay lineage for this segment's bucket: applied-record count,
    // LSN span, and source streams in first-touch (log) order. Frames
    // within a bucket replay in log order on whichever worker owns the
    // bucket, so these are identical for any thread count.
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
    std::vector<uint32_t> streams;
    std::size_t error_frame = SIZE_MAX;
    Status status;
  };
  std::vector<BucketResult> bucket_results(active_buckets.size());
  MMDB_RETURN_IF_ERROR(ParallelFor(
      pool_, active_buckets.size(), ChunkFor(active_buckets.size(), threads),
      [&](std::size_t begin, std::size_t end) -> Status {
        WallClock::time_point start = WallClock::now();
        for (std::size_t bi = begin; bi < end; ++bi) {
          BucketResult& out = bucket_results[bi];
          for (std::size_t frame : buckets[active_buckets[bi]]) {
            StatusOr<LogRecord> decoded = reader.RecordAtIndex(frame);
            if (!decoded.ok()) {
              out.status = decoded.status();
              out.error_frame = frame;
              break;
            }
            const LogRecord& r = *decoded;
            if (committed.count(r.txn_id) == 0) continue;
            bool applied = false;
            if (r.type == LogRecordType::kUpdate) {
              if (r.record_id >= db->num_records() ||
                  r.image.size() != db->record_bytes()) {
                out.status = CorruptionError(StringPrintf(
                    "update record for txn %llu is malformed",
                    static_cast<unsigned long long>(r.txn_id)));
                out.error_frame = frame;
                break;
              }
              db->WriteRecord(r.record_id, r.image);
              ++out.full_applies;
              applied = true;
            } else if (r.type == LogRecordType::kDelta) {
              // Logical REDO: NOT idempotent — correct exactly because
              // the restored backup is the snapshot at the replay start
              // point (enforced at write time; see Engine::WriteDelta).
              if (r.record_id >= db->num_records() ||
                  r.field_offset + 8 > db->record_bytes()) {
                out.status = CorruptionError(StringPrintf(
                    "delta record for txn %llu is malformed",
                    static_cast<unsigned long long>(r.txn_id)));
                out.error_frame = frame;
                break;
              }
              std::string image(db->ReadRecord(r.record_id));
              uint64_t field = DecodeFixed64(image.data() + r.field_offset);
              EncodeFixed64(image.data() + r.field_offset,
                            field + static_cast<uint64_t>(r.delta));
              db->WriteRecord(r.record_id, image);
              ++out.delta_applies;
              applied = true;
            }
            if (applied) {
              if (out.first_lsn == kInvalidLsn) out.first_lsn = r.lsn;
              out.last_lsn = r.lsn;
              const uint32_t stream = reader.FrameStream(frame);
              if (std::find(out.streams.begin(), out.streams.end(),
                            stream) == out.streams.end()) {
                out.streams.push_back(stream);
              }
            }
          }
        }
        busy.Charge(start);
        return Status::OK();
      }));
  uint64_t full_applies = 0;
  uint64_t delta_applies = 0;
  std::size_t first_error_frame = SIZE_MAX;
  Status apply_status;
  for (const BucketResult& br : bucket_results) {
    full_applies += br.full_applies;
    delta_applies += br.delta_applies;
    if (!br.status.ok() && br.error_frame < first_error_frame) {
      first_error_frame = br.error_frame;
      apply_status = br.status;
    }
  }
  MMDB_RETURN_IF_ERROR(apply_status);
  for (std::size_t bi = 0; bi < active_buckets.size(); ++bi) {
    const std::size_t b = active_buckets[bi];
    if (b >= result.lineage.size()) continue;  // overflow bucket
    const BucketResult& br = bucket_results[bi];
    SegmentLineage& l = result.lineage[b];
    l.frames = br.full_applies + br.delta_applies;
    l.first_lsn = br.first_lsn;
    l.last_lsn = br.last_lsn;
    l.streams = br.streams;
  }
  stats.updates_applied = full_applies + delta_applies;
  stats.txns_redone = committed.size();
  stats.replay_wall_seconds = SecondsSince(replay_wall_start);
  stats.thread_busy_seconds = busy.Seconds();

  // Closed-form instruction count from the integer apply tallies —
  // deliberately NOT accumulated per record, so the modeled CPU charge
  // cannot pick up floating-point ordering noise from the fan-out.
  double replay_instructions =
      params_.costs.move_per_word *
          static_cast<double>(params_.db.record_words) *
          static_cast<double>(full_applies) +
      (8.0 / kWordBytes) * static_cast<double>(delta_applies);
  meter_->Charge(CpuCategory::kRecovery, replay_instructions);
  stats.replay_cpu_seconds =
      params_.InstructionsToSeconds(replay_instructions);

  // Control state restarts conservatively: everything dirty (the next two
  // checkpoints will rewrite both copies in partial mode), colors white,
  // no old copies, no LSNs.
  segments->Reset();
  segments->MarkAllDirty();

  stats.total_seconds = (log_done - now) + stats.replay_cpu_seconds;
  Publish(metrics_, tracer_, stats, now, active_buckets.size());
  return result;
}

StatusOr<InstantRecoveryPlan> RecoveryManager::PlanInstant(
    BackupStore* backup, const std::vector<std::string>& log_paths,
    Database* db, SegmentTable* segments, double now) {
  StatusOr<InstantRecoveryPlan> plan =
      PlanInstantImpl(backup, log_paths, db, segments, now);
  if (!plan.ok() && audit_ != nullptr) {
    const std::string error = plan.status().ToString();
    audit_->Record("recovery.error", now, [&](JsonWriter& w) {
      w.Key("error");
      w.String(error);
    });
    audit_->Sync();
  }
  // Success leaves the audit chain OPEN: the engine journals the lineage
  // and recovery.end once every segment has materialized.
  return plan;
}

StatusOr<InstantRecoveryPlan> RecoveryManager::PlanInstantImpl(
    BackupStore* backup, const std::vector<std::string>& log_paths,
    Database* db, SegmentTable* segments, double now) {
  InstantRecoveryPlan out;
  RecoveryResult& result = out.result;
  RecoveryStats& stats = result.stats;
  const uint32_t threads =
      pool_ != nullptr ? static_cast<uint32_t>(pool_->num_threads()) : 1;
  stats.threads_used = threads;
  BusyMeter busy(threads);

  MMDB_ASSIGN_OR_RETURN(RestorePlan plan, BuildRestorePlan(backup, log_paths,
                                                           db, now, &result));
  out.have_checkpoint = plan.have_checkpoint;
  out.restore_id = plan.restore_id;
  out.restore_copy = plan.restore_copy;
  out.replay_from_offset = plan.replay_from_offset;
  LogReader& reader = plan.reader;

  // Modeled phase costs, closed-form. Blocking recovery submits one
  // backup-array request per segment at the crash instant and then streams
  // the log suffix in fixed chunks starting where the backup reads
  // finished. Replaying the SAME submissions at the SAME absolute times
  // against scratch arrays reproduces the blocking path's
  // backup_read_seconds / log_read_seconds bit-for-bit — the anchors
  // matter because float subtraction is not translation-invariant, and
  // the instant-off/on equivalence gates compare these exactly.
  double backup_done = now;
  if (plan.have_checkpoint) {
    DiskArrayModel backup_disks(params_.disk);
    for (uint64_t s = 0; s < db->num_segments(); ++s) {
      backup_disks.Submit(now, params_.db.segment_words);
    }
    backup_done = std::max(now, backup_disks.AllIdleTime());
    stats.backup_read_seconds = backup_done - now;
    stats.segments_loaded = db->num_segments();
    stats.checkpoint_id = plan.restore_id;
    stats.copy = plan.restore_copy;
  }
  uint64_t log_bytes = result.log_valid_bytes > plan.replay_from_offset
                           ? result.log_valid_bytes - plan.replay_from_offset
                           : 0;
  stats.log_bytes_read = log_bytes;
  constexpr uint64_t kChunkWords = 64 * 1024;  // 256 KiB per device request
  uint64_t log_words = (log_bytes + kWordBytes - 1) / kWordBytes;
  double log_done_abs = backup_done;
  {
    DiskArrayModel log_disks(params_.disk.LogArray());
    for (uint64_t w = 0; w < log_words; w += kChunkWords) {
      log_disks.Submit(backup_done, std::min(kChunkWords, log_words - w));
    }
    log_done_abs = std::max(log_disks.AllIdleTime(), backup_done);
    stats.log_read_seconds = log_done_abs - backup_done;
  }

  // Classification scan — identical to the blocking path's pass 1: the
  // committed set, the max LSN, and the per-segment frame buckets.
  WallClock::time_point scan_wall_start = WallClock::now();
  std::size_t start_frame = 0;
  if (reader.num_frames() > 0) {
    MMDB_ASSIGN_OR_RETURN(start_frame,
                          reader.FrameIndexAt(plan.replay_from_offset));
  }
  out.start_frame = start_frame;
  const std::size_t suffix_frames = reader.num_frames() - start_frame;

  struct ScanChunk {
    uint64_t records = 0;
    Lsn max_lsn = kInvalidLsn;
    std::vector<TxnId> commits;
    std::vector<std::pair<RecordId, std::size_t>> data;
  };
  const std::size_t scan_chunk = ChunkFor(suffix_frames, threads);
  const std::size_t num_scan_chunks =
      suffix_frames == 0 ? 0 : (suffix_frames + scan_chunk - 1) / scan_chunk;
  std::vector<ScanChunk> scan_chunks(num_scan_chunks);
  MMDB_RETURN_IF_ERROR(ParallelFor(
      pool_, suffix_frames, scan_chunk,
      [&](std::size_t begin, std::size_t end) -> Status {
        WallClock::time_point start = WallClock::now();
        ScanChunk& chunk = scan_chunks[begin / scan_chunk];
        for (std::size_t i = begin; i < end; ++i) {
          std::size_t frame = start_frame + i;
          LogRecordHeader h;
          MMDB_RETURN_IF_ERROR(reader.HeaderAt(frame, &h));
          ++chunk.records;
          if (chunk.max_lsn == kInvalidLsn || h.lsn > chunk.max_lsn) {
            chunk.max_lsn = h.lsn;
          }
          if (h.type == LogRecordType::kCommit) {
            chunk.commits.push_back(h.txn_id);
          } else if (h.type == LogRecordType::kUpdate ||
                     h.type == LogRecordType::kDelta) {
            chunk.data.emplace_back(h.record_id, frame);
          }
        }
        busy.Charge(start);
        return Status::OK();
      }));

  Lsn last_lsn = kInvalidLsn;
  const std::size_t num_buckets =
      static_cast<std::size_t>(db->num_segments()) + 1;
  const std::size_t overflow_bucket = num_buckets - 1;
  out.buckets.assign(num_buckets, {});
  const uint64_t records_per_segment = params_.db.records_per_segment();
  for (const ScanChunk& c : scan_chunks) {
    stats.records_scanned += c.records;
    if (c.max_lsn != kInvalidLsn &&
        (last_lsn == kInvalidLsn || c.max_lsn > last_lsn)) {
      last_lsn = c.max_lsn;
    }
    for (TxnId t : c.commits) out.committed.insert(t);
    for (const auto& [record_id, frame] : c.data) {
      std::size_t b = static_cast<std::size_t>(std::min<uint64_t>(
          record_id / records_per_segment, overflow_bucket));
      out.buckets[b].push_back(frame);
    }
  }
  MMDB_RETURN_IF_ERROR(
      reader.ScanBackward([&](const LogRecord& r, uint64_t) {
        if (last_lsn == kInvalidLsn || r.lsn > last_lsn) last_lsn = r.lsn;
        return false;  // only the newest record is needed
      }));
  result.last_lsn = last_lsn;
  stats.log_scan_wall_seconds = SecondsSince(scan_wall_start);

  // Eager validation + per-segment replay accounting. This full-decodes
  // every bucketed frame exactly as the blocking path's partitioned REDO
  // would — same decode errors, same malformed-record checks on committed
  // frames, same smallest-frame-wins rule — but applies nothing, so a log
  // that would have failed blocking recovery fails the plan here instead
  // of surfacing mid-service. The per-bucket apply tallies double as the
  // clean-path lineage and the closed-form replay CPU charge.
  WallClock::time_point replay_wall_start = WallClock::now();
  std::vector<std::size_t> active_buckets;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    if (!out.buckets[b].empty()) active_buckets.push_back(b);
  }
  out.replay_buckets = active_buckets.size();
  struct BucketResult {
    uint64_t full_applies = 0;
    uint64_t delta_applies = 0;
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
    std::vector<uint32_t> streams;
    std::size_t error_frame = SIZE_MAX;
    Status status;
  };
  std::vector<BucketResult> bucket_results(active_buckets.size());
  MMDB_RETURN_IF_ERROR(ParallelFor(
      pool_, active_buckets.size(), ChunkFor(active_buckets.size(), threads),
      [&](std::size_t begin, std::size_t end) -> Status {
        WallClock::time_point start = WallClock::now();
        for (std::size_t bi = begin; bi < end; ++bi) {
          BucketResult& br = bucket_results[bi];
          for (std::size_t frame : out.buckets[active_buckets[bi]]) {
            StatusOr<LogRecord> decoded = reader.RecordAtIndex(frame);
            if (!decoded.ok()) {
              br.status = decoded.status();
              br.error_frame = frame;
              break;
            }
            const LogRecord& r = *decoded;
            if (out.committed.count(r.txn_id) == 0) continue;
            bool applied = false;
            if (r.type == LogRecordType::kUpdate) {
              if (r.record_id >= db->num_records() ||
                  r.image.size() != db->record_bytes()) {
                br.status = CorruptionError(StringPrintf(
                    "update record for txn %llu is malformed",
                    static_cast<unsigned long long>(r.txn_id)));
                br.error_frame = frame;
                break;
              }
              ++br.full_applies;
              applied = true;
            } else if (r.type == LogRecordType::kDelta) {
              if (r.record_id >= db->num_records() ||
                  r.field_offset + 8 > db->record_bytes()) {
                br.status = CorruptionError(StringPrintf(
                    "delta record for txn %llu is malformed",
                    static_cast<unsigned long long>(r.txn_id)));
                br.error_frame = frame;
                break;
              }
              ++br.delta_applies;
              applied = true;
            }
            if (applied) {
              if (br.first_lsn == kInvalidLsn) br.first_lsn = r.lsn;
              br.last_lsn = r.lsn;
              const uint32_t stream = reader.FrameStream(frame);
              if (std::find(br.streams.begin(), br.streams.end(), stream) ==
                  br.streams.end()) {
                br.streams.push_back(stream);
              }
            }
          }
        }
        busy.Charge(start);
        return Status::OK();
      }));
  uint64_t full_applies = 0;
  uint64_t delta_applies = 0;
  std::size_t first_error_frame = SIZE_MAX;
  Status apply_status;
  for (const BucketResult& br : bucket_results) {
    full_applies += br.full_applies;
    delta_applies += br.delta_applies;
    if (!br.status.ok() && br.error_frame < first_error_frame) {
      first_error_frame = br.error_frame;
      apply_status = br.status;
    }
  }
  MMDB_RETURN_IF_ERROR(apply_status);
  for (std::size_t bi = 0; bi < active_buckets.size(); ++bi) {
    const std::size_t b = active_buckets[bi];
    if (b >= result.lineage.size()) continue;  // overflow bucket
    const BucketResult& br = bucket_results[bi];
    SegmentLineage& l = result.lineage[b];
    l.frames = br.full_applies + br.delta_applies;
    l.first_lsn = br.first_lsn;
    l.last_lsn = br.last_lsn;
    l.streams = br.streams;
  }
  stats.updates_applied = full_applies + delta_applies;
  stats.txns_redone = out.committed.size();
  stats.replay_wall_seconds = SecondsSince(replay_wall_start);
  stats.thread_busy_seconds = busy.Seconds();

  // The recovery CPU is charged once, here, from the same closed-form
  // instruction count as the blocking path — materialization later moves
  // the same bytes but must not re-charge.
  double replay_instructions =
      params_.costs.move_per_word *
          static_cast<double>(params_.db.record_words) *
          static_cast<double>(full_applies) +
      (8.0 / kWordBytes) * static_cast<double>(delta_applies);
  meter_->Charge(CpuCategory::kRecovery, replay_instructions);
  stats.replay_cpu_seconds =
      params_.InstructionsToSeconds(replay_instructions);

  // Control state restarts conservatively, exactly as after a blocking
  // recovery: everything dirty, colors white, no old copies, no LSNs.
  segments->Reset();
  segments->MarkAllDirty();

  // Same grouping as the blocking path's `(log_done - now) + replay`:
  // three-way summation is not associative in float and the off/on
  // equivalence gates compare total_seconds exactly.
  stats.total_seconds = (log_done_abs - now) + stats.replay_cpu_seconds;
  out.reader = std::move(plan.reader);
  return out;
}

}  // namespace mmdb

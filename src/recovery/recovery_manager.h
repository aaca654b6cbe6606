#ifndef MMDB_RECOVERY_RECOVERY_MANAGER_H_
#define MMDB_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backup/backup_store.h"
#include "env/env.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "storage/database.h"
#include "storage/segment_table.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"
#include "wal/log_reader.h"

namespace mmdb {

// What system-failure recovery did and how long each phase took on the
// modeled hardware. `total_seconds` is the paper's recovery-time metric:
// read the backup database into memory plus read (and replay) the needed
// portion of the log (Section 4).
//
// Two clocks coexist here. The modeled fields (backup_read_seconds,
// log_read_seconds, replay_cpu_seconds, total_seconds) are virtual-clock
// quantities computed from the cost model, bit-identical for either
// schedule (blocking or drained instant). The `*_wall_seconds` fields
// time the real work on the host; they are machine-dependent, and the
// engine dump puts them under its "host" member, which no comparison of
// bench artifacts reads (obs/bench_diff.h).
struct RecoveryStats {
  CheckpointId checkpoint_id = 0;  // checkpoint restored (0 = cold start)
  uint32_t copy = 0;

  double backup_read_seconds = 0.0;
  double log_read_seconds = 0.0;
  double replay_cpu_seconds = 0.0;
  double total_seconds = 0.0;

  // Successful segment reads applied to the database, across BOTH load
  // attempts when recovery fell back (first-attempt survivors plus every
  // segment re-read from the older copy).
  uint64_t segments_loaded = 0;
  // Segments re-read from the older copy after the newest copy failed
  // (num_segments when delta records forced a full reload; the failed-set
  // size otherwise). 0 when no fallback occurred.
  uint64_t segments_retried = 0;
  uint64_t log_bytes_read = 0;
  uint64_t records_scanned = 0;
  uint64_t updates_applied = 0;
  uint64_t txns_redone = 0;

  // The newest backup copy had an unreadable or CRC-bad segment and the
  // previous checkpoint's copy was restored instead (replaying the longer
  // log suffix).
  bool fell_back_to_older_copy = false;

  // --- real wall clock (machine-dependent; see the struct comment) ------
  double backup_read_wall_seconds = 0.0;
  double log_scan_wall_seconds = 0.0;  // classification scan
  double replay_wall_seconds = 0.0;    // per-segment REDO apply
};

// Outputs the engine needs to resume normal processing after recovery.
struct RecoveryResult {
  RecoveryStats stats;
  Lsn last_lsn = kInvalidLsn;      // highest LSN found in the log
  // The log's base offset and the logical end offset of its well-formed
  // prefix (base included) — what LogManager::OpenExisting keeps when it
  // reopens the log.
  uint64_t log_base_offset = 0;
  uint64_t log_valid_bytes = 0;
  // Begin marker of the restored checkpoint (0 for a cold start): where
  // REDO starts, and the oldest frame log truncation keeps afterwards.
  uint64_t replay_from_offset = 0;
  // Id of the newest end-checkpoint marker in the log (0 if none). Equals
  // stats.checkpoint_id except when recovery fell back to the older copy;
  // the engine must then skip past this id so a stale end marker is never
  // paired with a half-overwritten backup copy.
  CheckpointId newest_end_id = 0;
  // Per-segment provenance of the restored image (DESIGN.md §18): which
  // checkpoint/copy supplied each segment's bytes, whether it was re-read
  // from the older copy, and the frames/LSNs replayed into it.
  // Sized num_segments.
  std::vector<SegmentLineage> lineage;
};

// The REDO work of one log suffix, as the classification scan finds it:
// per segment, the frame indices of the committed UPDATE/DELTA records in
// log order — exactly what the applier replays, already validated — plus
// the tallies the modeled stats are computed from.
struct RedoScan {
  uint64_t records = 0;       // frames in the suffix
  Lsn max_lsn = kInvalidLsn;  // over the suffix
  uint64_t txns = 0;          // committed transactions
  uint64_t full_applies = 0;
  uint64_t delta_applies = 0;
  bool has_delta = false;  // any DELTA frame, committed or not
  std::vector<std::vector<std::size_t>> buckets;  // sized num_segments
};

// Classification scan of `reader`'s frames from `start` to the end of the
// log: shallow-decodes each frame (LogRecordHeader — no after-image copy)
// in log order. Fails on the first undecodable frame, then on the first
// committed record whose record id or operand lies outside the database
// (log order). Rewrites the replay fields of every `lineage` entry
// (frames, LSN span) from the committed frames.
StatusOr<RedoScan> ScanRedo(const LogReader& reader, std::size_t start,
                            const DatabaseParams& db,
                            std::vector<SegmentLineage>* lineage);

// Fills `stats`' modeled phase times in closed form from its counters
// (segments_loaded backup reads, log_bytes_read) and the replay tallies:
// backup reads submitted at the crash instant `now`, the log suffix
// streamed in fixed chunks from where they finish, and the replay CPU.
// Float subtraction is not translation-invariant, so every path that
// computes these anchors them the same way, here.
void ModelRecoveryTimes(const SystemParams& params, double now,
                        uint64_t full_applies, uint64_t delta_applies,
                        RecoveryStats* stats);

// REDO replay instructions from the integer apply tallies — closed form,
// never accumulated per record, so no summation-order drift.
double ReplayInstructions(const SystemParams& params, uint64_t full_applies,
                          uint64_t delta_applies);

// Everything needed to rebuild the primary (DESIGN.md §14, §19), computed
// before a single segment byte is read: the immutable log, the
// restore decision, the per-segment REDO buckets, and a RecoveryResult
// whose modeled stats and lineage are final unless the older-copy
// fallback refines them. Produced by RecoveryManager::Plan and consumed
// by InstantRecovery, which loads segments eagerly (blocking restart) or
// on demand.
struct RecoveryPlan {
  RecoveryResult result;
  LogReader reader;  // empty until Plan moves the log in
  double crash_time = 0.0;  // the anchor of every modeled phase time
  bool have_checkpoint = false;
  CheckpointId restore_id = 0;
  uint32_t restore_copy = 0;
  RedoScan redo;
};

// Plans the restart after a system failure (Section 3.3): the last
// complete backup copy named by the checkpoint metadata, then REDO of the
// log forward from that checkpoint's begin marker, applying the updates
// of committed transactions only. Works identically for every checkpoint
// algorithm — fuzzy backups are repaired by the same replay that rolls
// consistent backups forward. Cold start: if no checkpoint ever
// completed, the database is rebuilt from an empty image by replaying the
// entire log.
class RecoveryManager {
 public:
  // `events` receives recovery.log and recovery.plan; journaling never
  // changes modeled stats or the recovered bytes.
  RecoveryManager(Env* env, const SystemParams& params, CpuMeter* meter,
                  EventSink events);

  // `backup` must be Open()ed; `log_path` is the REDO log file. Reads NO
  // segment bytes and applies NO update: the plan's modeled stats are
  // closed-form, and the replay CPU is charged to the meter here, once.
  // `segments` is reset to the conservative post-recovery control state
  // (all dirty). `now` is the crash instant. FAILED_PRECONDITION, before
  // anything is read or written, if the log's directory holds a
  // `<log_path>.<k>` sibling (k >= 1): a stream of the retired
  // multi-stream layout, whose commits the log file alone would lose.
  // Emits recovery.log and recovery.plan; the caller emits the outcome.
  StatusOr<RecoveryPlan> Plan(BackupStore* backup, const std::string& log_path,
                              Database* db, SegmentTable* segments,
                              double now);

  // Registry counters and timers for a finished recovery.
  static void Publish(MetricsRegistry* metrics, const RecoveryStats& stats);

 private:
  // Phase 1: reads the log, reconciles metadata with the log's end
  // markers, emits recovery.log / recovery.plan, repairs lagging
  // metadata, and seeds the plan's lineage.
  Status ChooseRestore(BackupStore* backup, const std::string& log_path,
                       Database* db, double now, RecoveryPlan* plan);

  Env* env_;
  SystemParams params_;
  CpuMeter* meter_;
  EventSink events_;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_RECOVERY_MANAGER_H_

#ifndef MMDB_RECOVERY_INSTANT_H_
#define MMDB_RECOVERY_INSTANT_H_

#include <cstdint>
#include <queue>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "backup/backup_store.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "recovery/recovery_manager.h"
#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "sim/disk_model.h"
#include "storage/database.h"
#include "util/status.h"
#include "util/types.h"

namespace mmdb {

// On-demand segment recovery against an InstantRecoveryPlan (DESIGN.md
// §19). Owns the modeled backup disk array for the restart and decides,
// per segment, WHEN its backup reload completes on the virtual timeline
// (the schedule) and WHAT bytes it holds afterwards (materialization:
// backup read + bucketed REDO replay, including the segment-granular
// older-copy fallback). The two are deliberately orthogonal:
//
//   - The SCHEDULE is pure virtual-clock arithmetic on the same disk
//     array blocking recovery would have used: StartClock submits the
//     first `num_disks` segment reads at the restart instant, and each
//     completion immediately submits the next pending segment in
//     access-priority order (observed touch count descending, then
//     ascending segment id). Touch() queue-jumps an unsubmitted segment
//     to the front. Because every device is kept busy until the pending
//     set drains, the LAST completion lands exactly at
//     restart + backup_read_seconds regardless of the order in between —
//     which is why time_to_full_recovery equals the blocking path's
//     backup phase and the modeled stats stay bit-identical.
//
//   - MATERIALIZATION moves the actual bytes (Env reads + WriteRecord)
//     and consumes no virtual time: the plan already charged the replay
//     CPU and computed the phase durations in closed form. Materialize
//     is idempotent per segment and safe in any order — buckets are
//     per-segment log-order frame lists, so one segment's replay never
//     depends on another's.
//
// The engine drives both: transaction admission calls Touch (advancing
// its clock to the availability time = the recovery_wait stall), the
// post-AdvanceTime sweep calls MaterializeDue for segments whose
// background reload has completed, and DrainRecovery calls
// CompleteSchedule + MaterializeDue to finish the restart.
class InstantRecovery {
 public:
  // Why a segment is being materialized, journaled per segment in the
  // recovery.segment_on_demand audit event and the trace.
  enum class LoadTrigger : uint8_t {
    kTouch = 0,       // a transaction touched it (admission stall)
    kBackground = 1,  // its scheduled background reload completed
    kForce = 2,       // diagnostic raw read (no clock movement)
  };

  // All pointers are borrowed and must outlive this object. `metrics`,
  // `tracer` and `audit` may be null.
  InstantRecovery(InstantRecoveryPlan plan, const SystemParams& params,
                  BackupStore* backup, Database* db, CpuMeter* meter,
                  MetricsRegistry* metrics, Tracer* tracer,
                  AuditJournal* audit);

  // Starts the restart schedule at virtual time `now` (the clock position
  // right after OpenExisting returns): submits the first window of
  // background reloads. Cold start (no checkpoint) makes every segment
  // available immediately at `now`.
  void StartClock(double now);

  // Records a transaction touch of `s` (raising its background priority)
  // and returns the virtual time at which the segment's bytes are
  // available: `now` if already recovered (or cold start), otherwise the
  // completion time of its backup read — queue-jump submitted at `now`
  // if the schedule had not reached it yet. The caller stalls the
  // transaction until the returned time (the recovery_wait cause) and
  // then calls Materialize.
  double Touch(SegmentId s, double now);

  // Loads segment `s` NOW (backup read + REDO replay of its bucket),
  // falling back to the older copy on CRC/IO damage exactly as blocking
  // recovery does — refining stats and lineage identically. Idempotent;
  // `now` is only journaled. Errors are fatal to the restart (neither
  // copy readable, or the log was damaged since planning).
  Status Materialize(SegmentId s, double now, LoadTrigger trigger);

  // Materializes every segment whose scheduled background reload has
  // completed by `now`. Called from the engine's AdvanceTime sweep.
  Status MaterializeDue(double now);

  // Runs the remaining schedule to completion and returns the virtual
  // time of the last reload (== start + backup_read_seconds). Does NOT
  // materialize; the caller advances its clock there and then calls
  // MaterializeDue. Idempotent.
  double CompleteSchedule();

  bool AllLoaded() const { return loaded_count_ == num_segments_; }
  uint64_t pending_segments() const { return num_segments_ - loaded_count_; }
  bool fell_back() const { return fallback_prepared_; }
  double start_time() const { return start_; }

  // Live views of the plan's result; fallback refines stats/lineage.
  const RecoveryResult& result() const { return plan_.result; }
  const RecoveryStats& stats() const { return plan_.result.stats; }

  // On-demand load counters for the engine's availability accounting.
  uint64_t touch_loads() const { return touch_loads_; }
  uint64_t background_loads() const { return background_loads_; }
  uint64_t force_loads() const { return force_loads_; }

  // Registry counters/timers and trace events for the finished recovery,
  // with the same shapes and the crash-time `now` the blocking path uses.
  // Call once, after AllLoaded().
  void PublishFinal(double crash_now);

 private:
  // Pops schedule completions up to `t`, refilling each freed device with
  // the highest-priority pending segment.
  void AdvanceScheduleTo(double t);
  // Submits segment `s`'s backup read at `at`; records its availability.
  void SubmitSegment(SegmentId s, double at);
  // Highest-priority unsubmitted segment (touch count desc, id asc), or
  // num_segments_ when none remain. O(log N) amortized.
  SegmentId PickNextPending();

  // First newest-copy failure: locate the previous checkpoint's begin
  // marker, scan/validate the extension frames into per-segment buckets,
  // and refine the modeled stats exactly as blocking recovery's fallback
  // would (longer log suffix, extended scan counts). Once per restart.
  Status PrepareFallback(const Status& trigger_status, SegmentId s,
                         double now);

  struct ApplyStats {
    uint64_t full_applies = 0;
    uint64_t delta_applies = 0;
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
    std::vector<uint32_t> streams;
  };
  // REDO-replays `frames` (log order) into the primary. `use_ext_committed`
  // additionally honors commits found in the fallback extension.
  Status ReplayFrames(const std::vector<std::size_t>& frames,
                      bool use_ext_committed, ApplyStats* out);

  InstantRecoveryPlan plan_;
  SystemParams params_;
  BackupStore* backup_;
  Database* db_;
  CpuMeter* meter_;
  MetricsRegistry* metrics_;
  Tracer* tracer_;
  AuditJournal* audit_;

  SegmentId num_segments_ = 0;
  double start_ = 0.0;
  bool clock_started_ = false;
  bool schedule_complete_ = false;
  double last_completion_ = 0.0;  // max availability ever scheduled

  // The restart's backup array: same parameters, fresh state — exactly
  // the array blocking recovery's phase 2 would have used.
  DiskArrayModel disks_;

  // Per-segment state. availability_ < 0 = not yet submitted.
  std::vector<double> availability_;
  std::vector<double> submit_time_;
  std::vector<uint64_t> touch_count_;
  std::vector<bool> loaded_;
  SegmentId loaded_count_ = 0;
  uint64_t unsubmitted_ = 0;

  // The pending (unsubmitted) segments, split for PickNextPending: those
  // touched at least once, hottest first (touch count desc, id asc), and
  // a cursor at the lowest untouched one. A touched segment can still be
  // pending when a raw read or a full-reload fallback materialized it
  // before its read was scheduled.
  struct HotterFirst {
    bool operator()(const std::pair<uint64_t, SegmentId>& a,
                    const std::pair<uint64_t, SegmentId>& b) const {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    }
  };
  std::set<std::pair<uint64_t, SegmentId>, HotterFirst> touched_pending_;
  SegmentId untouched_cursor_ = 0;

  // Min-heap of (completion time, segment) for in-flight reloads.
  using Inflight = std::pair<double, SegmentId>;
  std::priority_queue<Inflight, std::vector<Inflight>, std::greater<Inflight>>
      inflight_;
  // Segments whose reload completed (or was queue-jumped) but which may
  // not be materialized yet — MaterializeDue's work list.
  std::vector<SegmentId> due_;

  // Older-copy fallback state (lazy; see PrepareFallback).
  bool fallback_prepared_ = false;
  // DELTA records in the longer suffix forced a full reload from the
  // previous copy (every segment's provenance switches).
  bool full_reload_ = false;
  CheckpointId fallback_prev_id_ = 0;
  uint32_t fallback_prev_copy_ = 0;
  // Extension [prev begin marker, main begin marker): per-segment frame
  // buckets, the commits found there (unioned with the plan's set when
  // replaying extension frames), and the per-segment apply tallies the
  // eager validation pass computed.
  std::vector<std::vector<std::size_t>> ext_buckets_;
  std::unordered_set<TxnId> ext_committed_;
  std::vector<ApplyStats> ext_stats_;

  // Whether a segment's first materialization has been journaled/traced —
  // fallback re-materializations must not re-announce.
  std::vector<bool> announced_;

  uint64_t load_order_ = 0;  // materialization ordinal (first-touch order)
  uint64_t touch_loads_ = 0;
  uint64_t background_loads_ = 0;
  uint64_t force_loads_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_INSTANT_H_

#ifndef MMDB_RECOVERY_INSTANT_H_
#define MMDB_RECOVERY_INSTANT_H_

#include <cstdint>
#include <queue>
#include <set>
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

// Loads segments against a RecoveryPlan (DESIGN.md §14, §19): the one
// applier of a restart, whichever schedule drives it. A segment's load is
// its backup read plus the REDO replay of its bucket, with the older-copy
// fallback on CRC/IO damage; it consumes no virtual time (the plan
// already charged the replay CPU and computed the phase durations in
// closed form), and buckets are per-segment log-order frame lists, so one
// segment's load never depends on another's. Every load runs on the
// calling thread.
//
// Two schedules drive it:
//
//   - EAGER (blocking restart): LoadAll reads every segment, runs the
//     fallback once with the complete failed set, and replays every
//     bucket.
//
//   - ON DEMAND (instant restart): pure virtual-clock arithmetic on the
//     same disk array a blocking restart would have used. StartClock
//     submits the first `num_disks` segment reads at the restart instant,
//     and each completion immediately submits the next pending segment in
//     access-priority order (observed touch count descending, then
//     ascending segment id). Touch() queue-jumps an unsubmitted segment
//     to the front. Because every device is kept busy until the pending
//     set drains, the LAST completion lands exactly at restart +
//     backup_read_seconds regardless of the order in between — which is
//     why time_to_full_recovery equals the blocking path's backup phase
//     and the modeled stats stay bit-identical. The engine drives it:
//     transaction admission calls Touch (advancing its clock to the
//     availability time = the recovery_wait stall) then Materialize, the
//     post-AdvanceTime sweep calls MaterializeDue, and DrainRecovery calls
//     CompleteSchedule + MaterializeDue to finish the restart.
class InstantRecovery {
 public:
  // Why a segment is being materialized on demand, emitted per segment in
  // recovery.segment_on_demand. The values index the event table's
  // trigger names (obs/trace.cc), so they are part of the journal format.
  enum class LoadTrigger : uint8_t {
    kTouch = 0,       // a transaction touched it (admission stall)
    kBackground = 1,  // its scheduled background reload completed
    kForce = 2,       // diagnostic raw read (no clock movement)
  };

  // All pointers are borrowed and must outlive this object. `metrics` and
  // either sink of `events` may be null.
  InstantRecovery(RecoveryPlan plan, const SystemParams& params,
                  BackupStore* backup, Database* db, CpuMeter* meter,
                  MetricsRegistry* metrics, EventSink events);

  // The eager schedule: loads every segment now, reading each backup
  // segment in id order and then replaying each bucket. Journals no
  // per-segment events. Errors are fatal to the restart.
  Status LoadAll();

  // Starts the on-demand schedule at virtual time `now` (the clock
  // position right after Engine::Recover returns): submits the first
  // window of background reloads. Cold start (no checkpoint) makes every
  // segment available immediately at `now`.
  void StartClock(double now);

  // Records a transaction touch of `s` (raising its background priority)
  // and returns the virtual time at which the segment's bytes are
  // available: `now` if already recovered (or cold start), otherwise the
  // completion time of its backup read — queue-jump submitted at `now`
  // if the schedule had not reached it yet. The caller stalls the
  // transaction until the returned time (the recovery_wait cause) and
  // then calls Materialize.
  double Touch(SegmentId s, double now);

  // Loads segment `s` NOW. Idempotent; `now` is only journaled. Errors
  // are fatal to the restart.
  Status Materialize(SegmentId s, double now, LoadTrigger trigger);

  // Materializes every segment whose scheduled background reload has
  // completed by `now`. Called from the engine's AdvanceTime sweep.
  Status MaterializeDue(double now);

  // Runs the remaining schedule to completion and returns the virtual
  // time of the last reload (== start + backup_read_seconds). Does NOT
  // materialize; the caller advances its clock there and then calls
  // MaterializeDue. Idempotent.
  double CompleteSchedule();

  // A transaction committed since the restart. From then on, a fallback
  // that must reload every segment from the older copy fails the restart
  // instead of re-reading segments that may hold those commits.
  void NoteCommit() { committed_since_start_ = true; }

  bool AllLoaded() const { return loaded_count_ == num_segments_; }
  uint64_t pending_segments() const { return num_segments_ - loaded_count_; }
  bool fell_back() const { return fell_back_; }

  // Live views of the plan's result; the fallback refines stats/lineage.
  const RecoveryResult& result() const { return plan_.result; }
  // Moves the finished restart's result out, once every segment loaded.
  RecoveryResult TakeResult() { return std::move(plan_.result); }
  const RecoveryStats& stats() const { return plan_.result.stats; }

  // On-demand load counters for the engine's availability accounting.
  uint64_t touch_loads() const { return touch_loads_; }
  uint64_t background_loads() const { return background_loads_; }
  uint64_t force_loads() const { return force_loads_; }

 private:
  // Pops schedule completions up to `t`, refilling each freed device with
  // the highest-priority pending segment.
  void AdvanceScheduleTo(double t);
  // Submits segment `s`'s backup read at `at`; records its availability.
  void SubmitSegment(SegmentId s, double at);
  // Highest-priority unsubmitted segment (touch count desc, id asc), or
  // num_segments_ when none remain. O(log N) amortized.
  SegmentId PickNextPending();

  // Reads `s`'s backup image straight into its primary slot, from the
  // copy its lineage names. A CRC-failed read leaves unspecified bytes
  // there until the older-copy retry overwrites them.
  Status ReadSegment(SegmentId s);
  // On-demand reload of `s`, falling back to the older copy on the first
  // survivable failure.
  Status Reload(SegmentId s, double now);
  // REDO-replays `s`'s bucket (validated at plan time) into the primary.
  Status ApplyRedo(SegmentId s);

  // The older-copy fallback, once per restart: locates the previous
  // checkpoint's begin marker, re-plans the longer suffix from it, picks
  // the retry set (`failed`, or every segment when the suffix holds
  // DELTA records) and refines stats and lineage to exactly what a
  // restart from that suffix reports. `failed` lists the newest-copy
  // failures seen so far; unless `failed_set_complete`, a full reload
  // first reads the unserved segments to complete it. A full-image retry
  // never re-reads a served segment: the newest copy plus the main
  // suffix already equals what the longer suffix gives (DESIGN.md §14).
  // A full reload latches the served segments again, to reload from the
  // older copy; that is sound only while nothing has committed since the
  // restart, so otherwise it fails the restart.
  Status FallBack(std::vector<SegmentId> failed, const Status& trigger,
                  bool failed_set_complete, double now);
  // Marks `s` as re-read from the previous checkpoint's copy.
  void MarkRetried(SegmentId s);
  void Announce(SegmentId s, double now, LoadTrigger trigger);

  RecoveryPlan plan_;
  SystemParams params_;
  BackupStore* backup_;
  Database* db_;
  CpuMeter* meter_;
  MetricsRegistry* metrics_;
  EventSink events_;

  SegmentId num_segments_ = 0;
  bool clock_started_ = false;
  double last_completion_ = 0.0;  // max availability ever scheduled

  // The restart's backup array: same parameters, fresh state — exactly
  // the array a blocking restart's reads are modeled on.
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
  // pending when a raw read materialized it before its read was
  // scheduled.
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

  bool fell_back_ = false;
  bool committed_since_start_ = false;
  // Whether a segment's first materialization has been journaled/traced —
  // a full-reload fallback's re-materializations must not re-announce.
  std::vector<bool> announced_;

  uint64_t load_order_ = 0;  // materialization ordinal (first-touch order)
  uint64_t touch_loads_ = 0;
  uint64_t background_loads_ = 0;
  uint64_t force_loads_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_INSTANT_H_

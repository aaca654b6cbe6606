#ifndef MMDB_CHECKPOINT_CHECKPOINTER_H_
#define MMDB_CHECKPOINT_CHECKPOINTER_H_

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backup/backup_store.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "sim/disk_model.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/segment_table.h"
#include "txn/checkpoint_hooks.h"
#include "txn/timestamps.h"
#include "txn/txn_manager.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace mmdb {

// The six checkpointing algorithms of the paper (Section 3), plus three
// modern consistent-snapshot designs from the follow-on literature (Li et
// al.'s comparative study; see DESIGN.md section 15).
enum class Algorithm : uint8_t {
  kFuzzyCopy,      // FUZZYCOPY: buffer, then flush once the log catches up
  kFastFuzzy,      // FASTFUZZY: direct flush; requires a stable log tail
  kTwoColorFlush,  // 2CFLUSH: Pu's paint bits, lock held through the I/O
  kTwoColorCopy,   // 2CCOPY: paint bits, lock held only for the copy
  kCouFlush,       // COUFLUSH: copy-on-update snapshot, flush under lock
  kCouCopy,        // COUCOPY: copy-on-update snapshot, copy then flush
  kZigzag,         // ZIGZAG: ping-pong bit arrays, no copy-on-update stall
  kPingPong,       // PINGPONG: two full shadow copies, wait-free flip
  kHourglass,      // HOURGLASS: CALC-style record-granularity snapshot
};

// Canonical list of every algorithm, in enum order. All enumeration —
// AlgorithmFromName, bench axis arrays, test parameterizations — routes
// through this span, so adding an enum value without extending it here is
// caught by the exhaustive switch in AlgorithmName (compiled with
// -Werror=switch) rather than silently skipping a site.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kFuzzyCopy,     Algorithm::kFastFuzzy,
    Algorithm::kTwoColorFlush, Algorithm::kTwoColorCopy,
    Algorithm::kCouFlush,      Algorithm::kCouCopy,
    Algorithm::kZigzag,        Algorithm::kPingPong,
    Algorithm::kHourglass,
};
inline constexpr size_t kNumAlgorithms =
    sizeof(kAllAlgorithms) / sizeof(kAllAlgorithms[0]);

// Canonical algorithm names (the papers' spellings). Inline so header-only
// users (the obs layer's trace formatter) need no link-time dependency on
// mmdb_checkpoint.
inline std::string_view AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kFuzzyCopy:
      return "FUZZYCOPY";
    case Algorithm::kFastFuzzy:
      return "FASTFUZZY";
    case Algorithm::kTwoColorFlush:
      return "2CFLUSH";
    case Algorithm::kTwoColorCopy:
      return "2CCOPY";
    case Algorithm::kCouFlush:
      return "COUFLUSH";
    case Algorithm::kCouCopy:
      return "COUCOPY";
    case Algorithm::kZigzag:
      return "ZIGZAG";
    case Algorithm::kPingPong:
      return "PINGPONG";
    case Algorithm::kHourglass:
      return "HOURGLASS";
  }
  // Only reachable with a value outside the enum — a corrupt options file,
  // a stale sidecar, or a bad cast. Returning a placeholder here once let
  // such values flow into metrics and traces unnoticed; crash at the
  // source instead.
  assert(false && "Algorithm value out of range");
  std::abort();
}

// Parses a canonical algorithm name, case-insensitively. The
// InvalidArgumentError lists every valid spelling so CLI typos
// (mmdb_stats, bench --algorithm) are actionable.
StatusOr<Algorithm> AlgorithmFromName(std::string_view name);

// True for the algorithms whose backup is an exact snapshot of the
// database at the begin-checkpoint marker — the property that makes
// non-idempotent (logical/delta) REDO records safe to replay from that
// marker. Holds for the copy-on-update pair and the modern snapshot
// algorithms (Zigzag, Ping-Pong, Hourglass): fuzzy backups are not
// consistent at all, and a two-color backup is consistent at the color
// boundary rather than at any log position.
bool SupportsLogicalLogging(Algorithm a);

// Full checkpoints write every segment; partial checkpoints test dirty bits
// and write only segments updated since this ping-pong copy was last
// written (Section 3).
enum class CheckpointMode : uint8_t { kFull, kPartial };

// Outcome of one checkpoint, for the metrics layer and the figure benches.
struct CheckpointStats {
  CheckpointId id = 0;
  double begin_time = 0.0;
  double end_time = 0.0;       // when the checkpoint became recoverable
  uint64_t segments_flushed = 0;
  uint64_t segments_skipped = 0;  // clean segments under partial mode
  uint64_t checkpointer_copies = 0;  // *COPY staging copies
  uint64_t cou_copies = 0;           // transaction-side old-image copies
  double quiesce_seconds = 0.0;      // COU admission stall window
  // Per-phase breakdown (all in simulated seconds):
  double lock_held_seconds = 0.0;  // segment-seconds held through backup I/O
  double flush_io_seconds = 0.0;   // backup-device service time, summed
  double log_wait_seconds = 0.0;   // write-ahead gate stalls before issuing
  double copy_seconds = 0.0;       // CPU time spent copying (ckpt + COU side)
  double duration() const { return end_time - begin_time; }
};

// Base of all checkpointers: owns the common sweep state machine, the
// write-ahead (LSN) gating, the ping-pong bookkeeping, and the
// begin/end-marker protocol; subclasses decide what to do with each
// segment. Also implements CheckpointHooks so TxnManager coordinates with
// whichever algorithm is active.
//
// Driving model: Begin(id, now) starts a checkpoint; Step(now) performs all
// work due at `now` and returns the next time the checkpointer needs
// service (+infinity once idle). The caller — engine simulator or the
// interactive facade — owns the clock.
class Checkpointer : public CheckpointHooks {
 public:
  // Shared subsystem handles. All pointers must outlive the checkpointer.
  struct Context {
    Database* db = nullptr;
    SegmentTable* segments = nullptr;
    BufferPool* buffers = nullptr;
    LogManager* log = nullptr;
    BackupStore* backup = nullptr;
    TxnManager* txns = nullptr;
    TimestampOracle* timestamps = nullptr;
    CpuMeter* meter = nullptr;
    SystemParams params;
    // Optional observability sinks (any may stay null). Every attempt's
    // begin/flush/degraded/end/abort events go to `events`.
    MetricsRegistry* metrics = nullptr;
    EventSink events;
  };

  // Completed-checkpoint stats retained by history(); older entries are
  // discarded once the cap is exceeded.
  static constexpr size_t kHistoryCap = 256;

  // Builds the requested algorithm. Fails (FAILED_PRECONDITION) for
  // kFastFuzzy without a stable log tail, which would violate the
  // write-ahead protocol (Section 3.1).
  static StatusOr<std::unique_ptr<Checkpointer>> Create(
      Algorithm algorithm, const Context& ctx, CheckpointMode mode);

  ~Checkpointer() override = default;

  virtual Algorithm algorithm() const = 0;
  std::string_view name() const { return AlgorithmName(algorithm()); }
  CheckpointMode mode() const { return mode_; }

  // Starts checkpoint `id` (writes ping-pong copy id%2): logs the begin
  // marker (with the active-transaction list), flushes the log tail, and
  // arms the sweep. FAILED_PRECONDITION if one is already in progress.
  Status Begin(CheckpointId id, double now);

  // Performs work due at `now`. Returns the next service time, or
  // +infinity when idle. Monotonically nondecreasing `now` across calls.
  StatusOr<double> Step(double now);

  bool InProgress() const { return state_ != State::kIdle; }
  CheckpointId current_id() const { return id_; }
  // Next segment the sweep will visit (== num_segments once the sweep is
  // done); exposed for monitoring and tests.
  SegmentId SweepPosition() const { return cur_seg_; }

  const CheckpointStats& last_stats() const { return last_stats_; }
  // Most recent completed checkpoints, oldest first, bounded by
  // kHistoryCap. Callers that index relative to a remembered
  // position must use history_dropped() to translate absolute checkpoint
  // ordinals (dropped + index) back into deque positions.
  const std::deque<CheckpointStats>& history() const { return history_; }
  // Entries discarded from the front of history() to honor the cap.
  uint64_t history_dropped() const { return history_dropped_; }

  // Abandons any in-progress checkpoint and volatile state (crash path).
  virtual void Reset();

  // Aborts an in-progress checkpoint after an I/O failure: releases locks
  // and algorithm state (via Reset) and re-marks the dirty bits of every
  // segment this attempt had cleared, so the next attempt — which reuses
  // the same id and therefore the same ping-pong copy — rewrites them.
  // The previous complete copy is never touched by a failed attempt, so a
  // readable backup exists throughout. No-op when idle. `now` is only for
  // the trace timeline; callers without a clock may omit it (the event is
  // then stamped with the checkpoint's begin time). `cause` (the failing
  // Status, rendered) is journaled with the ckpt.abort provenance event so
  // an abort/retry chain explains *why* each attempt died.
  void Abort(double now = -1.0, std::string_view cause = {});
  // Checkpoints abandoned via Abort() since construction.
  uint64_t aborted_count() const { return aborted_count_; }

  // Whether Begin stalls new transactions until the sweep starts — the COU
  // quiesce of Section 3.2.2. Public so the engine can enforce the
  // "no active transactions at Begin" precondition for any quiescing
  // algorithm without hard-coding the list.
  virtual bool QuiescesTransactions() const { return false; }

  // Earliest virtual time >= `now` at which a transaction touching
  // `segments` may execute, and what holds it back until then: the COU
  // quiesce barrier at checkpoint start (Section 3.2.2) or a segment the
  // checkpointer holds locked through a disk I/O (2CFLUSH / COUFLUSH).
  // kNone when the set can execute immediately (time == now). When both
  // apply, the later-releasing condition is the cause: it is the one the
  // caller waits for. The engine waits until `time`, servicing checkpoint
  // events, and attributes the stall to `cause` in the per-transaction
  // latency breakdown.
  enum class StallCause : uint8_t { kNone, kQuiesce, kCheckpointLock };
  struct Admission {
    double time;
    StallCause cause;
  };
  Admission AdmissionAt(const std::vector<SegmentId>& segments,
                        double now) const;

  // --- CheckpointHooks (defaults; subclasses refine) ---------------------
  bool AdmitAccess(const std::vector<SegmentId>& segments,
                   double now) override;
  void BeforeSegmentUpdate(SegmentId s, RecordId record, Timestamp txn_ts,
                           double now) override;
  bool NeedsLsnMaintenance() const override;
  bool NeedsTimestampMaintenance() const override { return false; }

 protected:
  enum class State : uint8_t {
    kIdle,
    kSweeping,    // processing segments in order
    kDraining,    // sweep done; waiting for outstanding segment writes
    kFinalizing,  // end marker logged; waiting for it to become durable
  };

  Checkpointer(const Context& ctx, CheckpointMode mode);

  // Subclass policy: handle segment `s` at time `now` (issue its write,
  // stage a copy, or skip). Dirty-bit skipping is handled by the base.
  virtual Status ProcessSegment(SegmentId s, double now) = 0;

  // Subclass notifications.
  virtual Status OnBegin(double now);
  virtual Status OnComplete(double now);

  // Called for segments the partial-mode dirty test skips (the two-color
  // algorithms still paint them black).
  virtual void OnSkipSegment(SegmentId s) { (void)s; }

  // True if `s` must be written in this checkpoint (mode/dirty test). The
  // base charges the dirty-bit scan cost.
  bool NeedsFlush(SegmentId s);

  // Issues the backup write of `data` for segment `s`, no earlier than
  // `earliest` (write-ahead gate). Returns the completion time. Charges
  // C_io. If `lock_through_io`, the segment stays checkpoint-locked until
  // the returned time.
  StatusOr<double> SubmitWrite(SegmentId s, std::string_view data,
                               double now, double earliest,
                               bool lock_through_io);

  // Time at which the log is durable through `lsn`, flushing the tail if
  // the record is still buffered (models waiting for the next group
  // flush). Surfaces the flush's device error, which fails the checkpoint
  // (the write-ahead gate cannot be satisfied).
  StatusOr<double> WhenLogDurable(Lsn lsn, double now);

  // Charges c * C_lock to the checkpointer lock category.
  void ChargeCkptLocks(int ops);

  uint32_t copy() const { return BackupStore::CopyFor(id_); }

  Context ctx_;
  CheckpointMode mode_;

  State state_ = State::kIdle;
  CheckpointId id_ = 0;
  Lsn begin_marker_lsn_ = kInvalidLsn;
  uint64_t begin_marker_offset_ = 0;
  Timestamp tau_ch_ = 0;       // tau(CH), COU algorithms
  double sweep_start_ = 0.0;   // no segment write may be issued before this
  double next_due_ = 0.0;      // sweep pacing: Step is a no-op before this
  SegmentId cur_seg_ = 0;      // next segment the sweep will visit
  double last_write_done_ = 0.0;
  double end_marker_durable_ = 0.0;

  // Segments the checkpointer holds locked through an in-flight disk I/O,
  // mapped to the lock release (I/O completion) time.
  std::unordered_map<SegmentId, double> locked_until_;

  // Segments whose dirty bit this attempt cleared; Abort() restores them.
  std::vector<SegmentId> cleared_dirty_;
  uint64_t aborted_count_ = 0;

  CheckpointStats stats_;       // in-progress
  CheckpointStats last_stats_;  // most recently completed
  std::deque<CheckpointStats> history_;
  uint64_t history_dropped_ = 0;

  // CPU-copy instruction counts at Begin, for stats_.copy_seconds.
  double copy_instr_at_begin_ = 0.0;

  // Cached registry instruments (all null when Context::metrics is null).
  Counter* m_completed_ = nullptr;
  Counter* m_aborted_ = nullptr;
  Counter* m_segments_flushed_ = nullptr;
  Counter* m_segments_skipped_ = nullptr;
  Counter* m_history_dropped_ = nullptr;
  Timer* m_duration_seconds_ = nullptr;
  Timer* m_lock_held_seconds_ = nullptr;
  Timer* m_flush_io_seconds_ = nullptr;
  Timer* m_log_wait_seconds_ = nullptr;
  Timer* m_copy_seconds_ = nullptr;
  Timer* m_quiesce_seconds_ = nullptr;

  static constexpr double kNever = std::numeric_limits<double>::infinity();
};

}  // namespace mmdb

#endif  // MMDB_CHECKPOINT_CHECKPOINTER_H_

#ifndef MMDB_CORE_ENGINE_H_
#define MMDB_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backup/backup_store.h"
#include "checkpoint/checkpointer.h"
#include "checkpoint/scheduler.h"
#include "core/options.h"
#include "env/env.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "recovery/instant.h"
#include "recovery/recovery_manager.h"
#include "sim/cpu_meter.h"
#include "sim/disk_model.h"
#include "sim/virtual_clock.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/segment_table.h"
#include "txn/txn_manager.h"
#include "util/status.h"
#include "util/statusor.h"
#include "wal/log_manager.h"

namespace mmdb {

class FaultInjectionEnv;

// The memory-resident database engine: ties together the primary database,
// transaction manager, REDO log, ping-pong backup store, the selected
// checkpointing algorithm, and crash recovery.
//
// Time. The engine runs on a deterministic virtual clock. Client calls are
// instantaneous except where the checkpointing algorithm forces a wait (a
// segment the checkpointer holds locked through a disk I/O, or the COU
// quiesce barrier), in which case the clock advances to the release point.
// Log flushes and backup writes are asynchronous: they are issued
// immediately but become durable at their modeled completion times, so a
// Crash() right after Commit() loses the transaction exactly as a real
// power failure would. Use AdvanceTime to let in-flight I/O land.
//
// Typical use:
//   auto engine = Engine::Open(options, env).value();
//   Transaction* t = engine->Begin();
//   engine->Write(t, record, image);
//   engine->Commit(t);                       // ABORTED => retry (two-color)
//   engine->RunCheckpointToCompletion();
//   engine->Crash();                         // simulate power loss
//   engine->Recover();                       // rebuild from backup + log
//
// Thread-compatibility: single-threaded by design (cooperative scheduling
// is what makes every experiment reproducible); not thread-safe.
class Engine {
 public:
  // Creates a fresh engine (empty database, empty log, preallocated backup
  // copies) inside `env`. `env` must outlive the engine.
  static StatusOr<std::unique_ptr<Engine>> Open(const EngineOptions& options,
                                                Env* env);

  // Cold restart: reopens the backup copies and log left behind by an
  // earlier engine in `options.dir` (whether it shut down cleanly or not),
  // runs system-failure recovery to rebuild the primary copy, and resumes
  // — LSNs and checkpoint numbering (ping-pong alternation) continue where
  // they left off. The stored geometry must match `options.params`.
  // NOT_FOUND if the directory holds no engine state.
  static StatusOr<std::unique_ptr<Engine>> OpenExisting(
      const EngineOptions& options, Env* env);

  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- transactions ------------------------------------------------------
  Transaction* Begin();
  Status Read(Transaction* txn, RecordId record, std::string* out);
  Status Write(Transaction* txn, RecordId record, std::string_view image);
  // ABORTED is impossible here (two-color violations surface on the
  // Read/Write that crosses the boundary); returns the commit LSN.
  StatusOr<Lsn> Commit(Transaction* txn);
  void Abort(Transaction* txn);
  // Abort with explicit accounting: kColorViolation marks the attempt's
  // work as checkpoint-induced rerun overhead (the workload driver's retry
  // path); plain Abort uses kUser.
  void Abort(Transaction* txn, AbortReason reason);

  // Buffers a logical operation: add `delta` to the little-endian 8-byte
  // field at `field_offset` within `record`, logged as a compact kDelta
  // record (a fraction of an after-image). FAILED_PRECONDITION unless the
  // engine runs a copy-on-update algorithm: logical REDO is not
  // idempotent, so the backup must be an exact snapshot at the replay
  // start point (see SupportsLogicalLogging).
  Status WriteDelta(Transaction* txn, RecordId record, uint32_t field_offset,
                    int64_t delta);

  // One-shot delta transaction with the same retry behaviour as Apply.
  StatusOr<Lsn> ApplyDelta(RecordId record, uint32_t field_offset,
                           int64_t delta, int max_attempts = 100);

  // One-shot read-modify-write transaction over `updates`, retrying
  // two-color aborts (with a small virtual-time backoff) up to
  // `max_attempts` times. Returns the commit LSN; INVALID_ARGUMENT, with
  // no transaction begun, when `max_attempts` < 1.
  StatusOr<Lsn> Apply(
      const std::vector<std::pair<RecordId, std::string>>& updates,
      int max_attempts = 100);

  // Non-transactional point read of the current primary copy. During an
  // instant-recovery drain the touched segment is force-materialized
  // first (diagnostic reads see recovered bytes without moving the
  // clock). An out-of-range id returns an empty view and materializes
  // nothing; the check holds in every build.
  std::string_view ReadRecordRaw(RecordId record) const {
    if (record >= db_->num_records()) return {};
    if (instant_ != nullptr) {
      const_cast<Engine*>(this)->ForceRecoverRecord(record);
    }
    return db_->ReadRecord(record);
  }

  // --- checkpointing -----------------------------------------------------
  // Starts the next checkpoint. FAILED_PRECONDITION if one is running, or
  // if a COU algorithm would have to quiesce around open client
  // transactions (commit or abort them first).
  Status StartCheckpoint();
  bool CheckpointInProgress() const { return checkpointer_->InProgress(); }
  // Advances the in-progress checkpoint by one event, moving the clock to
  // that event's time. No-op when idle. On a device error the checkpoint
  // is aborted (dirty bits restored, previous complete backup untouched)
  // and the error returned; the next StartCheckpoint retries with the same
  // id, overwriting the torn ping-pong copy.
  Status StepCheckpoint();
  // Starts (if idle) and drives the checkpoint to completion.
  Status RunCheckpointToCompletion();
  // Most recent checkpoint failure (OK if none ever failed). Failures
  // encountered while AdvanceTime services checkpoint events are recorded
  // here rather than failing the timeline.
  const Status& last_checkpoint_error() const {
    return last_checkpoint_error_;
  }

  // --- time & durability -------------------------------------------------
  double now() const { return clock_.now(); }
  // Moves the clock forward, flushing the log on the group-commit cadence
  // and servicing due checkpoint events along the way. Device errors on
  // those background flushes/checkpoints degrade gracefully (durability
  // simply does not advance; the checkpoint aborts and will retry) instead
  // of failing the timeline.
  Status AdvanceTime(double seconds);
  // Forces a log flush now (durable at the modeled completion time).
  // Surfaces the device error if the flush failed.
  Status FlushLog();
  // Highest LSN guaranteed durable at the current time.
  Lsn DurableLsn() const { return log_->DurableLsn(clock_.now()); }

  // --- failure & recovery --------------------------------------------------
  // Simulates a system failure at the current time: volatile memory (the
  // primary database, log tail, transaction and checkpoint state) is lost;
  // in-flight backup writes tear. Only Recover() (or destruction) is legal
  // afterwards.
  Status Crash();
  // Rebuilds the primary database from the backup and log; advances the
  // clock by the modeled recovery time. With instant recovery enabled
  // (DESIGN.md §19) this returns as soon as the recovery PLAN is built —
  // the clock advances only by the log-read phase — and segments recover
  // on demand while transactions run; the returned stats are already the
  // blocking-equivalent modeled quantities. A failed restart leaves the
  // engine crashed and journals recovery.error; Recover() may be called
  // again, and loads eagerly if the failed restart had already served
  // transactions (they are durable or lost exactly as at a crash).
  StatusOr<RecoveryStats> Recover();
  bool crashed() const { return crashed_; }

  // Runs the remaining on-demand recovery to completion: advances the
  // clock to the last background reload and materializes every pending
  // segment. No-op when no instant recovery is draining. Called
  // implicitly by StartCheckpoint (a checkpoint must sweep a fully
  // recovered primary).
  Status DrainRecovery();
  // True while an instant recovery still has unmaterialized segments.
  bool recovery_pending() const { return instant_ != nullptr; }
  uint64_t pending_recovery_segments() const {
    return instant_ != nullptr ? instant_->pending_segments() : 0;
  }
  // Effective instant-recovery setting (EngineOptions::instant_recovery
  // after the MMDB_INSTANT_RECOVERY override).
  bool instant_recovery_enabled() const { return instant_enabled_; }
  // The MMDB_INSTANT_RECOVERY environment variable (0 or 1) when set and
  // parseable, otherwise `configured`.
  static bool ResolveInstantRecovery(bool configured);
  // Availability metrics of the most recent restart (zeros when instant
  // recovery did not run): virtual seconds from the crash instant to
  // first admission vs to the last segment reload.
  double time_to_first_txn() const { return avail_.time_to_first_txn; }
  double time_to_full_recovery() const {
    return avail_.time_to_full_recovery;
  }
  // Stats of the most recent Recover(). Under instant recovery these are
  // provisional until the drain completes (an on-demand older-copy
  // fallback refines them); read after DrainRecovery() for the final,
  // blocking-equivalent values.
  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // --- introspection -------------------------------------------------------
  const EngineOptions& options() const { return options_; }
  const SystemParams& params() const { return options_.params; }
  const CpuMeter& meter() const { return meter_; }
  const TxnManager& txns() const { return *txns_; }
  const Checkpointer& checkpointer() const { return *checkpointer_; }
  const CheckpointScheduler& scheduler() const { return scheduler_; }
  CheckpointScheduler& scheduler() { return scheduler_; }
  const Database& db() const { return *db_; }
  const BufferPool& buffers() const { return *buffers_; }
  LogManager* log() { return log_.get(); }
  BackupStore* backup() { return backup_.get(); }
  Env* env() { return env_; }

  // --- observability -------------------------------------------------------
  // Null when options.enable_metrics is false.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }
  Tracer* tracer() { return tracer_.get(); }
  const Tracer* tracer() const { return tracer_.get(); }
  // Null unless options.timeseries_epoch > 0 (and metrics are enabled).
  const TimeSeriesSampler* timeseries() const { return sampler_.get(); }
  // Cumulative admission-stall time by cause (virtual seconds) since the
  // engine opened: time client calls spent blocked on the COU quiesce
  // barrier vs on checkpoint-held segment locks. Deterministic; the
  // workload driver reads deltas around each call to attribute a
  // transaction's latency to its cause.
  double stall_quiesce_seconds() const { return stall_quiesce_seconds_; }
  double stall_ckpt_lock_seconds() const { return stall_ckpt_lock_seconds_; }
  // Time client calls spent stalled on a per-segment recovery latch (the
  // sixth latency cause; nonzero only under instant recovery).
  double stall_recovery_wait_seconds() const {
    return stall_recovery_wait_seconds_;
  }
  // One self-describing JSON object: configuration, the metrics registry
  // snapshot (per-phase checkpoint timers, log flush stats, recovery phase
  // split, device accounting), the trace ring, and the retained checkpoint
  // history. Always valid JSON; the metrics/trace members are null when
  // observability is disabled.
  std::string DumpMetricsJson() const;

  // Provenance journal (DESIGN.md §18); null when options.audit_journal is
  // false. The journal is an audit artifact, never a recovery input.
  AuditJournal* audit() { return audit_.get(); }
  const AuditJournal* audit() const { return audit_.get(); }
  // Per-segment lineage of the most recent successful Recover() (empty
  // before any recovery) — the data behind DumpMetricsJson()'s
  // "audit.lineage" member and mmdb_audit's verify cross-check.
  const std::vector<SegmentLineage>& last_lineage() const {
    return last_lineage_;
  }

  // Paths within the Env.
  std::string LogPath() const { return options_.dir + "/wal.log"; }
  std::string AuditLogPath() const { return options_.dir + "/audit.log"; }

 private:
  Engine(const EngineOptions& options, Env* env);
  // Builds the subsystems; `fresh` truncates/creates the log file, while a
  // restart leaves it for recovery to read first.
  Status Init(bool fresh);
  // Drops no-longer-replayable log prefix after a checkpoint completes.
  Status MaybeTruncateLog();

  // Waits (advances the clock) until a transaction may touch `segments`.
  Status WaitForAdmission(const std::vector<SegmentId>& segments);
  // Instant-recovery admission gate: stalls on each touched segment's
  // recovery latch (recovery_wait attribution) and materializes it.
  Status AdmitRecovery(const std::vector<SegmentId>& segments);
  // Force-materializes `record`'s segment for a diagnostic raw read.
  void ForceRecoverRecord(RecordId record);
  // Post-materialization bookkeeping: the one-time scheduler fixup after
  // an older-copy fallback, and finalization once every segment loaded.
  void SyncInstant();
  // The one finalization of a restart, blocking or instant, once every
  // segment is loaded and the log has reopened: publishes the stats and
  // lineage, emits recovery.lineage, the phases and recovery.end, and
  // records the registry counters.
  void FinishRecovery();
  // The restart failed (planning, loading a segment, or reopening the
  // log): journal recovery.error, abandon any drain and leave the engine
  // crashed, so Recover() may be retried. A failure after the log reopened
  // also halts the log and the backup as Crash() does, but keeps the open
  // transactions (their callers still abort them).
  Status FailRecovery(Status error);
  // Resumes checkpoint numbering past every end marker in the log.
  void RestoreCheckpointNumbering(CheckpointId restored);
  // Samples the time series (if enabled) up to the current clock.
  void TickSampler() {
    if (sampler_ != nullptr) sampler_->SampleUpTo(clock_.now());
  }
  // Flushes the log if the tail exceeds the group-commit threshold.
  Status MaybeGroupFlush();
  // The retry loop of Apply and ApplyDelta: runs `body` in a fresh
  // transaction and commits it, retrying two-color aborts.
  StatusOr<Lsn> RetryTxn(int max_attempts,
                         const std::function<Status(Transaction*)>& body);
  // Aborts the in-progress checkpoint after `error` and records it.
  Status FailCheckpoint(Status error);

  EngineOptions options_;
  Env* env_;

  // Observability sinks, built before every other subsystem so their
  // pointers can be threaded through. Both stay null with enable_metrics
  // off (every sink call site null-checks). `events_` pairs the ring with
  // the journal: the one emission point of the events they share.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<Tracer> tracer_;
  EventSink events_;
  Timer* m_admission_wait_ = nullptr;
  Timer* m_stall_quiesce_ = nullptr;
  Timer* m_stall_ckpt_lock_ = nullptr;
  Timer* m_stall_recovery_wait_ = nullptr;
  double stall_quiesce_seconds_ = 0.0;
  double stall_ckpt_lock_seconds_ = 0.0;
  double stall_recovery_wait_seconds_ = 0.0;
  // Built at Init when options.timeseries_epoch > 0; ticked whenever the
  // virtual clock advances (AdvanceTime events, checkpoint steps,
  // recovery).
  std::unique_ptr<TimeSeriesSampler> sampler_;
  // Set at Init when env_ is (or wraps into) a FaultInjectionEnv; the
  // engine's fault listener is registered on it and removed on destruction.
  FaultInjectionEnv* fault_env_ = nullptr;

  VirtualClock clock_;
  CpuMeter meter_;
  DiskArrayModel backup_disks_;

  std::unique_ptr<Database> db_;
  std::unique_ptr<SegmentTable> segments_;
  std::unique_ptr<BufferPool> buffers_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BackupStore> backup_;
  std::unique_ptr<TxnManager> txns_;
  TimestampOracle timestamps_;
  std::unique_ptr<Checkpointer> checkpointer_;
  CheckpointScheduler scheduler_;

  // Stats of the most recent successful Recover(), surfaced by
  // DumpMetricsJson()'s "recovery" member (modeled) and "host.recovery".
  RecoveryStats last_recovery_;
  bool has_last_recovery_ = false;
  // Provenance journal (null when options.audit_journal is false) and the
  // per-segment lineage of the most recent successful recovery.
  std::unique_ptr<AuditJournal> audit_;
  std::vector<SegmentLineage> last_lineage_;

  // --- instant recovery (DESIGN.md §19) ---------------------------------
  // Effective setting, resolved once at Init (env override included).
  bool instant_enabled_ = false;
  // Live recovery state, non-null from planning until FinishRecovery (or
  // the next Crash()): within a blocking Recover(), and across an
  // instant one's drain.
  std::unique_ptr<InstantRecovery> instant_;
  // One-shot guard for the post-fallback checkpoint-numbering fixup.
  bool instant_fixup_done_ = false;
  // Inputs Recover() saved for finalization: the crash instant (trace
  // events, the audit chain and the availability metrics use it as their
  // timeline) and the newest end-marker id (the scheduler fixup must
  // re-run after a fallback rewinds stats.checkpoint_id).
  double recovery_crash_now_ = 0.0;
  CheckpointId newest_end_id_ = 0;
  // Begin marker of the checkpoint the older-copy fallback would restore
  // once the next checkpoint completes: the newest complete one, or after
  // a restart the restored one. Log truncation never cuts past it.
  uint64_t fallback_marker_ = 0;
  // The last restart failed after it had served transactions: the next
  // Recover() loads every segment before it admits any, so commits it
  // serves cannot fail it the same way again (FailRecovery).
  bool retry_eagerly_ = false;
  // Availability metrics of the most recent restart; the dump's
  // "availability" member is null until `ran`.
  struct Availability {
    bool ran = false;
    bool drained = false;
    double time_to_first_txn = 0.0;
    double time_to_full_recovery = 0.0;
    uint64_t touch_loads = 0;
    uint64_t background_loads = 0;
    uint64_t force_loads = 0;
  };
  Availability avail_;

  uint64_t apply_seed_ = 0x6d6d6462;  // backoff jitter for Apply retries
  bool crashed_ = false;
  // True only while OpenExisting's implicit recovery runs (tags the
  // kRecoveryBegin trace event as a restart rather than a crash).
  bool restarting_ = false;
  Status last_checkpoint_error_;
  // Whether any logical delta has been staged: checkpoint failures then
  // halt the engine instead of retrying (delta replay is not idempotent).
  bool logical_deltas_logged_ = false;
};

}  // namespace mmdb

#endif  // MMDB_CORE_ENGINE_H_

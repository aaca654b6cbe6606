#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <utility>

#include "env/fault_injection_env.h"
#include "util/json.h"
#include "util/random.h"
#include "util/string_util.h"

namespace mmdb {
namespace {
constexpr double kNoEvent = std::numeric_limits<double>::infinity();
}  // namespace

Engine::Engine(const EngineOptions& options, Env* env)
    : options_(options),
      env_(env),
      backup_disks_(options.params.disk),
      scheduler_(options.checkpoint_interval) {}

StatusOr<std::unique_ptr<Engine>> Engine::Open(const EngineOptions& options,
                                               Env* env) {
  if (env == nullptr) return InvalidArgumentError("env must not be null");
  MMDB_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<Engine> engine(new Engine(options, env));
  MMDB_RETURN_IF_ERROR(engine->Init(/*fresh=*/true));
  return engine;
}

StatusOr<std::unique_ptr<Engine>> Engine::OpenExisting(
    const EngineOptions& options, Env* env) {
  if (env == nullptr) return InvalidArgumentError("env must not be null");
  MMDB_RETURN_IF_ERROR(options.Validate());
  if (!env->FileExists(options.dir + "/wal.log")) {
    return NotFoundError("no engine state in '" + options.dir +
                         "'; use Engine::Open to create one");
  }
  std::unique_ptr<Engine> engine(new Engine(options, env));
  MMDB_RETURN_IF_ERROR(engine->Init(/*fresh=*/false));
  // Restart is recovery: rebuild the primary copy from the backup and log
  // exactly as after a power failure, then resume numbering.
  engine->crashed_ = true;
  engine->restarting_ = true;
  // Recover() also restores the checkpoint numbering.
  MMDB_RETURN_IF_ERROR(engine->Recover().status());
  return engine;
}

Engine::~Engine() {
  // fault_env_ was probed at Init; when it is null the destructor must not
  // touch env_ at all — callers may legitimately destroy a plain Env before
  // an engine they have finished with.
  if (fault_env_ != nullptr) {
    fault_env_->RemoveFaultListeners(this);
  }
}

bool Engine::ResolveInstantRecovery(bool configured) {
  const char* env = std::getenv("MMDB_INSTANT_RECOVERY");
  uint64_t parsed = 0;
  if (env != nullptr && ParseNumber(env, &parsed) && parsed <= 1) {
    return parsed == 1;
  }
  return configured;
}

// Samples the time-series sampler retains; beyond this the oldest are
// dropped (with a drop count), bounding the dump size of long runs.
constexpr size_t kTimeSeriesCapacity = 512;

Status Engine::Init(bool fresh) {
  const SystemParams& p = options_.params;
  instant_enabled_ = ResolveInstantRecovery(options_.instant_recovery);
  MMDB_RETURN_IF_ERROR(env_->CreateDirIfMissing(options_.dir));

  if (options_.audit_journal) {
    // The provenance journal opens before any subsystem that might emit to
    // it. On a restart the existing journal is resumed (its valid prefix
    // kept) so checkpoint lineage survives crashes; a journal that cannot
    // open degrades to a disabled sink rather than failing the engine.
    audit_ = std::make_unique<AuditJournal>(env_, AuditLogPath());
    audit_->Open(fresh);
  }

  if (options_.enable_metrics) {
    metrics_ = std::make_unique<MetricsRegistry>();
    tracer_ = std::make_unique<Tracer>(Tracer::ResolveCapacity());
    m_admission_wait_ = metrics_->timer("engine.admission_wait_seconds");
    m_stall_quiesce_ = metrics_->timer("engine.stall_quiesce_seconds");
    m_stall_ckpt_lock_ = metrics_->timer("engine.stall_ckpt_lock_seconds");
    m_stall_recovery_wait_ =
        metrics_->timer("engine.stall_recovery_wait_seconds");
    // If the caller wrapped the Env in fault injection, mirror every rule
    // firing into the trace so a failure's cause appears on the same
    // timeline as its effects (aborted checkpoints, flush errors).
    fault_env_ = dynamic_cast<FaultInjectionEnv*>(env_);
    if (fault_env_ != nullptr) {
      Counter* fired = metrics_->counter("faults.injected");
      Tracer* tracer = tracer_.get();
      const VirtualClock* clock = &clock_;
      fault_env_->AddFaultListener(
          this, [fired, tracer, clock](FaultKind kind, const std::string&,
                                       uint64_t op) {
            fired->Increment();
            tracer->Record(TraceEventType::kFaultInjected, clock->now(), 0.0,
                           static_cast<uint64_t>(kind), op);
          });
    }
  }
  events_ = {tracer_.get(), audit_.get()};

  db_ = std::make_unique<Database>(p.db);
  segments_ = std::make_unique<SegmentTable>(p.db.num_segments());
  buffers_ = std::make_unique<BufferPool>(p.db.segment_bytes(),
                                          options_.max_snapshot_buffers);
  log_ = std::make_unique<LogManager>(env_, LogPath(), p, &meter_,
                                      options_.stable_log_tail,
                                      options_.log_flush_interval);
  log_->set_obs(metrics_.get(), tracer_.get());
  if (fresh) {
    MMDB_RETURN_IF_ERROR(log_->Open());
  }  // else: Recover() reads the existing file, then reopens it.
  backup_ = std::make_unique<BackupStore>(env_, options_.dir, p,
                                          &backup_disks_);
  backup_->set_obs(metrics_.get());
  MMDB_RETURN_IF_ERROR(backup_->Open());
  txns_ = std::make_unique<TxnManager>(db_.get(), segments_.get(), log_.get(),
                                       &timestamps_, &meter_, p);
  txns_->set_obs(metrics_.get(), tracer_.get());

  Checkpointer::Context ctx;
  ctx.db = db_.get();
  ctx.segments = segments_.get();
  ctx.buffers = buffers_.get();
  ctx.log = log_.get();
  ctx.backup = backup_.get();
  ctx.txns = txns_.get();
  ctx.timestamps = &timestamps_;
  ctx.meter = &meter_;
  ctx.params = p;
  ctx.metrics = metrics_.get();
  ctx.events = events_;
  MMDB_ASSIGN_OR_RETURN(
      checkpointer_,
      Checkpointer::Create(options_.algorithm, ctx, options_.checkpoint_mode));
  txns_->set_hooks(checkpointer_.get());

  if (metrics_ != nullptr && options_.timeseries_epoch > 0.0) {
    TimeSeriesSampler::Options ts;
    ts.epoch = options_.timeseries_epoch;
    ts.capacity = kTimeSeriesCapacity;
    sampler_ = std::make_unique<TimeSeriesSampler>(ts);
    // Foreground progress and interference counters next to checkpoint
    // progress, so the exported counter tracks line up with the
    // checkpoint phase slices in the trace viewer.
    sampler_->AddCounter("txn.commits", metrics_->counter("txn.commits"));
    sampler_->AddCounter("txn.color_aborts",
                         metrics_->counter("txn.color_aborts"));
    sampler_->AddCounter("txn.lock_aborts",
                         metrics_->counter("txn.lock_aborts"));
    sampler_->AddCounter("ckpt.completed",
                         metrics_->counter("ckpt.completed"));
    sampler_->AddCounter("ckpt.segments_flushed",
                         metrics_->counter("ckpt.segments_flushed"));
    const Checkpointer* ckpt = checkpointer_.get();
    sampler_->AddGauge("ckpt.in_progress", [ckpt] {
      return ckpt->InProgress() ? 1.0 : 0.0;
    });
    sampler_->AddGauge("ckpt.sweep_pos", [ckpt] {
      return static_cast<double>(ckpt->SweepPosition());
    });
    const LogManager* log = log_.get();
    sampler_->AddGauge("log.tail_bytes", [log] {
      return static_cast<double>(log->TailBytes());
    });
    sampler_->AddGauge("engine.stall_quiesce_seconds",
                       [this] { return stall_quiesce_seconds_; });
    sampler_->AddGauge("engine.stall_ckpt_lock_seconds",
                       [this] { return stall_ckpt_lock_seconds_; });
    sampler_->AddGauge("engine.stall_recovery_wait_seconds",
                       [this] { return stall_recovery_wait_seconds_; });
    sampler_->AddGauge("recovery.pending_segments", [this] {
      return static_cast<double>(pending_recovery_segments());
    });
  }
  return Status::OK();
}

Transaction* Engine::Begin() {
  assert(!crashed_);
  return txns_->Begin(clock_.now());
}

Status Engine::AdmitRecovery(const std::vector<SegmentId>& segs) {
  if (instant_ == nullptr) return Status::OK();
  for (SegmentId s : segs) {
    if (instant_ == nullptr) break;  // drain finished mid-loop
    const double now = clock_.now();
    const double available = instant_->Touch(s, now);
    const double wait = available - now;
    // Materialize BEFORE advancing the clock: loading bytes costs no
    // virtual time, and the AdvanceTime sweep below must see this
    // segment already loaded so it does not claim the touch-triggered
    // load as a background one.
    Status loaded =
        instant_->Materialize(s, now, InstantRecovery::LoadTrigger::kTouch);
    if (!loaded.ok()) return FailRecovery(std::move(loaded));
    if (wait > 0) {
      // The sixth stall cause: the transaction waits on this segment's
      // recovery latch until its backup reload completes.
      if (tracer_) {
        tracer_->Record(TraceEventType::kLockWait, now, available);
      }
      if (m_admission_wait_) m_admission_wait_->Record(wait);
      stall_recovery_wait_seconds_ += wait;
      if (m_stall_recovery_wait_) m_stall_recovery_wait_->Record(wait);
      MMDB_RETURN_IF_ERROR(AdvanceTime(wait));
    }
    SyncInstant();
  }
  return Status::OK();
}

Status Engine::WaitForAdmission(const std::vector<SegmentId>& segs) {
  // A restart's on-demand recovery gates admission first: a transaction
  // may not touch a segment whose post-crash image is not loaded yet.
  MMDB_RETURN_IF_ERROR(AdmitRecovery(segs));
  // Blocked on a checkpoint-held lock or the COU quiesce barrier: wait,
  // servicing checkpoint events so the blocker actually clears. Loops in
  // case servicing those events takes further locks on our segments.
  while (true) {
    const Checkpointer::Admission admit =
        checkpointer_->AdmissionAt(segs, clock_.now());
    if (admit.cause == Checkpointer::StallCause::kNone) return Status::OK();
    if (tracer_) {
      tracer_->Record(TraceEventType::kLockWait, clock_.now(), admit.time);
    }
    double wait = admit.time - clock_.now();
    if (m_admission_wait_) m_admission_wait_->Record(wait);
    // Attribute the stall to its cause for the latency breakdown.
    if (admit.cause == Checkpointer::StallCause::kQuiesce) {
      stall_quiesce_seconds_ += wait;
      if (m_stall_quiesce_) m_stall_quiesce_->Record(wait);
    } else {
      stall_ckpt_lock_seconds_ += wait;
      if (m_stall_ckpt_lock_) m_stall_ckpt_lock_->Record(wait);
    }
    MMDB_RETURN_IF_ERROR(AdvanceTime(wait));
  }
}

Status Engine::Read(Transaction* txn, RecordId record, std::string* out) {
  if (crashed_) return FailedPreconditionError("engine has crashed");
  MMDB_RETURN_IF_ERROR(WaitForAdmission({db_->SegmentOf(record)}));
  return txns_->Read(txn, record, out, clock_.now());
}

Status Engine::Write(Transaction* txn, RecordId record,
                     std::string_view image) {
  if (crashed_) return FailedPreconditionError("engine has crashed");
  MMDB_RETURN_IF_ERROR(WaitForAdmission({db_->SegmentOf(record)}));
  return txns_->Write(txn, record, image, clock_.now());
}

Status Engine::WriteDelta(Transaction* txn, RecordId record,
                          uint32_t field_offset, int64_t delta) {
  if (crashed_) return FailedPreconditionError("engine has crashed");
  if (!SupportsLogicalLogging(options_.algorithm)) {
    return FailedPreconditionError(
        "logical (delta) operations require a copy-on-update checkpointing "
        "algorithm: replaying non-idempotent REDO against a fuzzy or "
        "boundary-consistent backup corrupts data");
  }
  MMDB_RETURN_IF_ERROR(WaitForAdmission({db_->SegmentOf(record)}));
  Status st = txns_->WriteDelta(txn, record, field_offset, delta, clock_.now());
  // Once a delta is staged the log may carry non-idempotent REDO records,
  // which rules out checkpoint abort-and-retry (see FailCheckpoint).
  if (st.ok()) logical_deltas_logged_ = true;
  return st;
}

StatusOr<Lsn> Engine::ApplyDelta(RecordId record, uint32_t field_offset,
                                 int64_t delta, int max_attempts) {
  return RetryTxn(max_attempts, [&](Transaction* txn) {
    return WriteDelta(txn, record, field_offset, delta);
  });
}

StatusOr<Lsn> Engine::Commit(Transaction* txn) {
  if (crashed_) return FailedPreconditionError("engine has crashed");
  // Installing updates touches the written segments; respect checkpoint
  // locks covering them. Deduplicate — a transaction writing several
  // records of one segment must wait on (and be charged for) that
  // segment's lock once, not once per record.
  std::vector<SegmentId> segs;
  for (const auto& [record, image] : txn->pending) {
    segs.push_back(db_->SegmentOf(record));
  }
  for (const auto& [key, delta] : txn->pending_deltas) {
    segs.push_back(db_->SegmentOf(key.first));
  }
  std::sort(segs.begin(), segs.end());
  segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
  MMDB_RETURN_IF_ERROR(WaitForAdmission(segs));
  StatusOr<Lsn> lsn = txns_->Commit(txn, clock_.now());
  if (!lsn.ok()) return lsn;
  if (instant_ != nullptr) instant_->NoteCommit();
  // Surface log-device errors to the committer. The transaction is applied
  // in memory and its records sit in the retained log tail — a later
  // successful flush still makes it durable — but the caller must learn
  // that durability did not advance here.
  MMDB_RETURN_IF_ERROR(MaybeGroupFlush());
  return lsn;
}

void Engine::Abort(Transaction* txn) {
  txns_->Abort(txn, AbortReason::kUser, clock_.now());
}

void Engine::Abort(Transaction* txn, AbortReason reason) {
  txns_->Abort(txn, reason, clock_.now());
}

StatusOr<Lsn> Engine::Apply(
    const std::vector<std::pair<RecordId, std::string>>& updates,
    int max_attempts) {
  return RetryTxn(max_attempts, [&](Transaction* txn) {
    for (const auto& [record, image] : updates) {
      MMDB_RETURN_IF_ERROR(Write(txn, record, image));
    }
    return Status::OK();
  });
}

StatusOr<Lsn> Engine::RetryTxn(
    int max_attempts, const std::function<Status(Transaction*)>& body) {
  if (max_attempts < 1) {
    return InvalidArgumentError("max_attempts must be at least 1");
  }
  Random backoff(apply_seed_++);
  Status last = Status::OK();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Transaction* txn = Begin();
    txn->attempt = attempt + 1;
    Status st = body(txn);
    if (st.ok()) return Commit(txn);
    txns_->Abort(txn,
                 st.IsAborted() ? AbortReason::kColorViolation
                                : AbortReason::kUser,
                 clock_.now());
    if (!st.IsAborted()) return st;  // only two-color conflicts retry
    last = st;
    // Small jittered backoff lets the sweep move past the conflict zone.
    MMDB_RETURN_IF_ERROR(
        AdvanceTime(backoff.Exponential(2.0 * options_.params.txn.instructions /
                                        (options_.params.cpu_mips * 1e6))));
  }
  return last;
}

Status Engine::StartCheckpoint() {
  if (crashed_) return FailedPreconditionError("engine has crashed");
  // A checkpoint sweeps the whole primary; finish the restart first so it
  // copies recovered bytes (and so the post-fallback numbering fixup has
  // landed before NextId is taken).
  MMDB_RETURN_IF_ERROR(DrainRecovery());
  if (checkpointer_->InProgress()) {
    return FailedPreconditionError("checkpoint already in progress");
  }
  if (checkpointer_->QuiescesTransactions() && txns_->num_active() > 0) {
    return FailedPreconditionError(
        "this algorithm quiesces transaction processing at checkpoint "
        "begin; commit or abort open transactions first");
  }
  CheckpointId id = scheduler_.NextId();
  MMDB_RETURN_IF_ERROR(checkpointer_->Begin(id, clock_.now()));
  scheduler_.OnBegin(clock_.now());
  return Status::OK();
}

Status Engine::FailCheckpoint(Status error) {
  // Abort-and-retry: the attempt's partial work is discarded (dirty bits
  // restored, locks released) and the previous complete backup copy is
  // untouched, so a readable backup still exists. The scheduler's
  // completed count is unchanged, so the next StartCheckpoint reuses the
  // same id and rewrites the same torn ping-pong copy.
  checkpointer_->Abort(clock_.now(), error.ToString());
  last_checkpoint_error_ = error;
  if (logical_deltas_logged_) {
    // Retrying is only sound because replaying full-image REDO records is
    // idempotent: the retried copy mixes two attempts' segment images, and
    // replay from the certified begin marker repaints every record anyway.
    // Logical deltas are not idempotent — replaying them over a segment
    // the retry already rewrote would apply them twice — so a logical-
    // logging engine halts instead. The lost tail also discards any stale
    // end marker this attempt left in the unflushed tail, so recovery
    // restores the last complete checkpoint exactly.
    (void)Crash();
  }
  return error;
}

Status Engine::StepCheckpoint() {
  if (!checkpointer_->InProgress()) return Status::OK();
  StatusOr<double> next = checkpointer_->Step(clock_.now());
  if (!checkpointer_->InProgress()) {
    // The checkpoint completed. `next` may still hold an error: a failed
    // metadata rewrite after the end marker was durable. The copy is
    // complete and the log certifies it (recovery trusts the backward scan
    // over stale metadata), so the schedule advances either way and the
    // error is only surfaced, not retried.
    scheduler_.OnComplete(clock_.now());
    if (!next.ok()) {
      last_checkpoint_error_ = next.status();
      return next.status();
    }
    return MaybeTruncateLog();
  }
  if (!next.ok()) return FailCheckpoint(next.status());
  if (*next > clock_.now()) {
    clock_.AdvanceTo(*next);
    TickSampler();
  }
  return Status::OK();
}

Status Engine::RunCheckpointToCompletion() {
  if (!checkpointer_->InProgress()) {
    MMDB_RETURN_IF_ERROR(StartCheckpoint());
  }
  while (checkpointer_->InProgress()) {
    MMDB_RETURN_IF_ERROR(StepCheckpoint());
  }
  return Status::OK();
}

Status Engine::AdvanceTime(double seconds) {
  if (seconds < 0) return InvalidArgumentError("cannot move time backwards");
  double target = clock_.now() + seconds;
  // Service checkpoint events and group flushes due before `target`.
  while (true) {
    double next_flush = log_->TailBytes() > 0
                            ? clock_.now() + options_.log_flush_interval
                            : kNoEvent;
    double next_ckpt = kNoEvent;
    if (checkpointer_->InProgress()) {
      StatusOr<double> stepped = checkpointer_->Step(clock_.now());
      if (!checkpointer_->InProgress()) {
        // Completed — possibly with a failed metadata rewrite, which still
        // counts (the durable end marker certifies the copy; recovery
        // trusts the log over stale metadata). See StepCheckpoint.
        scheduler_.OnComplete(clock_.now());
        if (stepped.ok()) {
          MMDB_RETURN_IF_ERROR(MaybeTruncateLog());
        } else {
          last_checkpoint_error_ = stepped.status();
        }
        continue;  // state changed at the current instant; re-evaluate
      }
      if (!stepped.ok()) {
        // Background servicing degrades gracefully: the checkpoint aborts
        // (to be retried next interval) but the timeline — and the
        // transaction the caller is waiting on — continues. A logical-
        // logging engine halts instead (see FailCheckpoint), and the
        // caller sees its failed-precondition errors from then on.
        (void)FailCheckpoint(stepped.status());
        if (crashed_) {
          return FailedPreconditionError(
              "engine halted: checkpoint failed under logical logging");
        }
        continue;
      }
      next_ckpt = *stepped;
      if (next_ckpt <= clock_.now()) continue;  // more work due now
    }
    double next_event = std::min(next_flush, next_ckpt);
    if (next_event > target) break;
    clock_.AdvanceTo(next_event);
    TickSampler();
    if (next_event == next_flush) {
      // A failed cadence flush keeps the tail; durability just does not
      // advance until a later flush succeeds. With a zero flush interval a
      // persistent device error would retry at the same instant forever —
      // stop servicing events and let the clock jump to the target.
      if (!log_->Flush(clock_.now()).ok() &&
          options_.log_flush_interval <= 0) {
        break;
      }
    }
  }
  clock_.AdvanceTo(target);
  TickSampler();
  // Background reloads whose modeled completion the clock just passed
  // materialize here, so a segment never sits "recovered on the timeline
  // but stale in memory" across a time advance.
  if (instant_ != nullptr) {
    Status due = instant_->MaterializeDue(clock_.now());
    if (!due.ok()) return FailRecovery(std::move(due));
    SyncInstant();
  }
  return Status::OK();
}

Status Engine::MaybeTruncateLog() {
  if (!options_.truncate_log_at_checkpoint) return Status::OK();
  StatusOr<CheckpointMeta> meta = backup_->ReadMeta();
  if (!meta.ok()) {
    return meta.status().IsNotFound() ? Status::OK() : meta.status();
  }
  // Recovery replays forward from the newest complete checkpoint's begin
  // marker, or from the previous one's when the newest copy is unreadable
  // (the older-copy fallback): everything before that previous marker is
  // unreachable.
  const uint64_t cut = std::exchange(fallback_marker_, meta->log_offset);
  StatusOr<uint64_t> reclaimed = log_->TruncateBefore(cut);
  if (reclaimed.ok()) {
    events_.Emit(
        {TraceEventType::kCkptLogCut, clock_.now(), 0.0, {cut, *reclaimed}});
  }
  // Truncation is purely an optimization, and a failed rewrite leaves the
  // original file intact (temp + rename): degrade by keeping the longer
  // log and retrying after the next checkpoint.
  if (!reclaimed.ok() && reclaimed.status().IsIoError()) return Status::OK();
  return reclaimed.status();
}

// Group commit: the engine flushes the log tail once it holds this many
// bytes; WorkloadDriver also flushes every log_flush_interval.
constexpr uint64_t kLogGroupBytes = 16 * 1024;

Status Engine::MaybeGroupFlush() {
  if (log_->TailBytes() >= kLogGroupBytes) {
    return log_->Flush(clock_.now()).status();
  }
  return Status::OK();
}

Status Engine::FlushLog() { return log_->Flush(clock_.now()).status(); }

Status Engine::Crash() {
  if (crashed_) return FailedPreconditionError("already crashed");
  MMDB_RETURN_IF_ERROR(log_->Crash(clock_.now()));
  MMDB_RETURN_IF_ERROR(backup_->Crash(clock_.now()));
  txns_->Reset();
  checkpointer_->Reset();
  buffers_->Clear();
  backup_disks_.Reset();
  // A crash mid-drain abandons the on-demand recovery; its audit chain
  // stays open and the next recovery.begin severs it (legal grammar —
  // see VerifyAuditStructure).
  instant_.reset();
  crashed_ = true;
  return Status::OK();
}

StatusOr<RecoveryStats> Engine::Recover() {
  if (!crashed_) {
    return FailedPreconditionError("Recover() is only valid after Crash()");
  }
  events_.Emit(
      {TraceEventType::kRecoveryBegin, clock_.now(), 0.0, {restarting_}});
  restarting_ = false;
  // One pipeline (DESIGN.md §14, §19): plan, then load every segment
  // eagerly (blocking, or retrying a restart that failed mid-service) or on
  // demand while transactions run (instant), then FinishRecovery.
  recovery_crash_now_ = clock_.now();
  avail_ = Availability{};
  RecoveryManager rm(env_, options_.params, &meter_, events_);
  StatusOr<RecoveryPlan> plan = rm.Plan(backup_.get(), LogPath(), db_.get(),
                                        segments_.get(), recovery_crash_now_);
  if (!plan.ok()) return FailRecovery(plan.status());
  newest_end_id_ = plan->result.newest_end_id;
  instant_ = std::make_unique<InstantRecovery>(
      std::move(*plan), options_.params, backup_.get(), db_.get(), &meter_,
      metrics_.get(), events_);
  const bool eager = !instant_enabled_ || retry_eagerly_;
  if (eager) {
    Status loaded = instant_->LoadAll();
    if (!loaded.ok()) return FailRecovery(std::move(loaded));
  }
  const RecoveryResult& result = instant_->result();
  Status reopened = log_->OpenExisting(
      result.log_base_offset, result.log_valid_bytes, result.last_lsn + 1);
  if (!reopened.ok()) return FailRecovery(std::move(reopened));
  const RecoveryStats stats = result.stats;
  crashed_ = false;
  retry_eagerly_ = false;
  if (eager) {
    FinishRecovery();
  } else {
    // Instant: transactions are admitted once the log is read. The stats
    // are provisional until the drain (a fallback refines them).
    last_recovery_ = stats;
    has_last_recovery_ = true;
    last_lineage_ = result.lineage;
  }
  clock_.AdvanceBy(eager ? stats.total_seconds : stats.log_read_seconds);
  TickSampler();
  RestoreCheckpointNumbering(stats.checkpoint_id);
  if (eager) return stats;
  instant_fixup_done_ = false;
  avail_.ran = true;
  avail_.time_to_first_txn = clock_.now() - recovery_crash_now_;
  instant_->StartClock(clock_.now());
  // A cold start (no checkpoint to reload) is due in full immediately:
  // materialize and finish now. A warm start has nothing due yet.
  Status due = instant_->MaterializeDue(clock_.now());
  if (!due.ok()) return FailRecovery(std::move(due));
  SyncInstant();
  return stats;
}

void Engine::RestoreCheckpointNumbering(CheckpointId restored) {
  // Resume checkpoint numbering from what was actually restored. Without
  // this, a checkpoint completed in the log but not yet in the metadata
  // would get its id REUSED by the next sweep — and a later backward scan
  // could pair the old incarnation's end marker with the new (possibly
  // torn) incarnation's backup copy. The same hazard arises when recovery
  // fell back past a bad newer copy: skip beyond every end marker already
  // in the log, preserving the ping-pong parity so the next checkpoint
  // rewrites the damaged copy and leaves the restored one untouched.
  CheckpointId next = restored + 1;
  while (next <= newest_end_id_) next += 2;
  scheduler_.Restore(next - 1, clock_.now());
}

Status Engine::FailRecovery(Status error) {
  if (!crashed_) {
    // Transactions ran since the log reopened: halt the devices as Crash()
    // does, so the (eager) retry replays exactly the durable commits.
    Status halted = log_->Crash(clock_.now());
    if (halted.ok()) halted = backup_->Crash(clock_.now());
    if (!halted.ok()) {
      error = Status(error.code(), error.message() + "; " + halted.ToString());
    }
    retry_eagerly_ = true;
  }
  const std::string text = error.ToString();
  events_.Emit({TraceEventType::kRecoveryError, recovery_crash_now_},
               {.text = text});
  instant_.reset();
  crashed_ = true;
  return error;
}

void Engine::ForceRecoverRecord(RecordId record) {
  if (instant_ == nullptr) return;
  // Diagnostic raw reads move no virtual time and must not fail the
  // caller: on a materialization error the read sees whatever the slot
  // holds (zeros in a fresh primary, the crashed incarnation's bytes
  // after an in-process Crash(), or a backup image that failed its CRC),
  // and the next transactional touch of the segment surfaces the error
  // properly.
  (void)instant_->Materialize(db_->SegmentOf(record), clock_.now(),
                              InstantRecovery::LoadTrigger::kForce);
  SyncInstant();
}

void Engine::SyncInstant() {
  if (instant_ == nullptr) return;
  if (!instant_fixup_done_ && instant_->fell_back()) {
    // An on-demand fallback rewound the restore source to the previous
    // checkpoint. Safe here: no checkpoint can have begun —
    // StartCheckpoint drains the recovery first.
    instant_fixup_done_ = true;
    RestoreCheckpointNumbering(instant_->stats().checkpoint_id);
  }
  if (instant_->AllLoaded()) FinishRecovery();
}

void Engine::FinishRecovery() {
  std::unique_ptr<InstantRecovery> ir = std::move(instant_);
  if (avail_.ran) {
    // The last background reload may land after the last touch-stall the
    // clock actually waited on; full recovery is its completion time.
    avail_.time_to_full_recovery = ir->CompleteSchedule() - recovery_crash_now_;
    avail_.touch_loads = ir->touch_loads();
    avail_.background_loads = ir->background_loads();
    avail_.force_loads = ir->force_loads();
    avail_.drained = true;
  }
  RecoveryResult r = ir->TakeResult();
  fallback_marker_ = r.replay_from_offset;
  last_recovery_ = r.stats;
  has_last_recovery_ = true;
  // The outcome is journaled and published once, on the crash-instant
  // timeline, whichever schedule loaded the segments. The phases are laid
  // end to end from the crash instant by the trace exporter.
  const double t = recovery_crash_now_;
  const RecoveryStats& st = r.stats;
  events_.Emit({TraceEventType::kRecoveryLineage, t}, {.lineage = &r.lineage});
  RecoveryManager::Publish(metrics_.get(), st);
  const TraceEvent phases[] = {
      {TraceEventType::kRecoveryPhase, t, st.backup_read_seconds,
       {static_cast<uint64_t>(RecoveryPhase::kBackupLoad), st.segments_loaded,
        st.copy}},
      {TraceEventType::kRecoveryPhase, t, st.log_read_seconds,
       {static_cast<uint64_t>(RecoveryPhase::kLogRead), st.log_bytes_read}},
      {TraceEventType::kRecoveryPhase, t, st.replay_cpu_seconds,
       {static_cast<uint64_t>(RecoveryPhase::kReplay), st.updates_applied,
        st.txns_redone}},
  };
  for (const TraceEvent& phase : phases) events_.Emit(phase);
  events_.Emit({TraceEventType::kRecoveryEnd, t, st.total_seconds,
                {st.checkpoint_id, st.copy, st.fell_back_to_older_copy,
                 r.last_lsn, st.updates_applied, st.txns_redone}});
  last_lineage_ = std::move(r.lineage);
}

Status Engine::DrainRecovery() {
  if (instant_ == nullptr) return Status::OK();
  const double t_end = instant_->CompleteSchedule();
  if (t_end > clock_.now()) {
    // The post-advance sweep materializes everything that just completed
    // and finalizes.
    return AdvanceTime(t_end - clock_.now());
  }
  Status due = instant_->MaterializeDue(clock_.now());
  if (!due.ok()) return FailRecovery(std::move(due));
  SyncInstant();
  return Status::OK();
}

std::string Engine::DumpMetricsJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("algorithm");
  w.String(AlgorithmName(options_.algorithm));
  w.Key("mode");
  w.String(options_.checkpoint_mode == CheckpointMode::kFull ? "full"
                                                             : "partial");
  w.Key("now");
  w.Double(clock_.now());
  w.Key("metrics");
  if (metrics_ != nullptr) {
    metrics_->ToJson(&w);
  } else {
    w.Null();
  }
  w.Key("trace");
  if (tracer_ != nullptr) {
    tracer_->ToJson(&w);
  } else {
    w.Null();
  }
  // Sampled counter/gauge series (null unless timeseries_epoch > 0);
  // becomes Perfetto counter tracks in mmdb_trace_report output.
  w.Key("timeseries");
  if (sampler_ != nullptr) {
    sampler_->ToJson(&w);
  } else {
    w.Null();
  }
  // Most recent Recover(): deterministic counters plus the modeled
  // (virtual-clock) phase split. Its host-clock phase times are under
  // "host.recovery".
  w.Key("recovery");
  if (has_last_recovery_) {
    const RecoveryStats& r = last_recovery_;
    w.BeginObject();
    w.Key("checkpoint");
    w.Uint(r.checkpoint_id);
    w.Key("copy");
    w.Uint(r.copy);
    w.Key("segments_loaded");
    w.Uint(r.segments_loaded);
    w.Key("segments_retried");
    w.Uint(r.segments_retried);
    w.Key("log_bytes_read");
    w.Uint(r.log_bytes_read);
    w.Key("records_scanned");
    w.Uint(r.records_scanned);
    w.Key("updates_applied");
    w.Uint(r.updates_applied);
    w.Key("txns_redone");
    w.Uint(r.txns_redone);
    w.Key("fell_back");
    w.Bool(r.fell_back_to_older_copy);
    w.Key("modeled");
    w.BeginObject();
    w.Key("backup_read_seconds");
    w.Double(r.backup_read_seconds);
    w.Key("log_read_seconds");
    w.Double(r.log_read_seconds);
    w.Key("replay_cpu_seconds");
    w.Double(r.replay_cpu_seconds);
    w.Key("total_seconds");
    w.Double(r.total_seconds);
    w.EndObject();
    w.EndObject();
  } else {
    w.Null();
  }
  w.Key("checkpoints");
  w.BeginObject();
  w.Key("history_cap");
  w.Uint(Checkpointer::kHistoryCap);
  w.Key("history_dropped");
  w.Uint(checkpointer_->history_dropped());
  w.Key("history");
  w.BeginArray();
  for (const CheckpointStats& s : checkpointer_->history()) {
    w.BeginObject();
    w.Key("id");
    w.Uint(s.id);
    w.Key("begin");
    w.Double(s.begin_time);
    w.Key("end");
    w.Double(s.end_time);
    w.Key("segments_flushed");
    w.Uint(s.segments_flushed);
    w.Key("segments_skipped");
    w.Uint(s.segments_skipped);
    w.Key("checkpointer_copies");
    w.Uint(s.checkpointer_copies);
    w.Key("cou_copies");
    w.Uint(s.cou_copies);
    w.Key("quiesce_seconds");
    w.Double(s.quiesce_seconds);
    w.Key("lock_held_seconds");
    w.Double(s.lock_held_seconds);
    w.Key("flush_io_seconds");
    w.Double(s.flush_io_seconds);
    w.Key("log_wait_seconds");
    w.Double(s.log_wait_seconds);
    w.Key("copy_seconds");
    w.Double(s.copy_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // Availability of the most recent restart (DESIGN.md §19): null until an
  // instant restart has run. time_to_full_recovery is 0 until the drain
  // finishes (`drained` disambiguates); the load counters are read live
  // while the drain is still in flight.
  w.Key("availability");
  if (avail_.ran) {
    w.BeginObject();
    w.Key("crash_time");
    w.Double(recovery_crash_now_);
    w.Key("time_to_first_txn");
    w.Double(avail_.time_to_first_txn);
    w.Key("time_to_full_recovery");
    w.Double(avail_.time_to_full_recovery);
    w.Key("drained");
    w.Bool(avail_.drained);
    w.Key("pending_segments");
    w.Uint(pending_recovery_segments());
    w.Key("stall_recovery_wait_seconds");
    w.Double(stall_recovery_wait_seconds_);
    w.Key("loads");
    w.BeginObject();
    w.Key("touch");
    w.Uint(instant_ != nullptr ? instant_->touch_loads() : avail_.touch_loads);
    w.Key("background");
    w.Uint(instant_ != nullptr ? instant_->background_loads()
                               : avail_.background_loads);
    w.Key("force");
    w.Uint(instant_ != nullptr ? instant_->force_loads() : avail_.force_loads);
    w.EndObject();
    w.EndObject();
  } else {
    w.Null();
  }
  // Provenance journal state (DESIGN.md §18): deterministic, like every
  // member but "host", so bench_diff compares it.
  w.Key("audit");
  if (audit_ != nullptr) {
    const AuditJournal::Counters& c = audit_->counters();
    w.BeginObject();
    w.Key("journal");
    w.BeginObject();
    w.Key("path");
    w.String(audit_->path());
    w.Key("entries");
    w.Uint(c.entries);
    w.Key("bytes");
    w.Uint(c.bytes);
    w.Key("syncs");
    w.Uint(c.syncs);
    w.Key("append_errors");
    w.Uint(c.append_errors);
    w.Key("sync_errors");
    w.Uint(c.sync_errors);
    w.Key("next_seq");
    w.Uint(audit_->next_seq());
    w.EndObject();
    w.Key("lineage");
    if (last_lineage_.empty()) {
      w.Null();
    } else {
      WriteLineageJson(last_lineage_, &w);
    }
    w.EndObject();
  } else {
    w.Null();
  }
  // Host-clock values, the one member every comparison of bench artifacts
  // skips (DESIGN.md §14). "recovery" times the most recent Recover()'s
  // phases on this machine; null before any recovery has run.
  w.Key("host");
  w.BeginObject();
  w.Key("recovery");
  if (has_last_recovery_) {
    w.BeginObject();
    w.Key("backup_read_seconds");
    w.Double(last_recovery_.backup_read_wall_seconds);
    w.Key("log_scan_seconds");
    w.Double(last_recovery_.log_scan_wall_seconds);
    w.Key("replay_seconds");
    w.Double(last_recovery_.replay_wall_seconds);
    w.EndObject();
  } else {
    w.Null();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace mmdb

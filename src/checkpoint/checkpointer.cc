#include "checkpoint/checkpointer.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "checkpoint/cou.h"
#include "checkpoint/fuzzy.h"
#include "checkpoint/modern.h"
#include "checkpoint/two_color.h"
#include "util/string_util.h"

namespace mmdb {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<Algorithm> AlgorithmFromName(std::string_view name) {
  for (Algorithm a : kAllAlgorithms) {
    if (EqualsIgnoreCase(AlgorithmName(a), name)) return a;
  }
  std::string valid;
  for (Algorithm a : kAllAlgorithms) {
    if (!valid.empty()) valid += ", ";
    valid += AlgorithmName(a);
  }
  return InvalidArgumentError(StringPrintf(
      "unknown algorithm '%.*s'; valid names (case-insensitive): %s",
      static_cast<int>(name.size()), name.data(), valid.c_str()));
}

bool SupportsLogicalLogging(Algorithm a) {
  switch (a) {
    case Algorithm::kCouFlush:
    case Algorithm::kCouCopy:
    case Algorithm::kZigzag:
    case Algorithm::kPingPong:
    case Algorithm::kHourglass:
      return true;
    case Algorithm::kFuzzyCopy:
    case Algorithm::kFastFuzzy:
    case Algorithm::kTwoColorFlush:
    case Algorithm::kTwoColorCopy:
      return false;
  }
  assert(false && "Algorithm value out of range");
  std::abort();
}

StatusOr<std::unique_ptr<Checkpointer>> Checkpointer::Create(
    Algorithm algorithm, const Context& ctx, CheckpointMode mode) {
  if (ctx.db == nullptr || ctx.segments == nullptr || ctx.buffers == nullptr ||
      ctx.log == nullptr || ctx.backup == nullptr || ctx.txns == nullptr ||
      ctx.timestamps == nullptr || ctx.meter == nullptr) {
    return InvalidArgumentError("checkpointer context has null subsystems");
  }
  switch (algorithm) {
    case Algorithm::kFuzzyCopy:
      return {std::unique_ptr<Checkpointer>(
          new FuzzyCopyCheckpointer(ctx, mode))};
    case Algorithm::kFastFuzzy:
      if (!ctx.log->stable_log_tail()) {
        return FailedPreconditionError(
            "FASTFUZZY requires a stable log tail; without one, flushing "
            "segments in place violates the write-ahead protocol");
      }
      return {std::unique_ptr<Checkpointer>(
          new FastFuzzyCheckpointer(ctx, mode))};
    case Algorithm::kTwoColorFlush:
      return {std::unique_ptr<Checkpointer>(
          new TwoColorCheckpointer(ctx, mode, /*copy_before_flush=*/false))};
    case Algorithm::kTwoColorCopy:
      return {std::unique_ptr<Checkpointer>(
          new TwoColorCheckpointer(ctx, mode, /*copy_before_flush=*/true))};
    case Algorithm::kCouFlush:
      return {std::unique_ptr<Checkpointer>(
          new CouCheckpointer(ctx, mode, /*copy_before_flush=*/false))};
    case Algorithm::kCouCopy:
      return {std::unique_ptr<Checkpointer>(
          new CouCheckpointer(ctx, mode, /*copy_before_flush=*/true))};
    case Algorithm::kZigzag:
      return {std::unique_ptr<Checkpointer>(new ZigzagCheckpointer(ctx, mode))};
    case Algorithm::kPingPong:
      return {std::unique_ptr<Checkpointer>(
          new PingPongCheckpointer(ctx, mode))};
    case Algorithm::kHourglass:
      return {std::unique_ptr<Checkpointer>(
          new HourglassCheckpointer(ctx, mode))};
  }
  return InvalidArgumentError("unknown algorithm");
}

Checkpointer::Checkpointer(const Context& ctx, CheckpointMode mode)
    : ctx_(ctx), mode_(mode) {
  if (ctx_.metrics != nullptr) {
    MetricsRegistry* r = ctx_.metrics;
    m_completed_ = r->counter("ckpt.completed");
    m_aborted_ = r->counter("ckpt.aborted");
    m_segments_flushed_ = r->counter("ckpt.segments_flushed");
    m_segments_skipped_ = r->counter("ckpt.segments_skipped");
    m_history_dropped_ = r->counter("ckpt.history_dropped");
    m_duration_seconds_ = r->timer("ckpt.duration_seconds");
    m_lock_held_seconds_ = r->timer("ckpt.lock_held_seconds");
    m_flush_io_seconds_ = r->timer("ckpt.flush_io_seconds");
    m_log_wait_seconds_ = r->timer("ckpt.log_wait_seconds");
    m_copy_seconds_ = r->timer("ckpt.copy_seconds");
    m_quiesce_seconds_ = r->timer("ckpt.quiesce_seconds");
    r->gauge("ckpt.history_cap")
        ->Set(static_cast<double>(ctx_.history_cap));
  }
}

Status Checkpointer::Begin(CheckpointId id, double now) {
  if (InProgress()) {
    return FailedPreconditionError("a checkpoint is already in progress");
  }
  if (now < 0.0) {
    // The virtual clock starts at zero; a negative time here is a caller
    // bug. Rejecting it keeps every downstream timestamp (stats_,
    // Abort()'s trace fallback) non-negative by construction.
    return InvalidArgumentError("checkpoint cannot begin at a negative time");
  }
  id_ = id;
  stats_ = CheckpointStats{};
  stats_.id = id;
  stats_.begin_time = now;
  copy_instr_at_begin_ = ctx_.meter->Count(CpuCategory::kCkptCopy) +
                         ctx_.meter->Count(CpuCategory::kSyncCopy);
  cur_seg_ = 0;
  next_due_ = now;
  last_write_done_ = now;
  locked_until_.clear();
  cleared_dirty_.clear();

  // Let the algorithm quiesce / assign tau(CH) before the marker is cut.
  MMDB_RETURN_IF_ERROR(OnBegin(now));

  begin_marker_offset_ = ctx_.log->NextOffset();
  LogRecord marker = LogRecord::BeginCheckpoint(
      id_, tau_ch_, ctx_.txns->ActiveTxnList());
  begin_marker_lsn_ = ctx_.log->Append(&marker, now);

  // The marker (and everything before it) must be durable before the first
  // segment image can land in the backup; gating the whole sweep on the
  // flush keeps every algorithm safe and matches Figure 3.3's "log
  // begin-checkpoint record and flush log tail". A flush failure leaves
  // the state idle; the stray begin marker in the retained tail is
  // harmless (recovery only trusts begin/end pairs).
  MMDB_ASSIGN_OR_RETURN(sweep_start_, ctx_.log->Flush(now));
  if (QuiescesTransactions()) {
    stats_.quiesce_seconds = sweep_start_ - now;
  }
  state_ = State::kSweeping;
  ctx_.events.Emit({TraceEventType::kCkptBegin, now, 0.0,
                    {id_, static_cast<uint64_t>(algorithm()),
                     static_cast<uint64_t>(mode_), copy(), begin_marker_lsn_,
                     begin_marker_offset_}});
  return Status::OK();
}

bool Checkpointer::NeedsFlush(SegmentId s) {
  if (mode_ == CheckpointMode::kPartial) {
    ctx_.meter->Charge(CpuCategory::kCkptScan,
                       static_cast<double>(ctx_.params.costs.dirty_check));
    if (!ctx_.segments->dirty(s, copy())) return false;
  }
  return true;
}

StatusOr<double> Checkpointer::SubmitWrite(SegmentId s, std::string_view data,
                                           double now, double earliest,
                                           bool lock_through_io) {
  double issue = std::max(now, earliest);
  stats_.log_wait_seconds += issue - now;
  ctx_.meter->Charge(CpuCategory::kCkptIo,
                     static_cast<double>(ctx_.params.costs.io));
  MMDB_ASSIGN_OR_RETURN(double done,
                        ctx_.backup->WriteSegment(copy(), s, data, issue));
  stats_.flush_io_seconds += done - issue;
  last_write_done_ = std::max(last_write_done_, done);
  ctx_.segments->ClearDirty(s, copy());
  cleared_dirty_.push_back(s);
  ++stats_.segments_flushed;
  if (lock_through_io) {
    stats_.lock_held_seconds += done - now;
    locked_until_[s] = done;
    ctx_.segments->set_ckpt_locked(s, true);
  }
  // The segment's update LSN at flush time tells recovery auditing what
  // log position this backup image reflects (at most).
  ctx_.events.Emit({TraceEventType::kCkptFlush, now, done,
                    {id_, s, copy(), ctx_.segments->update_lsn(s),
                     data.size()}});
  return done;
}

StatusOr<double> Checkpointer::WhenLogDurable(Lsn lsn, double now) {
  double t = ctx_.log->WhenDurable(lsn, now);
  if (t == kNever) {
    // The record is still in the volatile tail: wait for the next group
    // flush. Modeled by flushing now — equivalent timing to the engine's
    // group commit running immediately.
    MMDB_RETURN_IF_ERROR(ctx_.log->Flush(now).status());
    t = ctx_.log->WhenDurable(lsn, now);
  }
  return t;
}

void Checkpointer::ChargeCkptLocks(int ops) {
  ctx_.meter->Charge(CpuCategory::kCkptLock,
                     static_cast<double>(ctx_.params.costs.lock) * ops);
}

StatusOr<double> Checkpointer::Step(double now) {
  switch (state_) {
    case State::kIdle:
      return kNever;

    case State::kSweeping: {
      if (now < sweep_start_) return sweep_start_;
      // The sweep is paced by the backup devices: callers may poll Step
      // early (every engine event does), but no work is due yet.
      if (now < next_due_) return next_due_;
      // Release checkpoint locks whose I/O has completed.
      for (auto it = locked_until_.begin(); it != locked_until_.end();) {
        if (it->second <= now) {
          ctx_.segments->set_ckpt_locked(it->first, false);
          it = locked_until_.erase(it);
        } else {
          ++it;
        }
      }
      const uint64_t n = ctx_.segments->num_segments();
      while (cur_seg_ < n) {
        SegmentId s = cur_seg_;
        if (!NeedsFlush(s)) {
          OnSkipSegment(s);
          ++stats_.segments_skipped;
          ++cur_seg_;
          continue;
        }
        MMDB_RETURN_IF_ERROR(ProcessSegment(s, now));
        ++cur_seg_;
        // One write issued; come back when a device can take the next one.
        next_due_ = std::max(now, ctx_.backup->disks()->NextAvailable(now));
        return next_due_;
      }
      state_ = State::kDraining;
      return std::max(now, last_write_done_);
    }

    case State::kDraining: {
      if (now < last_write_done_) return last_write_done_;
      for (auto& [seg, until] : locked_until_) {
        ctx_.segments->set_ckpt_locked(seg, false);
      }
      locked_until_.clear();
      LogRecord end = LogRecord::EndCheckpoint(id_);
      ctx_.log->Append(&end, now);
      MMDB_ASSIGN_OR_RETURN(end_marker_durable_, ctx_.log->Flush(now));
      state_ = State::kFinalizing;
      return end_marker_durable_;
    }

    case State::kFinalizing: {
      if (now < end_marker_durable_) return end_marker_durable_;
      // Past this point the checkpoint IS complete: every segment write
      // has drained and the end marker is durable, so recovery can already
      // restore this copy (the log's backward scan outranks the metadata
      // file). A failure below — the metadata rewrite — therefore finishes
      // the checkpoint and surfaces the error instead of aborting it;
      // aborting would log a second begin marker with this id after its
      // end marker, and the stale pair could certify the half-rewritten
      // copy the retry leaves behind at a crash.
      stats_.end_time = now;
      stats_.copy_seconds = ctx_.params.InstructionsToSeconds(
          ctx_.meter->Count(CpuCategory::kCkptCopy) +
          ctx_.meter->Count(CpuCategory::kSyncCopy) - copy_instr_at_begin_);
      last_stats_ = stats_;
      history_.push_back(stats_);
      while (ctx_.history_cap > 0 && history_.size() > ctx_.history_cap) {
        history_.pop_front();
        ++history_dropped_;
        if (m_history_dropped_ != nullptr) m_history_dropped_->Increment();
      }
      if (m_completed_ != nullptr) {
        m_completed_->Increment();
        m_segments_flushed_->Increment(stats_.segments_flushed);
        m_segments_skipped_->Increment(stats_.segments_skipped);
        m_duration_seconds_->Record(stats_.duration());
        m_lock_held_seconds_->Record(stats_.lock_held_seconds);
        m_flush_io_seconds_->Record(stats_.flush_io_seconds);
        m_log_wait_seconds_->Record(stats_.log_wait_seconds);
        m_copy_seconds_->Record(stats_.copy_seconds);
        m_quiesce_seconds_->Record(stats_.quiesce_seconds);
      }
      ctx_.events.Emit({TraceEventType::kCkptEnd, now, 0.0,
                        {id_, copy(), stats_.segments_flushed,
                         stats_.segments_skipped}});
      state_ = State::kIdle;
      MMDB_RETURN_IF_ERROR(OnComplete(now));
      CheckpointMeta meta;
      meta.checkpoint_id = id_;
      meta.copy = copy();
      meta.log_offset = begin_marker_offset_;
      meta.begin_lsn = begin_marker_lsn_;
      meta.tau = tau_ch_;
      MMDB_RETURN_IF_ERROR(ctx_.backup->CommitCheckpoint(meta));
      return kNever;
    }
  }
  return InternalError("unreachable checkpoint state");
}

StatusOr<double> Checkpointer::RunToCompletion(CheckpointId id, double now) {
  MMDB_RETURN_IF_ERROR(Begin(id, now));
  double t = now;
  while (InProgress()) {
    MMDB_ASSIGN_OR_RETURN(double next, Step(t));
    if (next == kNever) break;
    t = std::max(t, next);
  }
  return t;
}

Status Checkpointer::OnBegin(double) { return Status::OK(); }
Status Checkpointer::OnComplete(double) { return Status::OK(); }

void Checkpointer::Reset() {
  for (auto& [seg, until] : locked_until_) {
    ctx_.segments->set_ckpt_locked(seg, false);
  }
  locked_until_.clear();
  cleared_dirty_.clear();
  state_ = State::kIdle;
}

void Checkpointer::Abort(double now, std::string_view cause) {
  if (!InProgress()) return;
  // Re-dirty everything this attempt flushed: the copy now holds a mix of
  // this attempt's and stale images, and the retry (same id, same copy)
  // must rewrite all of it even in partial mode.
  for (SegmentId s : cleared_dirty_) {
    ctx_.segments->MarkDirtyCopy(s, copy());
  }
  ++aborted_count_;
  if (m_aborted_ != nullptr) m_aborted_->Increment();
  // Any negative `now` is the "no clock" sentinel; fall back to the
  // begin time, which Begin() guarantees non-negative. The outer clamp
  // keeps the invariant even if stats_ was never populated, so the
  // trace export can never emit a negative timestamp.
  const double when = std::max(0.0, now >= 0.0 ? now : stats_.begin_time);
  ctx_.events.Emit(
      {TraceEventType::kCkptAbort, when, 0.0, {id_, stats_.segments_flushed}},
      {.text = cause.empty() ? std::string_view("unspecified") : cause});
  Reset();
}

Checkpointer::Admission Checkpointer::AdmissionAt(
    const std::vector<SegmentId>& segments, double now) const {
  double quiesce_t = now;
  if (InProgress() && QuiescesTransactions() && now < sweep_start_) {
    // COU admission barrier: new transactions wait until the checkpoint's
    // begin protocol (quiesce + marker flush) completes.
    quiesce_t = sweep_start_;
  }
  double lock_t = now;
  for (SegmentId s : segments) {
    auto it = locked_until_.find(s);
    if (it != locked_until_.end()) lock_t = std::max(lock_t, it->second);
  }
  if (quiesce_t <= now && lock_t <= now) return {now, StallCause::kNone};
  return quiesce_t >= lock_t ? Admission{quiesce_t, StallCause::kQuiesce}
                             : Admission{lock_t, StallCause::kCheckpointLock};
}

bool Checkpointer::AdmitAccess(const std::vector<SegmentId>&, double) {
  return true;
}

void Checkpointer::BeforeSegmentUpdate(SegmentId, RecordId, Timestamp,
                                       double) {}

bool Checkpointer::NeedsLsnMaintenance() const {
  return !ctx_.log->stable_log_tail();
}

}  // namespace mmdb

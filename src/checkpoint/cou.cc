#include "checkpoint/cou.h"

#include <algorithm>
#include <cassert>

namespace mmdb {

Status CouCheckpointer::OnBegin(double) {
  // Figure 3.3 preamble. The quiesce itself is modeled as the admission
  // barrier in Checkpointer::AdmissionAt (transactions execute atomically
  // on the virtual timeline, so there are never half-finished transactions
  // to drain — new arrivals simply wait for sweep_start_).
  tau_prev_ = tau_ch_;
  tau_ch_ = ctx_.timestamps->Next();
  return Status::OK();
}

void CouCheckpointer::BeforeSegmentUpdate(SegmentId s, RecordId record,
                                          Timestamp txn_ts, double now) {
  (void)record;
  (void)txn_ts;
  (void)now;
  // Figure 3.2's lock S / unlock S pair around the test, paid on every
  // update while the COU scheme is in force.
  ctx_.meter->Charge(CpuCategory::kSyncLock,
                     2.0 * static_cast<double>(ctx_.params.costs.lock));
  if (state_ != State::kSweeping) return;
  // (S > CUR_SEG): segments the sweep already handled need no
  // preservation. cur_seg_ is the next segment to visit; the one currently
  // in flight (cur_seg_ - 1) is protected by its checkpoint lock
  // (COUFLUSH) or already staged (COUCOPY).
  if (s < cur_seg_) return;
  // (tau(S) <= tau(CH)): the content still predates the checkpoint.
  if (ctx_.segments->timestamp(s) > tau_ch_) return;
  assert(!ctx_.segments->has_old_copy(s));

  StatusOr<uint32_t> handle = ctx_.buffers->Allocate();
  if (!handle.ok()) {
    // Snapshot buffer exhausted. Degrade by pretending the segment was
    // already dumped: the sweep will flush its *current* content, which
    // sacrifices transaction consistency for this checkpoint rather than
    // stalling commits. Recovery stays correct (REDO replay repairs it,
    // as with a fuzzy checkpoint); the event is visible in the stats.
    return;
  }
  ctx_.meter->Charge(CpuCategory::kSyncCopy,
                     static_cast<double>(ctx_.params.costs.alloc) +
                         ctx_.params.costs.move_per_word *
                             ctx_.params.db.segment_words);
  ctx_.buffers->Write(*handle, ctx_.db->ReadSegment(s));
  ctx_.segments->set_old_copy(s, *handle);
  ++stats_.cou_copies;
}

Status CouCheckpointer::ProcessSegment(SegmentId s, double now) {
  if (ctx_.segments->timestamp(s) > tau_ch_) {
    // Updated since the checkpoint began: flush the preserved old image.
    ChargeCkptLocks(2);  // lock to follow p(S), unlock
    if (!ctx_.segments->has_old_copy(s)) {
      // Preservation was skipped (buffer exhaustion); fall back to the
      // current content — fuzzy for this segment, see BeforeSegmentUpdate.
      return SubmitWrite(s, ctx_.db->ReadSegment(s), now, sweep_start_,
                         /*lock_through_io=*/false)
          .status();
    }
    uint32_t handle = ctx_.segments->old_copy(s);
    Status st = SubmitWrite(s, ctx_.buffers->Read(handle), now, sweep_start_,
                            /*lock_through_io=*/false)
                    .status();
    // What just went to the backup is the PRE-update image: the update that
    // forced the preservation is covered by log replay only while THIS
    // checkpoint is the newest. Re-dirty the segment for this copy so the
    // next checkpoint that writes it flushes the post-update content —
    // otherwise a cold segment would keep the stale image forever.
    ctx_.segments->MarkDirtyCopy(s, copy());
    // Deallocation of the snapshot buffer.
    ctx_.meter->Charge(CpuCategory::kCkptCopy,
                       static_cast<double>(ctx_.params.costs.alloc));
    ctx_.buffers->Free(handle);
    ctx_.segments->clear_old_copy(s);
    return st;
  }

  // Not updated since the checkpoint began: the current content IS the
  // snapshot content. No LSN test is needed — everything reflected here
  // was durable by sweep_start_ (the begin-marker log flush).
  if (copy_before_flush_) {
    // COUCOPY: lock, stage, unlock, flush the buffer.
    ChargeCkptLocks(2);
    ctx_.meter->Charge(CpuCategory::kCkptCopy,
                       2.0 * static_cast<double>(ctx_.params.costs.alloc) +
                           ctx_.params.costs.move_per_word *
                               ctx_.params.db.segment_words);
    ++stats_.checkpointer_copies;
    return SubmitWrite(s, ctx_.db->ReadSegment(s), now, sweep_start_,
                       /*lock_through_io=*/false)
        .status();
  }
  // COUFLUSH: flush from database memory, lock held through the I/O.
  ChargeCkptLocks(2);
  return SubmitWrite(s, ctx_.db->ReadSegment(s), now, sweep_start_,
                     /*lock_through_io=*/true)
      .status();
}

Status CouCheckpointer::OnComplete(double) {
  // Every preserved copy was flushed when the sweep visited its segment;
  // release any stragglers defensively (e.g., if a future mode skipped
  // them) so buffers never leak across checkpoints.
  ReleaseOldCopies();
  return Status::OK();
}

void CouCheckpointer::ReleaseOldCopies() {
  for (SegmentId s = 0; s < ctx_.segments->num_segments(); ++s) {
    if (ctx_.segments->has_old_copy(s)) {
      ctx_.buffers->Free(ctx_.segments->old_copy(s));
      ctx_.segments->clear_old_copy(s);
    }
  }
}

void CouCheckpointer::Reset() {
  ReleaseOldCopies();
  Checkpointer::Reset();
}

}  // namespace mmdb

#include "checkpoint/modern.h"

#include <algorithm>

namespace mmdb {

// --- ShadowSnapshotCheckpointer (Zigzag / Ping-Pong common) --------------

void ShadowSnapshotCheckpointer::BeforeSegmentUpdate(SegmentId s,
                                                     RecordId record,
                                                     Timestamp txn_ts,
                                                     double now) {
  (void)record;
  (void)txn_ts;
  (void)now;
  ChargeUpdateBookkeeping();
  if (state_ != State::kSweeping) return;
  // Segments the sweep already handled (or has in flight) need no
  // preservation: their snapshot image reached the backup, captured at
  // SubmitWrite time.
  if (s < cur_seg_) return;
  if (ctx_.segments->has_old_copy(s)) return;
  // The content only postdates the begin marker if an earlier post-marker
  // update hit this segment without preserving (buffer exhaustion below);
  // preserving NOW would capture a non-snapshot image, so stay degraded.
  if (ctx_.segments->update_lsn(s) >= begin_marker_lsn_) return;

  StatusOr<uint32_t> handle = ctx_.buffers->Allocate();
  if (!handle.ok()) {
    // Emulation buffer exhausted: degrade to fuzzy content for this
    // segment, exactly like COU under the same pressure. Recovery stays
    // correct under full-image REDO replay.
    ctx_.events.Emit({TraceEventType::kCkptDegraded, now, 0.0, {id_, s}});
    return;
  }
  // No CPU charge: in the real algorithm this image already exists (the
  // other tuple copy / the quiescent shadow); the copy here only feeds the
  // emulation. The algorithms' genuine recurring price is charged in
  // ChargeUpdateBookkeeping.
  ctx_.buffers->Write(*handle, ctx_.db->ReadSegment(s));
  ctx_.segments->set_old_copy(s, *handle);
  ++stats_.cou_copies;
}

Status ShadowSnapshotCheckpointer::ProcessSegment(SegmentId s, double now) {
  if (ctx_.segments->has_old_copy(s)) {
    uint32_t handle = ctx_.segments->old_copy(s);
    Status st = FlushSnapshot(s, ctx_.buffers->Read(handle), now,
                              /*preserved=*/true);
    // The backup got the PRE-update image: the update that forced the
    // preservation is covered by log replay only while THIS checkpoint is
    // the newest. Re-dirty the segment for this copy so the next
    // checkpoint that writes it flushes the post-update content (the same
    // cold-segment invariant as COU).
    ctx_.segments->MarkDirtyCopy(s, copy());
    ctx_.buffers->Free(handle);
    ctx_.segments->clear_old_copy(s);
    return st;
  }
  // Never updated since the begin marker: current content IS the snapshot
  // content, and everything in it was made durable by the marker flush.
  return FlushSnapshot(s, ctx_.db->ReadSegment(s), now, /*preserved=*/false);
}

Status ShadowSnapshotCheckpointer::OnComplete(double) {
  // Every preserved image was consumed when the sweep visited its segment;
  // release stragglers defensively so buffers never leak.
  ReleaseOldCopies();
  return Status::OK();
}

void ShadowSnapshotCheckpointer::ReleaseOldCopies() {
  for (SegmentId s = 0; s < ctx_.segments->num_segments(); ++s) {
    if (ctx_.segments->has_old_copy(s)) {
      ctx_.buffers->Free(ctx_.segments->old_copy(s));
      ctx_.segments->clear_old_copy(s);
    }
  }
}

void ShadowSnapshotCheckpointer::Reset() {
  ReleaseOldCopies();
  Checkpointer::Reset();
}

// --- ZIGZAG --------------------------------------------------------------

Status ZigzagCheckpointer::OnBegin(double) {
  // MR := MW for every record, one bulk word-wide bit-array copy; the
  // instant of that copy is the snapshot's point of consistency. No
  // quiesce, no transaction ever waits.
  const double bit_words =
      static_cast<double>(ctx_.db->num_records()) / 64.0;
  ctx_.meter->Charge(CpuCategory::kCkptScan,
                     ctx_.params.costs.move_per_word * bit_words);
  return Status::OK();
}

void ZigzagCheckpointer::ChargeUpdateBookkeeping() {
  // Point MW[r] away from the copy the checkpointer reads and flag the
  // record: two bit operations per installed update.
  ctx_.meter->Charge(
      CpuCategory::kSyncLsn,
      2.0 * static_cast<double>(ctx_.params.costs.dirty_check));
}

Status ZigzagCheckpointer::FlushSnapshot(SegmentId s, std::string_view data,
                                         double now, bool preserved) {
  (void)preserved;
  // The two tuple copies interleave in memory, so the checkpointer gathers
  // the MR-side images into an I/O staging buffer: one bit consult per
  // record plus a segment of data movement. No locks anywhere.
  ctx_.meter->Charge(
      CpuCategory::kCkptLsn,
      static_cast<double>(ctx_.params.db.records_per_segment()) *
          static_cast<double>(ctx_.params.costs.dirty_check));
  ctx_.meter->Charge(CpuCategory::kCkptCopy,
                     2.0 * static_cast<double>(ctx_.params.costs.alloc) +
                         ctx_.params.costs.move_per_word *
                             ctx_.params.db.segment_words);
  ++stats_.checkpointer_copies;
  return SubmitWrite(s, data, now, sweep_start_, /*lock_through_io=*/false)
      .status();
}

// --- PINGPONG ------------------------------------------------------------

void PingPongCheckpointer::ChargeUpdateBookkeeping() {
  // The double write: every update lands in the primary and again in the
  // active shadow copy. That is Ping-Pong's entire synchronous price.
  ctx_.meter->Charge(CpuCategory::kSyncCopy,
                     ctx_.params.costs.move_per_word *
                         static_cast<double>(ctx_.params.db.record_words));
}

Status PingPongCheckpointer::FlushSnapshot(SegmentId s, std::string_view data,
                                           double now, bool preserved) {
  (void)preserved;
  // Begin flipped the active shadow in O(1); the quiescent shadow is
  // contiguous and already consistent, so the sweep flushes it directly —
  // no gather, no staging copy, no locks (FASTFUZZY's I/O profile with a
  // consistent image and no stable-tail requirement).
  return SubmitWrite(s, data, now, sweep_start_, /*lock_through_io=*/false)
      .status();
}

// --- HOURGLASS -----------------------------------------------------------

Status HourglassCheckpointer::OnBegin(double) {
  // The short atomic phase: acquire and release the commit latch to cut
  // the virtual point of consistency. Everything else is asynchronous.
  ChargeCkptLocks(2);
  return Status::OK();
}

void HourglassCheckpointer::BeforeSegmentUpdate(SegmentId s, RecordId record,
                                                Timestamp txn_ts,
                                                double now) {
  (void)txn_ts;
  (void)now;
  // The stable-version test on every installed update.
  ctx_.meter->Charge(CpuCategory::kSyncLsn,
                     static_cast<double>(ctx_.params.costs.dirty_check));
  if (state_ != State::kSweeping) return;
  if (s < cur_seg_) return;
  auto& seg_overlay = overlay_[s];
  // Overlay membership IS the "updated since the marker" predicate: every
  // post-marker first touch of an unswept record lands here, so a missing
  // entry means the record's current image still predates the snapshot.
  if (seg_overlay.count(record) > 0) return;
  seg_overlay.emplace(record, std::string(ctx_.db->ReadRecord(record)));
  // First post-marker touch copies the record's old image aside — the
  // live/stable version split, priced at one record of data movement.
  ctx_.meter->Charge(CpuCategory::kSyncCopy,
                     ctx_.params.costs.move_per_word *
                         static_cast<double>(ctx_.params.db.record_words));
  ++stats_.cou_copies;
}

Status HourglassCheckpointer::ProcessSegment(SegmentId s, double now) {
  // Per-segment latch pair, then one stable-version consult per record as
  // the checkpointer assembles the segment's snapshot image.
  ChargeCkptLocks(2);
  ctx_.meter->Charge(
      CpuCategory::kCkptLsn,
      static_cast<double>(ctx_.params.db.records_per_segment()) *
          static_cast<double>(ctx_.params.costs.dirty_check));

  auto it = overlay_.find(s);
  if (it == overlay_.end() || it->second.empty()) {
    if (it != overlay_.end()) overlay_.erase(it);
    // No post-marker updates: current content is the snapshot content.
    return SubmitWrite(s, ctx_.db->ReadSegment(s), now, sweep_start_,
                       /*lock_through_io=*/false)
        .status();
  }

  // Patch the preserved old records over the current content in a staging
  // buffer, then flush the reconstructed snapshot image.
  std::string staged(ctx_.db->ReadSegment(s));
  const size_t rec_bytes = ctx_.db->record_bytes();
  const uint64_t base =
      static_cast<uint64_t>(s) * ctx_.params.db.records_per_segment();
  for (const auto& [record, image] : it->second) {
    staged.replace(static_cast<size_t>(record - base) * rec_bytes, rec_bytes,
                   image);
  }
  ctx_.meter->Charge(CpuCategory::kCkptCopy,
                     2.0 * static_cast<double>(ctx_.params.costs.alloc) +
                         ctx_.params.costs.move_per_word *
                             ctx_.params.db.segment_words);
  ++stats_.checkpointer_copies;
  Status st = SubmitWrite(s, staged, now, sweep_start_,
                          /*lock_through_io=*/false)
                  .status();
  // Snapshot (pre-update) images went out: re-dirty for this copy so the
  // next checkpoint that writes it flushes the post-update content.
  ctx_.segments->MarkDirtyCopy(s, copy());
  overlay_.erase(it);
  return st;
}

Status HourglassCheckpointer::OnComplete(double) {
  overlay_.clear();  // consumed by the sweep; defensive
  return Status::OK();
}

void HourglassCheckpointer::Reset() {
  overlay_.clear();
  Checkpointer::Reset();
}

size_t HourglassCheckpointer::preserved_records() const {
  size_t n = 0;
  for (const auto& [seg, records] : overlay_) n += records.size();
  return n;
}

}  // namespace mmdb

#include "txn/txn_manager.h"

#include <algorithm>
#include <cassert>

#include "util/coding.h"
#include "util/string_util.h"

namespace mmdb {

TxnManager::TxnManager(Database* db, SegmentTable* segments, LogManager* log,
                       TimestampOracle* timestamps, CpuMeter* meter,
                       const SystemParams& params)
    : db_(db),
      segments_(segments),
      log_(log),
      meter_(meter),
      params_(params),
      hooks_(&null_hooks_),
      timestamps_(timestamps) {}

void TxnManager::set_hooks(CheckpointHooks* hooks) {
  hooks_ = hooks != nullptr ? hooks : &null_hooks_;
}

void TxnManager::set_obs(MetricsRegistry* registry, Tracer* tracer) {
  tracer_ = tracer;
  locks_.set_obs(registry);
  if (registry == nullptr) return;
  m_commits_ = registry->counter("txn.commits");
  m_user_aborts_ = registry->counter("txn.user_aborts");
  m_lock_aborts_ = registry->counter("txn.lock_aborts");
  m_color_aborts_ = registry->counter("txn.color_aborts");
}

Status TxnManager::AcquireLock(Transaction* txn, RecordId record,
                               LockManager::Mode mode, double now) {
  Status lock = locks_.Acquire(txn->id, record, mode);
  if (!lock.ok()) {
    txn->abort_cause = TxnAbortCause::kLockConflict;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kLockConflict, now, 0.0, txn->id,
                      record);
    }
  }
  return lock;
}

Transaction* TxnManager::Begin(double now) {
  auto txn = std::make_unique<Transaction>();
  txn->id = next_txn_id_++;
  txn->start_ts = timestamps_->Next();
  txn->begin_time = now;
  Transaction* raw = txn.get();
  active_[raw->id] = std::move(txn);
  return raw;
}

Status TxnManager::CheckColors(Transaction* txn, SegmentId segment,
                               double now) {
  if (std::find(txn->touched_segments.begin(), txn->touched_segments.end(),
                segment) == txn->touched_segments.end()) {
    txn->touched_segments.push_back(segment);
  }
  if (!hooks_->AdmitAccess(txn->touched_segments, now)) {
    txn->abort_cause = TxnAbortCause::kColorViolation;
    return AbortedError(StringPrintf(
        "txn %llu violates the two-color constraint",
        static_cast<unsigned long long>(txn->id)));
  }
  return Status::OK();
}

Status TxnManager::Read(Transaction* txn, RecordId record, std::string* out,
                        double now) {
  assert(txn->state == TxnState::kActive);
  if (record >= db_->num_records()) {
    return OutOfRangeError("record id out of range");
  }
  Status lock = AcquireLock(txn, record, LockManager::Mode::kShared, now);
  if (!lock.ok()) return lock;
  txn->locked_records.push_back(record);
  MMDB_RETURN_IF_ERROR(CheckColors(txn, db_->SegmentOf(record), now));

  auto it = txn->pending.find(record);
  if (it != txn->pending.end()) {
    *out = it->second;  // read-your-writes
  } else {
    std::string_view v = db_->ReadRecord(record);
    out->assign(v.data(), v.size());
    // Read-your-deltas: overlay this transaction's pending additions.
    for (const auto& [key, delta] : txn->pending_deltas) {
      if (key.first != record) continue;
      uint64_t field = DecodeFixed64(out->data() + key.second);
      EncodeFixed64(out->data() + key.second,
                    field + static_cast<uint64_t>(delta));
    }
  }
  return Status::OK();
}

Status TxnManager::Write(Transaction* txn, RecordId record,
                         std::string_view image, double now) {
  assert(txn->state == TxnState::kActive);
  if (record >= db_->num_records()) {
    return OutOfRangeError("record id out of range");
  }
  if (image.size() != db_->record_bytes()) {
    return InvalidArgumentError(StringPrintf(
        "record image must be %zu bytes, got %zu", db_->record_bytes(),
        image.size()));
  }
  for (const auto& [key, d] : txn->pending_deltas) {
    if (key.first == record) {
      return FailedPreconditionError(
          "record already has delta operations in this transaction");
    }
  }
  Status lock = AcquireLock(txn, record, LockManager::Mode::kExclusive, now);
  if (!lock.ok()) return lock;
  txn->locked_records.push_back(record);
  MMDB_RETURN_IF_ERROR(CheckColors(txn, db_->SegmentOf(record), now));

  txn->pending[record] = std::string(image);
  return Status::OK();
}

Status TxnManager::WriteDelta(Transaction* txn, RecordId record,
                              uint32_t field_offset, int64_t delta,
                              double now) {
  assert(txn->state == TxnState::kActive);
  if (record >= db_->num_records()) {
    return OutOfRangeError("record id out of range");
  }
  if (field_offset + 8 > db_->record_bytes()) {
    return InvalidArgumentError(
        "delta field does not fit within the record");
  }
  if (txn->pending.count(record) > 0) {
    return FailedPreconditionError(
        "record already has a full-image write in this transaction");
  }
  Status lock = AcquireLock(txn, record, LockManager::Mode::kExclusive, now);
  if (!lock.ok()) return lock;
  txn->locked_records.push_back(record);
  MMDB_RETURN_IF_ERROR(CheckColors(txn, db_->SegmentOf(record), now));

  txn->pending_deltas[{record, field_offset}] += delta;
  return Status::OK();
}

StatusOr<Lsn> TxnManager::Commit(Transaction* txn, double now) {
  assert(txn->state == TxnState::kActive);

  // Emit the REDO group: update records followed by the commit record, as
  // one contiguous block (commit-time logging under the shadow-copy
  // scheme).
  for (const auto& [record, image] : txn->pending) {
    LogRecord update = LogRecord::Update(txn->id, record, image);
    log_->Append(&update, now);
  }
  for (const auto& [key, delta] : txn->pending_deltas) {
    LogRecord op = LogRecord::Delta(txn->id, key.first, key.second, delta);
    log_->Append(&op, now);
  }
  LogRecord commit = LogRecord::Commit(txn->id);
  Lsn commit_lsn = log_->Append(&commit, now);

  // Install the shadow copies. BeforeSegmentUpdate lets a running COU
  // checkpoint preserve the pre-update image (Figure 3.2). The write-ahead
  // requirement is carried by update_lsn = commit_lsn: a checkpointer may
  // flush the segment only once the commit record is durable, so no
  // uncommitted or non-redoable state can reach the backup.
  const bool lsn_cost = hooks_->NeedsLsnMaintenance();
  const bool ts_cost = hooks_->NeedsTimestampMaintenance();
  for (const auto& [record, image] : txn->pending) {
    SegmentId seg = db_->SegmentOf(record);
    hooks_->BeforeSegmentUpdate(seg, record, txn->start_ts, now);
    db_->WriteRecord(record, image);
    segments_->MarkDirty(seg);
    segments_->set_timestamp(seg, txn->start_ts);
    segments_->set_update_lsn(seg, commit_lsn);
    if (lsn_cost) {
      meter_->Charge(CpuCategory::kSyncLsn,
                     static_cast<double>(params_.costs.lsn));
    }
    if (ts_cost) {
      meter_->Charge(CpuCategory::kSyncLsn,
                     static_cast<double>(params_.costs.lsn));
    }
  }

  for (const auto& [key, delta] : txn->pending_deltas) {
    const auto& [record, field_offset] = key;
    SegmentId seg = db_->SegmentOf(record);
    hooks_->BeforeSegmentUpdate(seg, record, txn->start_ts, now);
    std::string image(db_->ReadRecord(record));
    uint64_t field = DecodeFixed64(image.data() + field_offset);
    EncodeFixed64(image.data() + field_offset,
                  field + static_cast<uint64_t>(delta));
    db_->WriteRecord(record, image);
    segments_->MarkDirty(seg);
    segments_->set_timestamp(seg, txn->start_ts);
    segments_->set_update_lsn(seg, commit_lsn);
    if (lsn_cost) {
      meter_->Charge(CpuCategory::kSyncLsn,
                     static_cast<double>(params_.costs.lsn));
    }
    if (ts_cost) {
      meter_->Charge(CpuCategory::kSyncLsn,
                     static_cast<double>(params_.costs.lsn));
    }
  }

  meter_->Charge(CpuCategory::kTxnLogic,
                 static_cast<double>(params_.txn.instructions));

  locks_.ReleaseAll(txn->id, txn->locked_records);
  txn->state = TxnState::kCommitted;
  ++commits_;
  if (m_commits_ != nullptr) m_commits_->Increment();
  active_.erase(txn->id);
  return commit_lsn;
}

void TxnManager::Abort(Transaction* txn, AbortReason reason, double now) {
  assert(txn->state == TxnState::kActive);
  LogRecord abort = LogRecord::Abort(txn->id);
  log_->Append(&abort, now);

  switch (reason) {
    case AbortReason::kUser:
      meter_->Charge(CpuCategory::kTxnLogic,
                     static_cast<double>(params_.txn.instructions));
      ++user_aborts_;
      if (m_user_aborts_ != nullptr) m_user_aborts_->Increment();
      break;
    case AbortReason::kLockConflict:
      meter_->Charge(CpuCategory::kTxnLogic,
                     static_cast<double>(params_.txn.instructions));
      ++lock_aborts_;
      if (m_lock_aborts_ != nullptr) m_lock_aborts_->Increment();
      break;
    case AbortReason::kColorViolation:
      // The paper's dominant two-color cost: the attempt's work is wasted
      // and the transaction reruns from scratch.
      meter_->Charge(CpuCategory::kTxnRerun,
                     static_cast<double>(params_.txn.instructions));
      ++color_aborts_;
      if (m_color_aborts_ != nullptr) m_color_aborts_->Increment();
      break;
  }

  locks_.ReleaseAll(txn->id, txn->locked_records);
  txn->state = TxnState::kAborted;
  active_.erase(txn->id);
}

std::vector<ActiveTxnEntry> TxnManager::ActiveTxnList() const {
  std::vector<ActiveTxnEntry> list;
  list.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    list.push_back(ActiveTxnEntry{id, kInvalidLsn});
  }
  std::sort(list.begin(), list.end(),
            [](const ActiveTxnEntry& a, const ActiveTxnEntry& b) {
              return a.txn_id < b.txn_id;
            });
  return list;
}

void TxnManager::Reset() {
  active_.clear();
  locks_.Clear();
}

}  // namespace mmdb

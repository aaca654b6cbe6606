#include "txn/lock_manager.h"

#include <algorithm>

#include "util/string_util.h"

namespace mmdb {

Status LockManager::Acquire(TxnId txn, RecordId record, Mode mode) {
  Status s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = AcquireLocked(txn, record, mode);
  }
  if (m_acquires_ != nullptr) {
    if (s.ok()) {
      m_acquires_->Increment();
    } else {
      m_conflicts_->Increment();
    }
  }
  return s;
}

Status LockManager::AcquireLocked(TxnId txn, RecordId record, Mode mode) {
  Entry& e = table_[record];
  const bool held_shared =
      std::find(e.shared.begin(), e.shared.end(), txn) != e.shared.end();
  if (mode == Mode::kShared) {
    if (e.exclusive != kInvalidTxnId && e.exclusive != txn) {
      return AbortedError(StringPrintf(
          "record %llu exclusively locked by txn %llu",
          static_cast<unsigned long long>(record),
          static_cast<unsigned long long>(e.exclusive)));
    }
    if (e.exclusive == txn) return Status::OK();  // Already stronger.
    if (!held_shared) e.shared.push_back(txn);
    return Status::OK();
  }
  // Exclusive request.
  if (e.exclusive != kInvalidTxnId) {
    if (e.exclusive == txn) return Status::OK();
    return AbortedError(StringPrintf(
        "record %llu exclusively locked by txn %llu",
        static_cast<unsigned long long>(record),
        static_cast<unsigned long long>(e.exclusive)));
  }
  // Upgrade allowed only if this txn is the sole sharer.
  if (!e.shared.empty() && !(e.shared.size() == 1 && held_shared)) {
    return AbortedError(StringPrintf(
        "record %llu share-locked by another transaction",
        static_cast<unsigned long long>(record)));
  }
  e.shared.clear();
  e.exclusive = txn;
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn, const std::vector<RecordId>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  for (RecordId r : records) {
    auto it = table_.find(r);
    if (it == table_.end()) continue;
    Entry& e = it->second;
    if (e.exclusive == txn) e.exclusive = kInvalidTxnId;
    std::erase(e.shared, txn);
    if (e.exclusive == kInvalidTxnId && e.shared.empty()) {
      table_.erase(it);
    }
  }
}

bool LockManager::IsLocked(RecordId record) const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.count(record) > 0;
}

bool LockManager::Holds(TxnId txn, RecordId record, Mode mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(record);
  if (it == table_.end()) return false;
  const Entry& e = it->second;
  if (e.exclusive == txn) return true;
  if (mode == Mode::kShared) {
    return std::find(e.shared.begin(), e.shared.end(), txn) != e.shared.end();
  }
  return false;
}

size_t LockManager::num_locked_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

void LockManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  table_.clear();
}

}  // namespace mmdb

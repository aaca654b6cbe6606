#ifndef MMDB_TXN_LOCK_MANAGER_H_
#define MMDB_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics_registry.h"
#include "util/status.h"
#include "util/types.h"

namespace mmdb {

// Record-granularity shared/exclusive lock table with no-wait conflict
// resolution: a conflicting request fails immediately with ABORTED instead
// of blocking, which keeps the single-threaded engine deadlock-free. The
// caller (TxnManager) retries the whole transaction, mirroring how the
// paper's model treats transaction restarts. One hash table under one
// mutex.
//
// Cost note: record locking is part of the transaction's base cost C_trans
// in the paper's model, so LockManager charges no instructions; only
// checkpoint-induced synchronization is metered (by the checkpointers).
class LockManager {
 public:
  enum class Mode : uint8_t { kShared, kExclusive };

  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Grants or upgrades a lock for `txn`; ABORTED on conflict with another
  // transaction. Re-acquiring an already-held lock (same or weaker mode)
  // succeeds.
  Status Acquire(TxnId txn, RecordId record, Mode mode);

  // Releases every lock `txn` holds on `records` (missing entries are
  // ignored, so callers can pass their full access list).
  void ReleaseAll(TxnId txn, const std::vector<RecordId>& records);

  // True if any transaction holds a lock on `record`.
  bool IsLocked(RecordId record) const;
  // True if `txn` holds at least `mode` on `record`.
  bool Holds(TxnId txn, RecordId record, Mode mode) const;

  size_t num_locked_records() const;

  void Clear();

  // Optional metrics sink (may be null): counts grants and no-wait
  // conflicts.
  void set_obs(MetricsRegistry* registry) {
    if (registry == nullptr) return;
    m_acquires_ = registry->counter("lock.acquires");
    m_conflicts_ = registry->counter("lock.conflicts");
  }

 private:
  struct Entry {
    // Exclusive holder, or kInvalidTxnId if the lock is shared/free.
    TxnId exclusive = kInvalidTxnId;
    std::vector<TxnId> shared;
  };

  // Caller holds mu_.
  Status AcquireLocked(TxnId txn, RecordId record, Mode mode);

  mutable std::mutex mu_;
  std::unordered_map<RecordId, Entry> table_;
  Counter* m_acquires_ = nullptr;
  Counter* m_conflicts_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_TXN_LOCK_MANAGER_H_

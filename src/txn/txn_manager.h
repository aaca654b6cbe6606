#ifndef MMDB_TXN_TXN_MANAGER_H_
#define MMDB_TXN_TXN_MANAGER_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "storage/database.h"
#include "storage/segment_table.h"
#include "txn/checkpoint_hooks.h"
#include "txn/lock_manager.h"
#include "txn/timestamps.h"
#include "txn/transaction.h"
#include "util/status.h"
#include "util/statusor.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace mmdb {

// Why a transaction was aborted; selects the cost accounting (only
// checkpoint-induced restarts are the paper's "rerun" overhead).
enum class AbortReason : uint8_t {
  kUser,               // client called Abort
  kLockConflict,       // no-wait lock table conflict
  kColorViolation,     // two-color constraint (checkpoint-induced)
};

// Executes transactions against the primary database using the paper's
// scheme (Section 2.6): deferred (shadow-copy) updates installed at commit,
// REDO-only logging with the update group and commit record appended
// together at commit time, and asynchronous group log flushes handled by
// the engine.
//
// The active checkpointer plugs in through CheckpointHooks: two-color
// admission, copy-on-update image preservation, and per-update LSN /
// timestamp maintenance charges.
class TxnManager {
 public:
  // `timestamps` is the engine-wide oracle, shared with the COU
  // checkpointer so tau(T) and tau(CH) draw from one sequence.
  TxnManager(Database* db, SegmentTable* segments, LogManager* log,
             TimestampOracle* timestamps, CpuMeter* meter,
             const SystemParams& params);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  // Installs the hooks of the active checkpoint algorithm; nullptr restores
  // the no-op hooks.
  void set_hooks(CheckpointHooks* hooks);
  CheckpointHooks* hooks() const { return hooks_; }

  // Starts a transaction. The returned pointer stays valid until Commit or
  // Abort retires it.
  Transaction* Begin(double now);

  // Reads a record (reads-your-writes within the transaction). May return
  // ABORTED on a lock conflict or a two-color violation, in which case the
  // caller must Abort the transaction and retry it.
  Status Read(Transaction* txn, RecordId record, std::string* out,
              double now);

  // Buffers an update; `image` must be exactly record_bytes long. Same
  // ABORTED contract as Read.
  Status Write(Transaction* txn, RecordId record, std::string_view image,
               double now);

  // Buffers a logical operation: add `delta` to the little-endian 8-byte
  // field at `field_offset` within `record`. Logged as a compact kDelta
  // record; the caller (Engine) is responsible for ensuring the active
  // checkpointing algorithm makes logical REDO safe. A record written with
  // a full image in the same transaction cannot also take deltas (and
  // vice versa). Same ABORTED contract as Read.
  Status WriteDelta(Transaction* txn, RecordId record, uint32_t field_offset,
                    int64_t delta, double now);

  // Installs updates, emits the REDO group + commit record, releases locks,
  // and retires the transaction. Returns the commit record's LSN.
  // The commit is durable only once the log flushes past that LSN.
  StatusOr<Lsn> Commit(Transaction* txn, double now);

  // Releases locks and retires the transaction without installing anything
  // (shadow updates are simply dropped). An abort record is logged for
  // accounting; REDO recovery never replays aborted transactions.
  void Abort(Transaction* txn, AbortReason reason, double now);

  // Snapshot of active transactions for a begin-checkpoint marker. Under
  // commit-time logging active transactions have no log records yet, so
  // first_lsn is kInvalidLsn for each.
  std::vector<ActiveTxnEntry> ActiveTxnList() const;

  size_t num_active() const { return active_.size(); }

  // --- statistics --------------------------------------------------------
  uint64_t commits() const { return commits_; }
  uint64_t user_aborts() const { return user_aborts_; }
  uint64_t lock_aborts() const { return lock_aborts_; }
  uint64_t color_aborts() const { return color_aborts_; }

  const LockManager& locks() const { return locks_; }

  // Optional observability sinks (either may be null); also wires the
  // embedded LockManager's counters.
  void set_obs(MetricsRegistry* registry, Tracer* tracer);

  // Forgets all volatile transaction state (crash).
  void Reset();

 private:
  // Incremental two-color admission for `txn` after touching `record`.
  Status CheckColors(Transaction* txn, SegmentId segment, double now);

  // Acquire + conflict tracing.
  Status AcquireLock(Transaction* txn, RecordId record, LockManager::Mode mode,
                     double now);

  Database* db_;
  SegmentTable* segments_;
  LogManager* log_;
  CpuMeter* meter_;
  SystemParams params_;
  CheckpointHooks* hooks_;
  NullCheckpointHooks null_hooks_;

  LockManager locks_;
  TimestampOracle* timestamps_;
  TxnId next_txn_id_ = 1;
  std::unordered_map<TxnId, std::unique_ptr<Transaction>> active_;

  uint64_t commits_ = 0;
  uint64_t user_aborts_ = 0;
  uint64_t lock_aborts_ = 0;
  uint64_t color_aborts_ = 0;

  Tracer* tracer_ = nullptr;
  Counter* m_commits_ = nullptr;
  Counter* m_user_aborts_ = nullptr;
  Counter* m_lock_aborts_ = nullptr;
  Counter* m_color_aborts_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_TXN_TXN_MANAGER_H_

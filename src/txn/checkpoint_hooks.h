#ifndef MMDB_TXN_CHECKPOINT_HOOKS_H_
#define MMDB_TXN_CHECKPOINT_HOOKS_H_

#include <vector>

#include "util/types.h"

namespace mmdb {

// The coupling points between transaction processing and an in-progress
// checkpoint. Each checkpoint algorithm implements these; TxnManager calls
// them without knowing which algorithm is active, which keeps txn/ free of
// a dependency on checkpoint/.
//
// All hooks take the current virtual time so implementations can reason
// about in-flight disk operations.
class CheckpointHooks {
 public:
  virtual ~CheckpointHooks() = default;

  // Two-color admission test (Pu's constraint): false means the access set
  // spans both white and black data and the transaction must abort and
  // restart. Non-two-color algorithms always return true.
  virtual bool AdmitAccess(const std::vector<SegmentId>& segments,
                           double now) = 0;

  // Called immediately before a committing transaction with timestamp
  // `txn_ts` overwrites record `record` in segment `s`: the COU algorithms
  // preserve the pre-update segment image here (Figure 3.2); the Hourglass
  // algorithm preserves at record granularity. Charges the copy-on-update
  // work to the synchronous overhead categories.
  virtual void BeforeSegmentUpdate(SegmentId s, RecordId record,
                                   Timestamp txn_ts, double now) = 0;

  // Whether transactions must maintain log sequence numbers on update
  // (costs C_lsn per updated record): true for the LSN-based algorithms
  // (FUZZYCOPY and the two-color pair without a stable log tail).
  virtual bool NeedsLsnMaintenance() const = 0;

  // Whether transactions must maintain segment timestamps tau(S) on update
  // (the COU algorithms; costs C_lsn per updated record in our model).
  virtual bool NeedsTimestampMaintenance() const = 0;
};

// Hooks for an engine with checkpointing disabled: no waits, no aborts, no
// extra bookkeeping.
class NullCheckpointHooks : public CheckpointHooks {
 public:
  bool AdmitAccess(const std::vector<SegmentId>&, double) override {
    return true;
  }
  void BeforeSegmentUpdate(SegmentId, RecordId, Timestamp, double) override {}
  bool NeedsLsnMaintenance() const override { return false; }
  bool NeedsTimestampMaintenance() const override { return false; }
};

}  // namespace mmdb

#endif  // MMDB_TXN_CHECKPOINT_HOOKS_H_

#ifndef MMDB_CORE_WORKLOAD_H_
#define MMDB_CORE_WORKLOAD_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "util/histogram.h"
#include "util/statusor.h"
#include "util/types.h"

namespace mmdb {

// Drives the paper's transaction load (Section 2.5) against an Engine:
// Poisson arrivals at params.txn.arrival_rate, each transaction updating
// params.txn.updates_per_txn distinct records (read-modify-write), with
// checkpoint-induced aborts retried after a short backoff with a freshly
// drawn record set (a statistically identical rerun, matching the analytic
// model's assumption).
//
// Beyond the paper's uniform load, the driver has an adversarial mode for
// interference studies (ROADMAP item 4's workload half): Zipf-skewed keys
// concentrate traffic on a few hot segments (maximizing collisions with
// the checkpoint sweep), the hot range can churn across segments over
// time, and a read-only fraction turns part of the load into lock-free
// reads. All of it deterministic under `seed`.
struct WorkloadOptions {
  double duration = 5.0;  // virtual seconds to run
  uint64_t seed = 42;
  // Begin checkpoints per the engine's scheduler (back-to-back or on the
  // configured interval). If false the workload runs checkpoint-free.
  bool run_checkpoints = true;
  // Mean of the exponential retry backoff for aborted-transaction reruns.
  double retry_backoff_mean = 0.002;

  // --- adversarial workload controls -------------------------------------
  enum class KeyDist : uint8_t { kUniform, kZipf };
  KeyDist key_dist = KeyDist::kUniform;
  // Skew of the Zipf rank distribution (only under kZipf); rank 0 is the
  // hottest record. Records are laid out contiguously, so hot ranks
  // cluster in the first segments.
  double zipf_theta = 0.99;
  // Shift the hot key range forward by one segment's worth of records
  // every this many virtual seconds (0 = stable hot set). Forces the
  // dirty-segment set to move under partial checkpoints.
  double hot_churn_interval = 0.0;
  // Fraction of arrivals that are read-only transactions (shared locks,
  // no updates, nothing logged but the commit record).
  double read_fraction = 0.0;
};

// Measured outcomes, including the paper's headline metric: checkpoint-
// related processor overhead per committed transaction, split into its
// synchronous (transaction-side) and asynchronous (checkpointer-side)
// components (Section 4).
struct WorkloadResult {
  uint64_t committed = 0;
  uint64_t attempts = 0;
  uint64_t color_restarts = 0;
  uint64_t lock_restarts = 0;  // no-wait lock conflicts retried
  uint64_t read_txns = 0;      // committed read-only transactions
  uint64_t checkpoints_completed = 0;
  double measured_seconds = 0.0;

  double sync_overhead_instr = 0.0;
  double async_overhead_instr = 0.0;
  double sync_per_txn = 0.0;
  double async_per_txn = 0.0;
  double overhead_per_txn = 0.0;  // sync + async, instructions/transaction

  double avg_checkpoint_duration = 0.0;  // begin-to-recoverable, seconds
  double avg_checkpoint_interval = 0.0;  // begin-to-begin, seconds
  double segments_flushed_per_ckpt = 0.0;
  double cou_copies_per_ckpt = 0.0;
  double quiesce_seconds_total = 0.0;

  // --- per-cause latency attribution (committed transactions only) -------
  // On the virtual clock a transaction's arrival-to-commit latency is
  // EXACTLY the sum of its admission stalls, its retry waits, and its
  // head-of-line queueing delay — service CPU is modeled as overhead
  // instructions, never as clock time — so the six components below sum
  // to latency_total_seconds (up to float rounding). Stalls are classified
  // at the blocking point by the checkpointer
  // (Checkpointer::AdmissionAt); retry waits by the abort cause the
  // TxnManager tagged (TxnAbortCause). Queueing delay is the gap between a
  // transaction's scheduled execution time (arrival or retry) and the
  // instant the serial driver actually gets to it: while one transaction
  // sits in an admission stall — or checkpoint I/O is serviced — the clock
  // moves past every arrival behind it, and that wait belongs to the
  // blocked arrivals themselves, not to the transaction holding the line.
  // Long checkpoint-held stalls therefore show up twice, once as the
  // stalled transaction's stall_* time and amplified here as every queued
  // transaction's queue time — exactly the tail-latency interference the
  // observatory exists to expose.
  // Under instant recovery a transaction can also stall on the per-segment
  // recovery latch (its first access to a not-yet-recovered segment); that
  // sixth cause joins the identity with the same exact-sum property.
  double stall_quiesce_seconds = 0.0;    // COU quiesce admission barrier
  double stall_ckpt_lock_seconds = 0.0;  // checkpoint-held segment locks
  double stall_recovery_wait_seconds = 0.0;  // on-demand recovery latch
  double backoff_color_seconds = 0.0;    // two-color restart backoff+deferral
  double backoff_lock_seconds = 0.0;     // lock-conflict restart backoff
  double queue_seconds = 0.0;            // head-of-line wait behind stalls
  double latency_total_seconds = 0.0;    // sum of arrival-to-commit latencies
  // Synchronous checkpoint overhead (COU copies, LSN maintenance, reruns)
  // as modeled CPU seconds. Charged to the processor meter rather than the
  // clock, so it is reported alongside — not inside — the stall identity.
  double sync_ckpt_cpu_seconds = 0.0;

  // Arrival-to-commit, microseconds. Finer bucket ratio than the metrics
  // default so p999 is resolved to ~±1% (see Histogram::kLatencyRatio).
  Histogram latency{Histogram::kLatencyRatio};

  std::string ToString() const;
};

// Deterministic record payload: embeds (record, marker) in the first 16
// bytes followed by a pseudo-random fill, so tests can verify both identity
// and content integrity after recovery.
std::string MakeRecordImage(size_t record_bytes, RecordId record,
                            uint64_t marker);

class WorkloadDriver {
 public:
  WorkloadDriver(Engine* engine, const WorkloadOptions& options);

  // Runs the workload for options.duration virtual seconds. May be called
  // once per driver.
  StatusOr<WorkloadResult> Run();

  // Full committed history per record (commit-LSN order) — the oracle for
  // crash-recovery verification: the recovered value of a record must be
  // its last image with commit LSN <= the durable LSN at crash time.
  struct CommitRecord {
    Lsn lsn;
    std::string image;
  };
  const std::unordered_map<RecordId, std::vector<CommitRecord>>& history()
      const {
    return history_;
  }

 private:
  Engine* engine_;
  WorkloadOptions options_;
  std::unordered_map<RecordId, std::vector<CommitRecord>> history_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_WORKLOAD_H_

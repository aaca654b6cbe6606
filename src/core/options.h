#ifndef MMDB_CORE_OPTIONS_H_
#define MMDB_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "checkpoint/checkpointer.h"
#include "sim/cost_model.h"
#include "util/status.h"

namespace mmdb {

// Configuration for Engine::Open. Defaults give a 1 Mword (4 MiB, 128
// segment) database with the paper's cost/disk/transaction parameters and
// partial FUZZYCOPY checkpointing.
struct EngineOptions {
  // Hardware, database and workload parameters (Tables 2a-2d).
  SystemParams params = SystemParams::TestDefaults();

  // Which checkpointing algorithm maintains the backup database.
  Algorithm algorithm = Algorithm::kFuzzyCopy;

  // Full or partial (dirty-bit) checkpoints.
  CheckpointMode checkpoint_mode = CheckpointMode::kPartial;

  // Target begin-to-begin checkpoint spacing in seconds; 0 runs
  // checkpoints back to back (the paper's minimum-duration setting).
  double checkpoint_interval = 0.0;

  // Model stable RAM holding the log tail (Section 4): appended log
  // records are durable immediately and survive crashes. Required for
  // Algorithm::kFastFuzzy.
  bool stable_log_tail = false;

  // Group-commit cadence: WorkloadDriver flushes the log tail this often
  // (the engine also flushes once the tail reaches 16 KiB).
  double log_flush_interval = 0.05;

  // Cap on segment-sized snapshot buffers (COU old copies and staging
  // copies); 0 = unbounded. See BufferPool.
  uint32_t max_snapshot_buffers = 0;

  // Permit Engine::WriteDelta / ApplyDelta under checkpointing algorithms
  // whose backups make logical REDO unsafe (fuzzy and two-color). Exists
  // for experiments that demonstrate the resulting corruption; never
  // enable it in real use.
  bool unsafe_allow_logical_logging = false;

  // Reclaim log space each time a checkpoint completes: frames before the
  // previous complete checkpoint's begin marker — the oldest one the
  // older-copy fallback may replay from — can never be replayed again and
  // are dropped (the log file keeps a logical base offset, so previously
  // published offsets stay valid). Off by default so diagnostic scans of
  // the full history keep working.
  bool truncate_log_at_checkpoint = false;

  // --- observability -----------------------------------------------------
  // Keep the metrics registry and trace ring on. Per-event cost is a
  // cached-pointer atomic add (counters) or a few stores under an
  // uncontended mutex (trace), cheap enough for the default. Off, the
  // engine threads null sinks everywhere and Engine::DumpMetricsJson
  // emits null metric/trace sections.
  bool enable_metrics = true;

  // Append every checkpoint lifecycle event and recovery decision to a
  // durable provenance journal (`<dir>/audit.log`, DESIGN.md §18),
  // queryable and machine-checkable with the `mmdb_audit` tool. The
  // journal carries no registry instruments and consumes no virtual time,
  // so every modeled stat and the registry snapshot are bit-identical
  // with it on or off; its own health appears only in DumpMetricsJson's
  // top-level "audit" member, which the bench gate compares like any
  // other. Independent of enable_metrics.
  bool audit_journal = true;

  // Virtual-clock sampling epoch (seconds) for the engine's time-series
  // sampler: every `timeseries_epoch` of virtual time, a fixed set of
  // instruments (commits, aborts by cause, checkpoint progress, admission
  // stalls, log tail) is snapshotted into a bounded ring, exported in
  // DumpMetricsJson's "timeseries" member and as Perfetto counter tracks
  // by mmdb_trace_report. 0 disables sampling (the default; the dump's
  // member is then null); at most 512 samples are kept. Requires
  // enable_metrics.
  double timeseries_epoch = 0.0;

  // Read by nothing: every restart runs on the calling thread. It remains
  // only because hostbench/workloads.cc assigns it; drop both together.
  uint32_t recovery_threads = 0;

  // Serve transactions during restart (DESIGN.md §19): OpenExisting
  // returns as soon as the recovery *plan* is built (log read,
  // per-segment REDO buckets indexed, copy sources chosen) and segments
  // are recovered on demand — a transaction touching a not-yet-recovered
  // segment stalls on that segment's recovery latch (the sixth latency
  // cause, recovery_wait) while untouched segments reload in background
  // access-priority order (observed touch count desc, then segment id).
  // The final database state, the modeled RecoveryStats, and the
  // per-segment lineage are bit-identical to blocking recovery — instant
  // recovery reschedules when recovery work happens, never what it
  // computes. The MMDB_INSTANT_RECOVERY environment variable, when set
  // to 0 or 1, overrides this value for every engine
  // (Engine::ResolveInstantRecovery) — used by check.sh's instant
  // sanitize lane.
  bool instant_recovery = false;

  // Directory (within the Env) holding the backup copies, checkpoint
  // metadata and log.
  std::string dir = "mmdb_data";

  Status Validate() const {
    MMDB_RETURN_IF_ERROR(params.Validate());
    if (checkpoint_interval < 0) {
      return InvalidArgumentError("checkpoint_interval must be >= 0");
    }
    if (algorithm == Algorithm::kFastFuzzy && !stable_log_tail) {
      return FailedPreconditionError(
          "FASTFUZZY requires stable_log_tail=true");
    }
    if (dir.empty()) return InvalidArgumentError("dir must be non-empty");
    return Status::OK();
  }
};

}  // namespace mmdb

#endif  // MMDB_CORE_OPTIONS_H_

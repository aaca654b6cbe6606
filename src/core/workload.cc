#include "core/workload.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "txn/transaction.h"
#include "util/coding.h"
#include "util/random.h"
#include "util/string_util.h"

namespace mmdb {
namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

std::string MakeRecordImage(size_t record_bytes, RecordId record,
                            uint64_t marker) {
  std::string image;
  image.reserve(record_bytes);
  PutFixed64(&image, record);
  PutFixed64(&image, marker);
  Random fill(record * 0x9e3779b97f4a7c15ull ^ marker);
  while (image.size() + 8 <= record_bytes) {
    PutFixed64(&image, fill.Next());
  }
  while (image.size() < record_bytes) image.push_back('\0');
  image.resize(record_bytes);
  return image;
}

std::string WorkloadResult::ToString() const {
  return StringPrintf(
      "committed=%llu attempts=%llu restarts=%llu color+%llu lock "
      "ckpts=%llu | "
      "overhead/txn=%.1f (sync=%.1f async=%.1f) instr | "
      "ckpt dur=%.3fs interval=%.3fs flushed/ckpt=%.1f cou/ckpt=%.1f | "
      "latency p50=%.2gms p99=%.2gms p999=%.2gms | "
      "attr quiesce=%.3fs cklock=%.3fs recwait=%.3fs color=%.3fs "
      "lock=%.3fs queue=%.3fs",
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(attempts),
      static_cast<unsigned long long>(color_restarts),
      static_cast<unsigned long long>(lock_restarts),
      static_cast<unsigned long long>(checkpoints_completed),
      overhead_per_txn, sync_per_txn, async_per_txn,
      avg_checkpoint_duration, avg_checkpoint_interval,
      segments_flushed_per_ckpt, cou_copies_per_ckpt,
      latency.Percentile(50) / 1e3, latency.Percentile(99) / 1e3,
      latency.Percentile(99.9) / 1e3, stall_quiesce_seconds,
      stall_ckpt_lock_seconds, stall_recovery_wait_seconds,
      backoff_color_seconds, backoff_lock_seconds, queue_seconds);
}

WorkloadDriver::WorkloadDriver(Engine* engine, const WorkloadOptions& options)
    : engine_(engine), options_(options) {}

StatusOr<WorkloadResult> WorkloadDriver::Run() {
  const SystemParams& p = engine_->params();
  Random rng(options_.seed);
  WorkloadResult result;

  const double start = engine_->now();
  const double end = start + options_.duration;

  // Pending transaction executions (arrivals and retries), earliest first.
  struct Pending {
    double time;
    double first_arrival;  // original arrival, for latency accounting
    int attempt;
    // Checkpoint the last attempt conflicted with; the retry is deferred
    // until that checkpoint completes (retrying against the same color
    // boundary would likely conflict again - the single-restart policy
    // assumed by the analytic model).
    CheckpointId conflict_ckpt = 0;
    bool read_only = false;
    // Per-cause latency accumulators across this transaction's attempts.
    // The clock only moves between arrival and commit during admission
    // stalls, retry waits, and head-of-line queueing (the driver is busy
    // with an earlier, stalled transaction when this one comes due), so at
    // commit these sum to the latency.
    double stall_quiesce = 0.0;
    double stall_lock = 0.0;
    double stall_recovery = 0.0;
    double backoff_color = 0.0;
    double backoff_lock = 0.0;
    double queue_wait = 0.0;
  };
  auto later = [](const Pending& a, const Pending& b) {
    return a.time > b.time;
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)> queue(
      later);

  double next_arrival = start + rng.Exponential(1.0 / p.txn.arrival_rate);

  // Adversarial key generator. Zipf ranks map to record ids directly (hot
  // ranks cluster in the low segments); churn rotates the mapping forward
  // one segment's worth of records per epoch so the hot set migrates under
  // the checkpoint sweep. Extra RNG draws only happen in non-default
  // modes, so the paper's uniform workload replays bit-identically.
  std::optional<ZipfGenerator> zipf;
  if (options_.key_dist == WorkloadOptions::KeyDist::kZipf) {
    zipf.emplace(p.db.num_records(), options_.zipf_theta);
  }
  const uint64_t records_per_seg =
      std::max<uint64_t>(1, p.db.num_records() / p.db.num_segments());
  auto draw_record = [&]() -> RecordId {
    if (!zipf) return rng.Uniform(p.db.num_records());
    uint64_t rank = zipf->Next(&rng);
    if (options_.hot_churn_interval > 0.0) {
      const uint64_t epoch = static_cast<uint64_t>(
          (engine_->now() - start) / options_.hot_churn_interval);
      rank = (rank + epoch * records_per_seg) % p.db.num_records();
    }
    return rank;
  };

  MetricsRegistry* reg = engine_->metrics();
  Timer* m_latency =
      reg == nullptr
          ? nullptr
          : reg->timer("workload.latency_seconds", Histogram::kLatencyRatio);
  Timer* m_stall_q =
      reg == nullptr ? nullptr : reg->timer("workload.stall_quiesce_seconds");
  Timer* m_stall_l =
      reg == nullptr ? nullptr
                     : reg->timer("workload.stall_ckpt_lock_seconds");
  Timer* m_stall_r =
      reg == nullptr ? nullptr
                     : reg->timer("workload.stall_recovery_wait_seconds");
  Timer* m_bk_color =
      reg == nullptr ? nullptr : reg->timer("workload.backoff_color_seconds");
  Timer* m_bk_lock =
      reg == nullptr ? nullptr : reg->timer("workload.backoff_lock_seconds");
  Timer* m_queue =
      reg == nullptr ? nullptr : reg->timer("workload.queue_seconds");

  const double sync0 = engine_->meter().SynchronousOverhead();
  const double async0 = engine_->meter().AsynchronousOverhead();
  const uint64_t ckpts0 = engine_->scheduler().completed();
  // Absolute checkpoint ordinal at start: the history deque is capped, so
  // positions must be recovered via the dropped count at read time.
  const uint64_t hist0_abs = engine_->checkpointer().history_dropped() +
                             engine_->checkpointer().history().size();

  uint64_t marker = 1;
  std::vector<RecordId> records(p.txn.updates_per_txn);

  while (true) {
    // Next event: an arrival, a queued retry, or a checkpoint begin.
    double ckpt_begin = kNever;
    if (options_.run_checkpoints && !engine_->CheckpointInProgress()) {
      ckpt_begin = std::max(engine_->now(),
                            engine_->scheduler().NextBeginTime());
    }
    double txn_time = queue.empty() ? next_arrival
                                    : std::min(next_arrival, queue.top().time);
    double event = std::min(txn_time, ckpt_begin);
    if (event >= end) break;

    // Let the engine service log flushes / checkpoint I/O up to the event.
    if (event > engine_->now()) {
      MMDB_RETURN_IF_ERROR(engine_->AdvanceTime(event - engine_->now()));
    }

    if (ckpt_begin <= txn_time) {
      MMDB_RETURN_IF_ERROR(engine_->StartCheckpoint());
      continue;
    }

    Pending pending;
    if (!queue.empty() && queue.top().time <= next_arrival) {
      pending = queue.top();
      queue.pop();
      // The clock may already be past this retry's scheduled time (an
      // earlier transaction stalled, or checkpoint I/O was serviced, while
      // it waited its turn): head-of-line queueing delay.
      pending.queue_wait += engine_->now() - pending.time;
      if (pending.conflict_ckpt != 0 && engine_->CheckpointInProgress() &&
          engine_->checkpointer().current_id() == pending.conflict_ckpt) {
        // Still the same sweep: defer further without executing. The added
        // wait is checkpoint-induced, so it counts against the color cause.
        const double now = engine_->now();
        pending.time = now + rng.Exponential(options_.retry_backoff_mean);
        pending.backoff_color += pending.time - now;
        queue.push(pending);
        continue;
      }
    } else {
      pending = Pending{};
      pending.time = next_arrival;
      pending.first_arrival = next_arrival;
      pending.attempt = 1;
      if (options_.read_fraction > 0.0) {
        pending.read_only = rng.Bernoulli(options_.read_fraction);
      }
      // Same head-of-line gap for a fresh arrival that came due while the
      // driver was busy with a stalled predecessor.
      pending.queue_wait += engine_->now() - pending.time;
      next_arrival += rng.Exponential(1.0 / p.txn.arrival_rate);
    }

    // Draw the access set (fresh on every attempt: a rerun is a
    // statistically identical transaction, as in the analytic model).
    for (uint32_t i = 0; i < p.txn.updates_per_txn; ++i) {
      for (;;) {
        RecordId r = draw_record();
        if (std::find(records.begin(), records.begin() + i, r) ==
            records.begin() + i) {
          records[i] = r;
          break;
        }
      }
    }

    ++result.attempts;
    // The driver is serial, so every admission stall the engine classifies
    // inside this window belongs to this attempt.
    const double stall_q0 = engine_->stall_quiesce_seconds();
    const double stall_l0 = engine_->stall_ckpt_lock_seconds();
    const double stall_r0 = engine_->stall_recovery_wait_seconds();
    Transaction* txn = engine_->Begin();
    txn->attempt = pending.attempt;
    Status st = Status::OK();
    std::string value;
    for (uint32_t i = 0; i < p.txn.updates_per_txn && st.ok(); ++i) {
      st = engine_->Read(txn, records[i], &value);
      if (!st.ok()) break;
      if (!pending.read_only) {
        st = engine_->Write(txn, records[i],
                            MakeRecordImage(p.db.record_bytes(), records[i],
                                            marker));
      }
    }
    StatusOr<Lsn> lsn = InternalError("uncommitted");
    if (st.ok()) {
      lsn = engine_->Commit(txn);
      if (!lsn.ok()) return lsn.status();
    }
    pending.stall_quiesce += engine_->stall_quiesce_seconds() - stall_q0;
    pending.stall_lock += engine_->stall_ckpt_lock_seconds() - stall_l0;
    pending.stall_recovery +=
        engine_->stall_recovery_wait_seconds() - stall_r0;
    if (st.ok()) {
      if (pending.read_only) {
        ++result.read_txns;
      } else {
        for (uint32_t i = 0; i < p.txn.updates_per_txn; ++i) {
          history_[records[i]].push_back(CommitRecord{
              *lsn,
              MakeRecordImage(p.db.record_bytes(), records[i], marker)});
        }
        ++marker;
      }
      ++result.committed;
      const double lat = engine_->now() - pending.first_arrival;
      result.latency.Add(lat * 1e6);
      result.latency_total_seconds += lat;
      result.stall_quiesce_seconds += pending.stall_quiesce;
      result.stall_ckpt_lock_seconds += pending.stall_lock;
      result.stall_recovery_wait_seconds += pending.stall_recovery;
      result.backoff_color_seconds += pending.backoff_color;
      result.backoff_lock_seconds += pending.backoff_lock;
      result.queue_seconds += pending.queue_wait;
      if (m_latency != nullptr) m_latency->Record(lat);
      if (m_stall_q != nullptr && pending.stall_quiesce > 0.0) {
        m_stall_q->Record(pending.stall_quiesce);
      }
      if (m_stall_l != nullptr && pending.stall_lock > 0.0) {
        m_stall_l->Record(pending.stall_lock);
      }
      if (m_stall_r != nullptr && pending.stall_recovery > 0.0) {
        m_stall_r->Record(pending.stall_recovery);
      }
      if (m_bk_color != nullptr && pending.backoff_color > 0.0) {
        m_bk_color->Record(pending.backoff_color);
      }
      if (m_bk_lock != nullptr && pending.backoff_lock > 0.0) {
        m_bk_lock->Record(pending.backoff_lock);
      }
      if (m_queue != nullptr && pending.queue_wait > 0.0) {
        m_queue->Record(pending.queue_wait);
      }
    } else if (st.IsAborted()) {
      // Lock conflicts and color violations share the ABORTED status; the
      // TxnManager tags the cause on the transaction. Read it before Abort
      // retires (and frees) the transaction.
      const bool lock_conflict =
          txn->abort_cause == TxnAbortCause::kLockConflict;
      engine_->Abort(txn, lock_conflict ? AbortReason::kLockConflict
                                        : AbortReason::kColorViolation);
      const double now = engine_->now();
      Pending retry = pending;
      retry.time = now + rng.Exponential(options_.retry_backoff_mean);
      retry.attempt = pending.attempt + 1;
      if (lock_conflict) {
        ++result.lock_restarts;
        retry.conflict_ckpt = 0;
        retry.backoff_lock += retry.time - now;
      } else {
        ++result.color_restarts;
        retry.conflict_ckpt = engine_->CheckpointInProgress()
                                  ? engine_->checkpointer().current_id()
                                  : 0;
        retry.backoff_color += retry.time - now;
      }
      queue.push(retry);
    } else {
      engine_->Abort(txn);
      return st;
    }
  }
  if (end > engine_->now()) {
    MMDB_RETURN_IF_ERROR(engine_->AdvanceTime(end - engine_->now()));
  }

  result.measured_seconds = engine_->now() - start;
  result.sync_overhead_instr =
      engine_->meter().SynchronousOverhead() - sync0;
  result.async_overhead_instr =
      engine_->meter().AsynchronousOverhead() - async0;
  result.sync_ckpt_cpu_seconds =
      p.InstructionsToSeconds(result.sync_overhead_instr);
  if (result.committed > 0) {
    result.sync_per_txn =
        result.sync_overhead_instr / static_cast<double>(result.committed);
    result.async_per_txn =
        result.async_overhead_instr / static_cast<double>(result.committed);
    result.overhead_per_txn = result.sync_per_txn + result.async_per_txn;
  }
  result.checkpoints_completed = engine_->scheduler().completed() - ckpts0;

  if (reg != nullptr) {
    // End-of-run attribution totals, exported with the engine dump so the
    // sidecar carries the full latency decomposition per sweep point.
    reg->gauge("workload.attr.stall_quiesce_seconds")
        ->Set(result.stall_quiesce_seconds);
    reg->gauge("workload.attr.stall_ckpt_lock_seconds")
        ->Set(result.stall_ckpt_lock_seconds);
    reg->gauge("workload.attr.stall_recovery_wait_seconds")
        ->Set(result.stall_recovery_wait_seconds);
    reg->gauge("workload.attr.backoff_color_seconds")
        ->Set(result.backoff_color_seconds);
    reg->gauge("workload.attr.backoff_lock_seconds")
        ->Set(result.backoff_lock_seconds);
    reg->gauge("workload.attr.queue_seconds")->Set(result.queue_seconds);
    reg->gauge("workload.attr.latency_total_seconds")
        ->Set(result.latency_total_seconds);
    reg->gauge("workload.attr.sync_ckpt_cpu_seconds")
        ->Set(result.sync_ckpt_cpu_seconds);
  }

  const auto& history = engine_->checkpointer().history();
  const uint64_t dropped = engine_->checkpointer().history_dropped();
  // First retained entry belonging to this run (0 if the cap already
  // discarded some of this run's checkpoints).
  const size_t hist0 =
      hist0_abs > dropped ? static_cast<size_t>(hist0_abs - dropped) : 0;
  double dur = 0.0, flushed = 0.0, cou = 0.0, quiesce = 0.0;
  for (size_t i = hist0; i < history.size(); ++i) {
    dur += history[i].duration();
    flushed += static_cast<double>(history[i].segments_flushed);
    cou += static_cast<double>(history[i].cou_copies);
    quiesce += history[i].quiesce_seconds;
  }
  size_t n = history.size() - hist0;
  if (n > 0) {
    result.avg_checkpoint_duration = dur / static_cast<double>(n);
    result.segments_flushed_per_ckpt = flushed / static_cast<double>(n);
    result.cou_copies_per_ckpt = cou / static_cast<double>(n);
    if (n > 1) {
      result.avg_checkpoint_interval =
          (history.back().begin_time - history[hist0].begin_time) /
          static_cast<double>(n - 1);
    }
  }
  result.quiesce_seconds_total = quiesce;
  return result;
}

}  // namespace mmdb

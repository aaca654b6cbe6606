#include "load_gen.h"

#include <algorithm>
#include <utility>

namespace hostbench {
namespace {

// Mean backoff before a retry, in virtual seconds.
constexpr double kRetryBackoffMean = 0.002;

}  // namespace

LoadGen::LoadGen(const LoadSpec& spec, const mmdb::TransactionParams& txn,
                 uint64_t seed, double start_time)
    : spec_(spec),
      arrival_rate_(txn.arrival_rate),
      records_per_txn_(txn.updates_per_txn),
      rng_(seed) {
  next_arrival_ = start_time + rng_.Exponential(1.0 / arrival_rate_);
}

double LoadGen::NextDue() const {
  if (!ready_.empty() && ready_.top().due <= next_arrival_) {
    return ready_.top().due;
  }
  return next_arrival_;
}

mmdb::RecordId LoadGen::DrawRecord() {
  if (spec_.zipf == nullptr) return rng_.Uniform(spec_.num_records);
  return spec_.zipf->Next(&rng_);
}

TxnPlan LoadGen::Next() {
  TxnPlan plan;
  if (!ready_.empty() && ready_.top().due <= next_arrival_) {
    plan = ready_.top();
    ready_.pop();
  } else {
    plan.id = ++arrivals_;
    plan.due = next_arrival_;
    if (spec_.read_only_fraction > 0.0) {
      plan.read_only = rng_.Bernoulli(spec_.read_only_fraction);
    }
    next_arrival_ += rng_.Exponential(1.0 / arrival_rate_);
  }
  plan.marker = ++markers_;
  plan.records.clear();
  while (plan.records.size() < records_per_txn_) {
    const mmdb::RecordId r = DrawRecord();
    if (std::find(plan.records.begin(), plan.records.end(), r) ==
        plan.records.end()) {
      plan.records.push_back(r);
    }
  }
  return plan;
}

void LoadGen::Retry(TxnPlan plan, double now) {
  plan.due = now + rng_.Exponential(kRetryBackoffMean);
  ++plan.attempt;
  ready_.push(std::move(plan));
}

void LoadGen::Park(TxnPlan plan, mmdb::CheckpointId ckpt) {
  parked_[ckpt].push_back(std::move(plan));
  ++parked_count_;
}

void LoadGen::Release(mmdb::CheckpointId running, double now) {
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->first == running) {
      ++it;
      continue;
    }
    for (TxnPlan& plan : it->second) {
      --parked_count_;
      Retry(std::move(plan), now);
    }
    it = parked_.erase(it);
  }
}

}  // namespace hostbench

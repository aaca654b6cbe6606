#ifndef HOSTBENCH_LOAD_GEN_H_
#define HOSTBENCH_LOAD_GEN_H_

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "sim/cost_model.h"
#include "util/random.h"
#include "util/types.h"

namespace hostbench {

struct LoadSpec {
  uint64_t num_records = 0;
  double read_only_fraction = 0.0;
  // Zipf rank generator over [0, num_records) (rank = record id, so hot
  // records cluster in the low segments); null draws keys uniformly.
  // Borrowed: building one is O(num_records), so callers share it.
  mmdb::ZipfGenerator* zipf = nullptr;
};

// One execution attempt of a transaction.
struct TxnPlan {
  uint64_t id = 0;       // arrival ordinal, shared by every attempt
  double due = 0.0;      // virtual time the attempt may start
  int attempt = 1;
  bool read_only = false;
  uint64_t marker = 0;   // unique per attempt; seeds the record images
  int64_t host_ns = 0;   // host time spent in earlier attempts' calls
  std::vector<mmdb::RecordId> records;  // drawn fresh for every attempt
};

// Seeded open-loop load on the virtual clock: Poisson arrivals at the
// engine's `txn.arrival_rate`, each transaction touching
// `txn.updates_per_txn` distinct records, and retries of aborted attempts
// after an exponential backoff.
// A two-color retry is parked under the checkpoint it conflicted with and
// released only once that checkpoint no longer runs (retrying against the
// same color boundary would abort again); parking costs nothing per
// backoff tick, unlike re-queuing. Every draw comes from one Random in
// call order, so the same seed and the same engine behaviour give the same
// sequence.
class LoadGen {
 public:
  LoadGen(const LoadSpec& spec, const mmdb::TransactionParams& txn,
          uint64_t seed, double start_time);

  // Virtual time of the earliest arrival or released retry.
  double NextDue() const;
  // Pops that transaction and draws its access set for this attempt.
  TxnPlan Next();
  // Schedules the next attempt after a backoff from `now`.
  void Retry(TxnPlan plan, double now);
  // Parks the next attempt until checkpoint `ckpt` stops running.
  void Park(TxnPlan plan, mmdb::CheckpointId ckpt);
  // Releases every parked attempt whose checkpoint is not `running` (0 when
  // none runs), each after a backoff from `now`.
  void Release(mmdb::CheckpointId running, double now);
  size_t parked() const { return parked_count_; }

 private:
  struct Later {
    bool operator()(const TxnPlan& a, const TxnPlan& b) const {
      return a.due > b.due || (a.due == b.due && a.id > b.id);
    }
  };
  mmdb::RecordId DrawRecord();

  LoadSpec spec_;
  double arrival_rate_;
  uint32_t records_per_txn_;
  mmdb::Random rng_;
  double next_arrival_;
  uint64_t arrivals_ = 0;
  uint64_t markers_ = 0;
  std::priority_queue<TxnPlan, std::vector<TxnPlan>, Later> ready_;
  std::map<mmdb::CheckpointId, std::vector<TxnPlan>> parked_;
  size_t parked_count_ = 0;
};

}  // namespace hostbench

#endif  // HOSTBENCH_LOAD_GEN_H_

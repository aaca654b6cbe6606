#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include "backup/backup_store.h"
#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "load_gen.h"
#include "oracle.h"
#include "sim/disk_model.h"
#include "span_recorder.h"
#include "stats.h"
#include "timed_env.h"
#include "txn/transaction.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/string_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"

namespace hostbench {
namespace {

using mmdb::Algorithm;
using mmdb::Engine;
using mmdb::EngineOptions;
using mmdb::Env;
using mmdb::RecoveryStats;
using mmdb::Status;
using mmdb::StatusOr;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kDir = "db";
// The probe load served by instant restarts is the same for every seed,
// so restart costs compare like with like; the crash image still varies.
constexpr uint64_t kProbeSeed = 0x70726f6265ull;
// The modeled guards (model_*) come from a load and crash image drawn from
// this fixed seed, so they repeat exactly across seeds, runs and commits.
constexpr uint64_t kGuardSeed = 0x6775617264ull;
// Crash fixtures the restart workload builds in set-up: setup_s is the
// median of their build times. The first is drawn from kGuardSeed and gives
// the modeled guards; the last, from --seed, is restarted by the rounds.
constexpr int kSetupBuilds = 3;
// Share of a traced run's time spent on the untraced baseline rounds that
// trace.overhead_frac and the per-algorithm costs come from.
constexpr double kBaselineShare = 0.3;

// Engine calls the benchmark times, with their span names.
enum Call : uint8_t {
  kBegin,
  kRead,
  kWrite,
  kCommit,
  kAbort,
  kAdvance,
  kStartCheckpoint,
  kOpen,
  kFlush,
  kCrash,
  kOpenExisting,
  kDrain,
  kDump,
  kNumCalls
};
constexpr size_t kNumTxnCalls = kAbort + 1;
constexpr const char* kCallSpan[kNumCalls] = {
    "txn.begin",  "txn.read",   "txn.write",
    "txn.commit", "txn.abort",  "core.advance",
    "ckpt.start", "core.open",  "wal.flush",
    "core.crash", "recovery.open_existing",
    "recovery.drain", "obs.dump"};

struct WorkloadSpec {
  const char* name;
  uint64_t db_words;
  bool zipf;
  std::vector<Algorithm> algorithms;  // one engine life each per round
  bool checkpoints;      // back-to-back partial checkpoints during the load
  double load_seconds;   // virtual seconds of load per life
  double probe_seconds;  // virtual seconds of probe load per instant restart
  // true (restart): set-up builds the crash fixture and a round is one
  // blocking plus one instant restart of it. false: a round is one life per
  // algorithm, each followed by a blocking and an instant restart of its own
  // crash image.
  bool fixture;
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      // 4 MiB: the transaction path alone, in cache.
      {"oltp", 1ull << 20, false, {Algorithm::kFuzzyCopy}, false, 10.0, 0.25,
       false},
      // 64 MiB: all nine checkpointers back to back, >= 3 checkpoints each.
      {"checkpoint", 1ull << 24, false,
       std::vector<Algorithm>(std::begin(mmdb::kAllAlgorithms),
                              std::end(mmdb::kAllAlgorithms)),
       true, 20.0, 0.5, false},
      // 512 MiB, larger than the host's last-level cache: restarts.
      {"restart", 1ull << 27, true, {Algorithm::kFuzzyCopy}, false, 10.0, 2.0,
       true},
  };
  return specs;
}

// What one engine life runs.
struct LifeConfig {
  Algorithm algorithm = Algorithm::kFuzzyCopy;
  uint64_t seed = 0;  // of the load
  uint64_t db_words = 0;
  bool zipf = false;
  bool checkpoints = false;
  double load_seconds = 0.0;
  bool obs = true;  // enable_metrics and audit_journal (library defaults)
  // Flush and let the flush land before the crash, so the whole load is
  // durable (the restart fixture).
  bool settle = false;
};

// Tallies of one load (or probe load) on one engine.
struct LoadTally {
  uint64_t committed = 0;
  uint64_t attempts = 0;
  uint64_t restarts = 0;
  int64_t engine_ns = 0;         // every timed call of the load
  std::vector<double> txn_us;    // per committed transaction, all attempts
  bool keep_calls = false;       // per-call samples (traced run)
  std::array<std::vector<uint32_t>, kNumTxnCalls> call_ns;
  // Client calls during which the virtual clock advanced: the engine
  // serviced checkpoint or recovery work inside them.
  uint64_t stalled_calls = 0;
  int64_t stalled_ns = 0;
  double model_stall_s = 0.0;
  // AdvanceTime with no checkpoint running: group flushes only.
  uint64_t advance_calls = 0;
  int64_t advance_ns = 0;
  // StartCheckpoint, and AdvanceTime while a checkpoint runs.
  int64_t ckpt_bg_ns = 0;
  double model_instr = 0.0;
  uint64_t wal_bytes = 0;
  uint64_t wal_flushes = 0;
  // Engine time from the load's start to its first successful commit.
  int64_t ns_to_first_commit = -1;
  uint64_t pending_at_first_commit = 0;

  void Merge(const LoadTally& o) {
    committed += o.committed;
    attempts += o.attempts;
    restarts += o.restarts;
    engine_ns += o.engine_ns;
    txn_us.insert(txn_us.end(), o.txn_us.begin(), o.txn_us.end());
    for (size_t c = 0; c < kNumTxnCalls; ++c) {
      call_ns[c].insert(call_ns[c].end(), o.call_ns[c].begin(),
                        o.call_ns[c].end());
    }
    stalled_calls += o.stalled_calls;
    stalled_ns += o.stalled_ns;
    model_stall_s += o.model_stall_s;
    advance_calls += o.advance_calls;
    advance_ns += o.advance_ns;
    ckpt_bg_ns += o.ckpt_bg_ns;
    model_instr += o.model_instr;
    wal_bytes += o.wal_bytes;
    wal_flushes += o.wal_flushes;
  }
};

IoTally operator-(const IoTally& a, const IoTally& b) {
  return IoTally{a.read_ops - b.read_ops,       a.write_ops - b.write_ops,
                 a.read_bytes - b.read_bytes,   a.write_bytes - b.write_bytes,
                 a.read_ns - b.read_ns,         a.write_ns - b.write_ns,
                 a.other_ns - b.other_ns};
}
IoTally& operator+=(IoTally& a, const IoTally& b) {
  a.read_ops += b.read_ops;
  a.write_ops += b.write_ops;
  a.read_bytes += b.read_bytes;
  a.write_bytes += b.write_bytes;
  a.read_ns += b.read_ns;
  a.write_ns += b.write_ns;
  a.other_ns += b.other_ns;
  return a;
}

using Tallies = std::array<IoTally, kNumPathClasses>;
Tallies TalliesOf(const TimedEnv* env) {
  Tallies t{};
  if (env == nullptr) return t;
  for (size_t c = 0; c < kNumPathClasses; ++c) {
    t[c] = env->tally(static_cast<PathClass>(c));
  }
  return t;
}
Tallies operator-(const Tallies& a, const Tallies& b) {
  Tallies t{};
  for (size_t c = 0; c < kNumPathClasses; ++c) t[c] = a[c] - b[c];
  return t;
}
Tallies& operator+=(Tallies& a, const Tallies& b) {
  for (size_t c = 0; c < kNumPathClasses; ++c) a[c] += b[c];
  return a;
}
const IoTally& Of(const Tallies& t, PathClass c) {
  return t[static_cast<size_t>(c)];
}

// The crash image a life leaves behind: its MemEnv (backup copies, log,
// metadata, journal), the options that wrote it, the expected state, and
// a copy of every file but the backup copies. Restarts write the log,
// metadata and journal, so each restart starts from the restored copy;
// they only read the backup copies.
struct CrashImage {
  std::unique_ptr<Env> mem;
  EngineOptions options;
  Oracle oracle;
  std::vector<std::pair<std::string, std::string>> files;
};

struct LifeStats {
  Algorithm algorithm = Algorithm::kFuzzyCopy;
  int64_t setup_ns = 0;
  LoadTally load;
  uint64_t ckpt_completed = 0;
  uint64_t ckpt_segments = 0;
  uint64_t ckpt_errors = 0;
  int64_t dump_ns = -1;
  Tallies io{};  // load and crash, traced run only
};

struct RestartStats {
  int64_t blocking_ns = 0;
  int64_t blocking_read_ns = 0;  // Env reads inside the blocking restart
  RecoveryStats blocking;
  int64_t plan_ns = 0;   // instant OpenExisting
  int64_t drain_ns = 0;  // DrainRecovery()
  double model_first_s = 0.0;
  LoadTally probe;
  int64_t dump_ns = -1;
  Tallies io{};  // traced run only
};

// True when the modeled (virtual-clock) recovery quantities differ.
bool ModeledDiffers(const RecoveryStats& a, const RecoveryStats& b) {
  return a.checkpoint_id != b.checkpoint_id || a.copy != b.copy ||
         a.backup_read_seconds != b.backup_read_seconds ||
         a.log_read_seconds != b.log_read_seconds ||
         a.replay_cpu_seconds != b.replay_cpu_seconds ||
         a.total_seconds != b.total_seconds ||
         a.segments_loaded != b.segments_loaded ||
         a.segments_retried != b.segments_retried ||
         a.log_bytes_read != b.log_bytes_read ||
         a.records_scanned != b.records_scanned ||
         a.updates_applied != b.updates_applied ||
         a.txns_redone != b.txns_redone ||
         a.fell_back_to_older_copy != b.fell_back_to_older_copy;
}

// Per-round values of every metric, and the samples pooled across rounds.
struct Rounds {
  std::map<std::string, std::vector<double>> values;
  std::vector<double> txn_us;  // every committed transaction
  // The median transaction of each load (a life's load, or a restart's
  // probe load), by the algorithm that ran it.
  std::map<Algorithm, std::vector<double>> load_txn_us_p50;
  std::array<std::vector<uint32_t>, kNumTxnCalls> call_ns;
  std::vector<double> engine_ns;  // all timed engine calls, per round
  std::map<Algorithm, std::vector<double>> us_per_txn;
  size_t count = 0;
};

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Moves the calling thread to the next CPU it may run on, round-robin.
// Interference from other tenants differs between CPUs and persists for
// minutes, so a run that stayed on one CPU could spend all its rounds on a
// slow one; rotating per round gives every run the same mix of CPUs.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
  size_t turn_ = 0;
};

class Bench {
 public:
  Bench(const RunOptions& options, const WorkloadSpec& spec)
      : opt_(options), spec_(spec) {}

  RunResult Run();

 private:
  // Times one engine call. While tracing, its span takes the same two clock
  // reads, and the call's time adds to traced_call_ns_.
  template <typename Fn>
  auto Timed(Call call, uint64_t group, int64_t* ns, Fn&& fn) {
    const int64_t start = NowNs();
    if (spans_ != nullptr) spans_->Begin(kCallSpan[call], group, start);
    auto result = fn();
    const int64_t end = NowNs();
    *ns = end - start;
    if (spans_ != nullptr) {
      spans_->End(end);
      traced_call_ns_ += *ns;
    }
    ++attempted_;
    return result;
  }

  // A client (transaction) call: timed, charged to the transaction and the
  // load, and checked for a stall (virtual-clock advance) inside it.
  template <typename Fn>
  auto Client(Engine* e, Call call, uint64_t group, LoadTally* t,
              int64_t* txn_ns, Fn&& fn) {
    const double v0 = e->now();
    int64_t ns = 0;
    auto result = Timed(call, group, &ns, std::forward<Fn>(fn));
    t->engine_ns += ns;
    *txn_ns += ns;
    if (t->keep_calls) {
      t->call_ns[call].push_back(static_cast<uint32_t>(
          std::min<int64_t>(ns, std::numeric_limits<uint32_t>::max())));
    }
    if (e->now() > v0) {
      ++t->stalled_calls;
      t->stalled_ns += ns;
      t->model_stall_s += e->now() - v0;
    }
    return result;
  }

  void Fail(std::string message) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(std::move(message));
  }
  // Records a failed engine call; ABORTED is a retry, not a failure.
  bool Ok(const Status& s, const char* what) {
    if (s.ok() || s.IsAborted()) return true;
    Fail(std::string(what) + ": " + s.ToString());
    return false;
  }

  EngineOptions OptionsFor(const LifeConfig& cfg) const;
  LoadSpec LoadSpecFor(uint64_t db_words, bool zipf, double read_only) const;
  LifeConfig ConfigFor(Algorithm a, uint64_t seed) const;

  void ReleaseParked(Engine* e, LoadGen* gen) {
    if (gen->parked() == 0) return;
    gen->Release(
        e->CheckpointInProgress() ? e->checkpointer().current_id() : 0,
        e->now());
  }
  Status Advance(Engine* e, double seconds, LoadTally* t);
  Status RunAttempt(Engine* e, LoadGen* gen, Oracle* oracle,
                    bool after_restart, LoadTally* t);
  Status RunLoad(Engine* e, LoadGen* gen, double seconds, bool checkpoints,
                 Oracle* oracle, bool after_restart, LoadTally* t);

  std::unique_ptr<CrashImage> RunLife(const LifeConfig& cfg, bool traced,
                                      LifeStats* out);
  bool RestartPair(CrashImage* image, bool traced, RestartStats* out);
  void Verify(const Engine& e, const Oracle& oracle, const char* what);
  bool RestoreFiles(CrashImage* image);
  bool SnapshotFiles(CrashImage* image);

  bool RunRound(bool traced, uint64_t seed, Rounds* rounds);
  void AddRound(const std::vector<LifeStats>& lives,
                const std::vector<RestartStats>& restarts, Rounds* rounds);

  // Traced-run extras, measured without tracing.
  double ObsOverheadFrac();
  double CheckpointOffUsPerTxn();
  void StandaloneProbes(std::map<std::string, double>* out,
                        std::map<std::string, size_t>* samples);

  RunResult Finish(const std::map<std::string, double>& values,
                   const std::map<std::string, size_t>& samples);

  RunOptions opt_;
  const WorkloadSpec& spec_;
  std::unique_ptr<mmdb::ZipfGenerator> zipf_;
  std::unique_ptr<SpanRecorder> recorder_;
  SpanRecorder* spans_ = nullptr;  // non-null while traced rounds run
  int64_t traced_call_ns_ = 0;     // engine-call time while spans_ is set
  std::unique_ptr<CrashImage> image_;  // the restart fixture / last image
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  CpuRotation cpus_;
  uint64_t loads_ = 0;     // group ids: (load << 32) | transaction
  uint64_t restarts_ = 0;  // group ids: top bit | restart cycle
};

EngineOptions Bench::OptionsFor(const LifeConfig& cfg) const {
  EngineOptions o;
  o.params.db.db_words = cfg.db_words;
  o.algorithm = cfg.algorithm;
  o.stable_log_tail = cfg.algorithm == Algorithm::kFastFuzzy;
  o.recovery_threads = 1;
  o.enable_metrics = cfg.obs;
  o.audit_journal = cfg.obs;
  o.dir = kDir;
  return o;
}

LoadSpec Bench::LoadSpecFor(uint64_t db_words, bool zipf,
                            double read_only) const {
  LoadSpec s;
  s.num_records = db_words / mmdb::DatabaseParams{}.record_words;
  s.read_only_fraction = read_only;
  s.zipf = zipf ? zipf_.get() : nullptr;
  return s;
}

LifeConfig Bench::ConfigFor(Algorithm a, uint64_t seed) const {
  LifeConfig cfg;
  cfg.algorithm = a;
  cfg.seed = seed;
  cfg.db_words = spec_.db_words;
  cfg.zipf = spec_.zipf;
  cfg.checkpoints = spec_.checkpoints;
  cfg.load_seconds = spec_.load_seconds;
  cfg.settle = spec_.fixture;
  return cfg;
}

Status Bench::Advance(Engine* e, double seconds, LoadTally* t) {
  const bool before = e->CheckpointInProgress();
  const uint64_t completed = e->scheduler().completed();
  int64_t ns = 0;
  Status s = Timed(kAdvance, 0, &ns, [&] { return e->AdvanceTime(seconds); });
  t->engine_ns += ns;
  if (before || e->CheckpointInProgress() ||
      e->scheduler().completed() != completed) {
    t->ckpt_bg_ns += ns;
  } else {
    ++t->advance_calls;
    t->advance_ns += ns;
  }
  return s;
}

Status Bench::RunAttempt(Engine* e, LoadGen* gen, Oracle* oracle,
                         bool after_restart, LoadTally* t) {
  TxnPlan plan = gen->Next();
  ++t->attempts;
  const uint64_t group = (loads_ << 32) | plan.id;
  const size_t rb = e->params().db.record_bytes();
  int64_t ns = plan.host_ns;
  mmdb::Transaction* txn =
      Client(e, kBegin, group, t, &ns, [&] { return e->Begin(); });
  txn->attempt = plan.attempt;
  Status st;
  std::string value;
  for (mmdb::RecordId r : plan.records) {
    st = Client(e, kRead, group, t, &ns,
                [&] { return e->Read(txn, r, &value); });
    if (!st.ok() || plan.read_only) {
      if (!st.ok()) break;
      continue;
    }
    const std::string image = mmdb::MakeRecordImage(rb, r, plan.marker);
    st = Client(e, kWrite, group, t, &ns,
                [&] { return e->Write(txn, r, image); });
    if (!st.ok()) break;
  }
  if (st.ok()) {
    StatusOr<mmdb::Lsn> lsn =
        Client(e, kCommit, group, t, &ns, [&] { return e->Commit(txn); });
    if (!lsn.ok()) return lsn.status();
    ++t->committed;
    t->txn_us.push_back(static_cast<double>(ns) / 1e3);
    if (!plan.read_only) {
      if (after_restart) {
        oracle->CommittedAfterRestart(plan.records, plan.marker);
      } else {
        oracle->Committed(*lsn, plan.records, plan.marker);
      }
    }
    if (t->ns_to_first_commit < 0) {
      t->ns_to_first_commit = t->engine_ns;
      t->pending_at_first_commit = e->pending_recovery_segments();
    }
    ReleaseParked(e, gen);
    return Status::OK();
  }
  if (!st.IsAborted()) {
    Client(e, kAbort, group, t, &ns, [&] {
      e->Abort(txn);
      return 0;
    });
    return st;
  }
  // Read the cause before Abort retires the transaction.
  const bool lock = txn->abort_cause == mmdb::TxnAbortCause::kLockConflict;
  Client(e, kAbort, group, t, &ns, [&] {
    e->Abort(txn, lock ? mmdb::AbortReason::kLockConflict
                       : mmdb::AbortReason::kColorViolation);
    return 0;
  });
  ++t->restarts;
  plan.host_ns = ns;
  if (!lock && e->CheckpointInProgress()) {
    gen->Park(std::move(plan), e->checkpointer().current_id());
  } else {
    gen->Retry(std::move(plan), e->now());
  }
  ReleaseParked(e, gen);
  return Status::OK();
}

Status Bench::RunLoad(Engine* e, LoadGen* gen, double seconds,
                      bool checkpoints, Oracle* oracle, bool after_restart,
                      LoadTally* t) {
  ++loads_;
  const double end = e->now() + seconds;
  const double instr0 = e->meter().Total();
  const uint64_t wal0 = e->log()->NextOffset();
  const uint64_t flushes0 = e->log()->FlushCount();
  while (true) {
    double ckpt_begin = kInf;
    if (checkpoints && !e->CheckpointInProgress()) {
      ckpt_begin = std::max(e->now(), e->scheduler().NextBeginTime());
    }
    const double txn_time = gen->NextDue();
    const double event = std::min(txn_time, ckpt_begin);
    if (event >= end) break;
    if (event > e->now()) {
      MMDB_RETURN_IF_ERROR(Advance(e, event - e->now(), t));
      ReleaseParked(e, gen);
    }
    if (ckpt_begin <= txn_time) {
      int64_t ns = 0;
      Status s =
          Timed(kStartCheckpoint, 0, &ns, [&] { return e->StartCheckpoint(); });
      t->engine_ns += ns;
      t->ckpt_bg_ns += ns;
      MMDB_RETURN_IF_ERROR(s);
      continue;
    }
    MMDB_RETURN_IF_ERROR(RunAttempt(e, gen, oracle, after_restart, t));
  }
  if (end > e->now()) MMDB_RETURN_IF_ERROR(Advance(e, end - e->now(), t));
  t->model_instr += e->meter().Total() - instr0;
  t->wal_bytes += e->log()->NextOffset() - wal0;
  t->wal_flushes += e->log()->FlushCount() - flushes0;
  return Status::OK();
}

bool Bench::SnapshotFiles(CrashImage* image) {
  std::vector<std::string> names;
  if (!Ok(image->mem->ListDir(kDir, &names), "list crash image")) return false;
  image->files.clear();
  for (const std::string& name : names) {
    if (ClassifyPath(name) == PathClass::kBackup) continue;
    std::string data;
    const std::string path = std::string(kDir) + "/" + name;
    if (!Ok(image->mem->ReadFileToString(path, &data), "read crash image")) {
      return false;
    }
    image->files.emplace_back(name, std::move(data));
  }
  return true;
}

bool Bench::RestoreFiles(CrashImage* image) {
  std::vector<std::string> names;
  if (!Ok(image->mem->ListDir(kDir, &names), "list crash image")) return false;
  std::set<std::string> kept;
  for (const auto& [name, data] : image->files) kept.insert(name);
  for (const std::string& name : names) {
    if (ClassifyPath(name) == PathClass::kBackup || kept.contains(name)) {
      continue;
    }
    if (!Ok(image->mem->DeleteFile(std::string(kDir) + "/" + name),
            "restore crash image")) {
      return false;
    }
  }
  for (const auto& [name, data] : image->files) {
    if (!Ok(image->mem->WriteStringToFile(std::string(kDir) + "/" + name, data,
                                          /*sync=*/false),
            "restore crash image")) {
      return false;
    }
  }
  return true;
}

void Bench::Verify(const Engine& e, const Oracle& oracle, const char* what) {
  ++attempted_;
  std::vector<uint64_t> bad;
  const uint64_t n = oracle.Mismatches(e.db(), &bad);
  if (n == 0) return;
  std::string ids;
  for (uint64_t r : bad) ids += " " + std::to_string(r);
  Fail(mmdb::StringPrintf("%s: %llu records differ from the committed durable "
                          "state (first:%s)",
                          what, static_cast<unsigned long long>(n),
                          ids.c_str()));
}

std::unique_ptr<CrashImage> Bench::RunLife(const LifeConfig& cfg, bool traced,
                                           LifeStats* out) {
  out->algorithm = cfg.algorithm;
  auto image = std::make_unique<CrashImage>();
  const int64_t start = NowNs();
  image->mem = mmdb::NewMemEnv();
  image->options = OptionsFor(cfg);
  std::unique_ptr<TimedEnv> timed;
  Env* env = image->mem.get();
  if (traced) {
    timed = std::make_unique<TimedEnv>(env, spans_);
    env = timed.get();
  }
  int64_t ns = 0;
  StatusOr<std::unique_ptr<Engine>> opened = Timed(
      kOpen, 0, &ns, [&] { return Engine::Open(image->options, env); });
  if (!Ok(opened.status(), "Engine::Open")) return nullptr;
  std::unique_ptr<Engine> e = std::move(*opened);
  if (!cfg.checkpoints) {
    // One checkpoint of the empty database, so restarts are warm: they
    // reload a backup copy and replay the load from its begin marker.
    Status s = Timed(kStartCheckpoint, 0, &ns,
                     [&] { return e->RunCheckpointToCompletion(); });
    if (!Ok(s, "initial checkpoint")) return nullptr;
  }
  out->setup_ns = NowNs() - start;
  const Tallies io0 = TalliesOf(timed.get());
  const uint64_t completed0 = e->scheduler().completed();
  const size_t history0 = e->checkpointer().history().size();

  LoadGen gen(LoadSpecFor(cfg.db_words, cfg.zipf, 0.0),
              image->options.params.txn, cfg.seed, e->now());
  out->load.keep_calls = traced;
  Status s = RunLoad(e.get(), &gen, cfg.load_seconds, cfg.checkpoints,
                     &image->oracle, /*after_restart=*/false, &out->load);
  if (!Ok(s, "load")) return nullptr;
  // Let the running checkpoint finish before the crash, so the restart
  // replays one checkpoint's worth of log whatever phase the seed left the
  // schedule in.
  while (e->CheckpointInProgress()) {
    s = Timed(kStartCheckpoint, 0, &ns, [&] { return e->StepCheckpoint(); });
    out->load.ckpt_bg_ns += ns;
    if (!Ok(s, "StepCheckpoint")) return nullptr;
  }
  if (cfg.settle) {
    s = Timed(kFlush, 0, &ns, [&] { return e->FlushLog(); });
    if (!Ok(s, "FlushLog")) return nullptr;
    s = Timed(kAdvance, 0, &ns, [&] { return e->AdvanceTime(1.0); });
    if (!Ok(s, "AdvanceTime")) return nullptr;
  }

  out->ckpt_completed = e->scheduler().completed() - completed0;
  const auto& history = e->checkpointer().history();
  for (size_t i = history0; i < history.size(); ++i) {
    out->ckpt_segments += history[i].segments_flushed;
  }
  out->ckpt_errors = e->checkpointer().aborted_count() +
                     (e->last_checkpoint_error().ok() ? 0 : 1);
  if (out->ckpt_errors > 0) {
    Fail(std::string(e->checkpointer().name()) + ": checkpoint errors: " +
         e->last_checkpoint_error().ToString());
  }
  if (traced) {
    std::string dump = Timed(kDump, 0, &out->dump_ns,
                             [&] { return e->DumpMetricsJson(); });
    if (dump.empty()) Fail("empty metrics dump");
  }
  const mmdb::Lsn durable = e->DurableLsn();
  image->oracle.Crash(durable);
  s = Timed(kCrash, 0, &ns, [&] { return e->Crash(); });
  if (!Ok(s, "Crash")) return nullptr;
  e.reset();
  out->io = TalliesOf(timed.get()) - io0;
  if (!SnapshotFiles(image.get())) return nullptr;
  return image;
}

bool Bench::RestartPair(CrashImage* image, bool traced, RestartStats* out) {
  std::unique_ptr<TimedEnv> timed;
  Env* env = image->mem.get();
  if (traced) {
    timed = std::make_unique<TimedEnv>(env, spans_);
    env = timed.get();
  }
  EngineOptions o = image->options;

  // Blocking: OpenExisting returns once the database is fully recovered.
  o.instant_recovery = false;
  uint64_t group = (1ull << 63) | ++restarts_;
  const int64_t reads0 = timed ? timed->total_read_ns() : 0;
  StatusOr<std::unique_ptr<Engine>> opened = Timed(
      kOpenExisting, group, &out->blocking_ns,
      [&] { return Engine::OpenExisting(o, env); });
  if (!Ok(opened.status(), "blocking restart")) return false;
  out->blocking_read_ns = timed ? timed->total_read_ns() - reads0 : 0;
  out->blocking = (*opened)->last_recovery();
  Verify(**opened, image->oracle, "blocking restart");
  opened->reset();
  if (!RestoreFiles(image)) return false;

  // Instant: serve a probe load while segments recover on demand, then
  // drain.
  o.instant_recovery = true;
  group = (1ull << 63) | ++restarts_;
  opened = Timed(kOpenExisting, group, &out->plan_ns,
                 [&] { return Engine::OpenExisting(o, env); });
  if (!Ok(opened.status(), "instant restart")) return false;
  Engine* e = opened->get();
  out->model_first_s = e->time_to_first_txn();
  LoadGen probe(LoadSpecFor(o.params.db.db_words, spec_.zipf, 0.5),
                o.params.txn, kProbeSeed, e->now());
  out->probe.keep_calls = traced;
  Status s = RunLoad(e, &probe, spec_.probe_seconds, /*checkpoints=*/false,
                     &image->oracle, /*after_restart=*/true, &out->probe);
  if (!Ok(s, "probe load")) return false;
  if (out->probe.ns_to_first_commit < 0) {
    Fail("probe load committed nothing");
    return false;
  }
  s = Timed(kDrain, group, &out->drain_ns, [&] { return e->DrainRecovery(); });
  if (!Ok(s, "DrainRecovery")) return false;
  if (e->recovery_pending()) Fail("segments still pending after the drain");
  ++attempted_;
  if (ModeledDiffers(out->blocking, e->last_recovery())) {
    Fail("drained instant restart's modeled RecoveryStats differ from the "
         "blocking restart's");
  }
  Verify(*e, image->oracle, "instant restart");
  image->oracle.ClearOverlay();
  if (traced) {
    std::string dump =
        Timed(kDump, group, &out->dump_ns, [&] { return e->DumpMetricsJson(); });
    if (dump.empty()) Fail("empty metrics dump");
  }
  opened->reset();
  out->io = TalliesOf(timed.get());
  return RestoreFiles(image);
}

void Bench::AddRound(const std::vector<LifeStats>& lives,
                     const std::vector<RestartStats>& restarts,
                     Rounds* rounds) {
  // The transactions the txn metrics describe: the load, or for the
  // restart workload the probe load served while recovering.
  LoadTally txn;
  auto add_load = [&](Algorithm a, const LoadTally& load) {
    txn.Merge(load);
    std::vector<double> us = load.txn_us;
    rounds->load_txn_us_p50[a].push_back(Percentile(&us, 50.0));
  };
  for (const LifeStats& l : lives) {
    if (!spec_.fixture) add_load(l.algorithm, l.load);
  }
  for (const RestartStats& r : restarts) {
    if (spec_.fixture) add_load(spec_.algorithms[0], r.probe);
  }
  std::map<std::string, double> v;
  double setup_ns = 0, engine_ns = 0, load_instr = 0, load_committed = 0;
  uint64_t completed = 0, segments = 0, errors = 0;
  int64_t ckpt_bg_ns = 0;
  double dump_ns = 0, dumps = 0;
  Tallies io{};
  for (const LifeStats& l : lives) {
    setup_ns += static_cast<double>(l.setup_ns);
    engine_ns += static_cast<double>(l.load.engine_ns);
    load_instr += l.load.model_instr;
    load_committed += static_cast<double>(l.load.committed);
    completed += l.ckpt_completed;
    segments += l.ckpt_segments;
    errors += l.ckpt_errors;
    ckpt_bg_ns += l.load.ckpt_bg_ns;
    io += l.io;
    if (l.dump_ns >= 0) {
      dump_ns += static_cast<double>(l.dump_ns);
      ++dumps;
    }
    if (l.load.committed > 0) {
      rounds->us_per_txn[l.algorithm].push_back(
          static_cast<double>(l.load.engine_ns) / 1e3 /
          static_cast<double>(l.load.committed));
    }
  }
  const double n = static_cast<double>(restarts.size());
  double blocking = 0, blocking_reads = 0, plan = 0, drain = 0,
         to_first = 0, to_drained = 0, model_restart = 0, model_first = 0,
         segments_loaded = 0, updates_applied = 0, pending = 0,
         probe_stalls = 0;
  for (const RestartStats& r : restarts) {
    engine_ns += static_cast<double>(r.blocking_ns + r.plan_ns + r.drain_ns +
                                     r.probe.engine_ns);
    blocking += static_cast<double>(r.blocking_ns);
    blocking_reads += static_cast<double>(r.blocking_read_ns);
    plan += static_cast<double>(r.plan_ns);
    drain += static_cast<double>(r.drain_ns);
    to_first += static_cast<double>(r.plan_ns + r.probe.ns_to_first_commit);
    to_drained +=
        static_cast<double>(r.plan_ns + r.drain_ns + r.probe.engine_ns);
    model_restart += r.blocking.total_seconds;
    model_first += r.model_first_s;
    segments_loaded += static_cast<double>(r.blocking.segments_loaded);
    updates_applied += static_cast<double>(r.blocking.updates_applied);
    pending += static_cast<double>(r.probe.pending_at_first_commit);
    probe_stalls += static_cast<double>(r.probe.stalled_calls);
    io += r.io;
    if (r.dump_ns >= 0) {
      dump_ns += static_cast<double>(r.dump_ns);
      ++dumps;
    }
  }
  auto per = [](double x, double base) { return base > 0 ? x / base : 0.0; };
  const double committed = static_cast<double>(txn.committed);

  // End to end. The transaction percentiles pool the transactions of all
  // rounds, below.
  const double gib =
      static_cast<double>(spec_.db_words) * mmdb::kWordBytes / kGiB;
  if (!lives.empty()) {
    v["setup_s"] = setup_ns / 1e9;
    v["model_instr_per_txn"] = per(load_instr, load_committed);
  }
  v["txn_per_s"] = per(committed, static_cast<double>(txn.engine_ns) / 1e9);
  v["restart_s_per_gib"] = per(blocking / 1e9, n) / gib;
  v["first_txn_ms"] = per(to_first / 1e6, n);
  v["drain_s_per_gib"] = per(to_drained / 1e9, n) / gib;
  v["model_restart_s"] = per(model_restart, n);
  v["model_first_txn_s"] = per(model_first, n);

  // Per layer.
  v["txn.attempts"] = static_cast<double>(txn.attempts);
  v["txn.restart_frac"] = per(static_cast<double>(txn.restarts),
                              static_cast<double>(txn.attempts));
  v["txn.stalled_calls"] = static_cast<double>(txn.stalled_calls);
  v["txn.stalled_call_ms"] = static_cast<double>(txn.stalled_ns) / 1e6;
  v["txn.model_stall_s"] = txn.model_stall_s;
  v["core.advance_calls"] = static_cast<double>(txn.advance_calls);
  v["core.advance_ms"] = static_cast<double>(txn.advance_ns) / 1e6;
  v["wal.bytes_per_txn"] = per(static_cast<double>(txn.wal_bytes), committed);
  v["wal.flushes"] = static_cast<double>(txn.wal_flushes);
  v["wal.append_ms"] =
      static_cast<double>(Of(io, PathClass::kWal).write_ns) / 1e6;
  v["ckpt.completed"] = static_cast<double>(completed);
  v["ckpt.segments_per_ckpt"] =
      per(static_cast<double>(segments), static_cast<double>(completed));
  v["ckpt.bg_ms_per_ckpt"] = per(static_cast<double>(ckpt_bg_ns) / 1e6,
                                 static_cast<double>(completed));
  v["ckpt.errors"] = static_cast<double>(errors);
  const IoTally& backup = Of(io, PathClass::kBackup);
  v["backup.write_ops"] = static_cast<double>(backup.write_ops);
  v["backup.write_mib"] = static_cast<double>(backup.write_bytes) / kMiB;
  v["backup.write_ms"] = static_cast<double>(backup.write_ns) / 1e6;
  v["backup.read_ops"] = static_cast<double>(backup.read_ops);
  v["backup.read_mib"] = static_cast<double>(backup.read_bytes) / kMiB;
  v["backup.read_ms"] = static_cast<double>(backup.read_ns) / 1e6;
  v["recovery.blocking_ms"] = per(blocking / 1e6, n);
  v["recovery.other_ms"] = per((blocking - blocking_reads) / 1e6, n);
  v["recovery.segments_loaded"] = per(segments_loaded, n);
  v["recovery.updates_applied"] = per(updates_applied, n);
  v["recovery.plan_ms"] = per(plan / 1e6, n);
  v["recovery.drain_ms"] = per(drain / 1e6, n);
  v["recovery.stalled_calls"] = per(probe_stalls, n);
  v["recovery.pending_at_first_txn"] = per(pending, n);
  const IoTally& audit = Of(io, PathClass::kAudit);
  v["obs.audit_mib"] =
      static_cast<double>(audit.read_bytes + audit.write_bytes) / kMiB;
  v["obs.audit_ms"] =
      static_cast<double>(audit.read_ns + audit.write_ns + audit.other_ns) /
      1e6;
  v["obs.dump_ms"] = per(dump_ns / 1e6, dumps);

  for (const auto& [name, value] : v) rounds->values[name].push_back(value);
  rounds->txn_us.insert(rounds->txn_us.end(), txn.txn_us.begin(),
                        txn.txn_us.end());
  for (size_t c = 0; c < kNumTxnCalls; ++c) {
    rounds->call_ns[c].insert(rounds->call_ns[c].end(), txn.call_ns[c].begin(),
                              txn.call_ns[c].end());
  }
  rounds->engine_ns.push_back(engine_ns);
  ++rounds->count;
}

bool Bench::RunRound(bool traced, uint64_t seed, Rounds* rounds) {
  cpus_.Next();
  std::vector<LifeStats> lives;
  std::vector<RestartStats> restarts;
  if (spec_.fixture) {
    restarts.emplace_back();
    if (!RestartPair(image_.get(), traced, &restarts.back())) return false;
  } else {
    for (Algorithm a : spec_.algorithms) {
      lives.emplace_back();
      std::unique_ptr<CrashImage> image =
          RunLife(ConfigFor(a, seed), traced, &lives.back());
      if (image == nullptr) return false;
      restarts.emplace_back();
      if (!RestartPair(image.get(), traced, &restarts.back())) return false;
      image_ = std::move(image);
    }
  }
  AddRound(lives, restarts, rounds);
  return true;
}

double Bench::ObsOverheadFrac() {
  // The oltp load with the observability sinks on (the defaults) and off,
  // alternating; the share of throughput the sinks cost.
  std::vector<double> on, off;
  for (int i = 0; i < 6; ++i) {
    const WorkloadSpec& oltp = Specs()[0];
    LifeConfig cfg;
    cfg.seed = opt_.seed;
    cfg.db_words = oltp.db_words;
    cfg.load_seconds = oltp.load_seconds;
    cfg.obs = i % 2 == 0;
    LifeStats life;
    if (RunLife(cfg, /*traced=*/false, &life) == nullptr) return 0.0;
    (cfg.obs ? on : off)
        .push_back(static_cast<double>(life.load.committed) /
                   (static_cast<double>(life.load.engine_ns) / 1e9));
  }
  return 1.0 - Median(on) / Median(off);
}

double Bench::CheckpointOffUsPerTxn() {
  std::vector<double> us;
  for (int i = 0; i < 2; ++i) {
    LifeConfig cfg = ConfigFor(Algorithm::kFuzzyCopy, opt_.seed);
    cfg.checkpoints = false;
    LifeStats life;
    if (RunLife(cfg, /*traced=*/false, &life) == nullptr) return 0.0;
    us.push_back(static_cast<double>(life.load.engine_ns) / 1e3 /
                 static_cast<double>(std::max<uint64_t>(1, life.load.committed)));
  }
  return Median(us);
}

void Bench::StandaloneProbes(std::map<std::string, double>* out,
                             std::map<std::string, size_t>* samples) {
  const EngineOptions& o = image_->options;
  const mmdb::DatabaseParams& db = o.params.db;
  Env* env = image_->mem.get();
  constexpr int kBatches = 7;

  // Frame encode of the workload's update record.
  {
    mmdb::LogRecord rec = mmdb::LogRecord::Update(
        7, 12345, mmdb::MakeRecordImage(db.record_bytes(), 12345, 1));
    rec.lsn = 99;
    std::vector<double> ns;
    std::string frame;
    constexpr int kIters = 20000;
    for (int b = 0; b < kBatches; ++b) {
      ScopedSpan span(spans_, "wal.encode_frame");
      const int64_t start = NowNs();
      for (int i = 0; i < kIters; ++i) {
        frame.clear();
        mmdb::EncodeLogFrame(rec, &frame);
      }
      ns.push_back(static_cast<double>(NowNs() - start) / kIters);
      if (frame.size() < db.record_bytes()) Fail("short encoded frame");
    }
    (*out)["wal.frame_encode_ns"] = Median(ns);
    (*samples)["wal.frame_encode_ns"] = ns.size();
  }
  // CRC32C over a segment-sized buffer.
  {
    std::string buf(db.segment_bytes(), '\0');
    mmdb::Random fill(opt_.seed);
    for (char& c : buf) c = static_cast<char>(fill.Next());
    const int iters =
        static_cast<int>(std::max<uint64_t>(1, (64ull << 20) / buf.size()));
    std::vector<double> gbps;
    uint32_t sink = 0;
    for (int b = 0; b < kBatches; ++b) {
      ScopedSpan span(spans_, "util.crc32c");
      const int64_t start = NowNs();
      for (int i = 0; i < iters; ++i) {
        sink ^= mmdb::crc32c::Value(buf.data(), buf.size());
        buf[0] = static_cast<char>(sink);
      }
      gbps.push_back(static_cast<double>(buf.size()) * iters /
                     static_cast<double>(NowNs() - start));
    }
    (*out)["util.crc32c_gbps"] = Median(gbps);
    (*samples)["util.crc32c_gbps"] = gbps.size();
  }
  // Log scan of the crash image's log.
  {
    std::vector<double> ms;
    size_t frames = 0;
    for (int b = 0; b < 5; ++b) {
      ScopedSpan span(spans_, "wal.log_reader_open");
      const int64_t start = NowNs();
      StatusOr<mmdb::LogReader> reader =
          mmdb::LogReader::Open(env, std::string(kDir) + "/wal.log");
      ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      ++attempted_;
      if (!Ok(reader.status(), "LogReader::Open")) return;
      frames = reader->num_frames();
    }
    (*out)["wal.scan_ms"] = Median(ms);
    (*out)["wal.scan_ns_per_frame"] =
        Median(ms) * 1e6 / static_cast<double>(std::max<size_t>(1, frames));
    (*samples)["wal.scan_ms"] = (*samples)["wal.scan_ns_per_frame"] = ms.size();
  }
  // Read and CRC-verify every segment of the restore copy.
  {
    mmdb::DiskArrayModel disks(o.params.disk);
    mmdb::BackupStore store(env, kDir, o.params, &disks);
    ++attempted_;
    if (!Ok(store.Open(), "BackupStore::Open")) return;
    StatusOr<mmdb::CheckpointMeta> meta = store.ReadMeta();
    ++attempted_;
    if (!Ok(meta.status(), "BackupStore::ReadMeta")) return;
    std::vector<double> us;
    us.reserve(db.num_segments());
    std::string segment;
    ScopedSpan span(spans_, "backup.read_segment");
    for (mmdb::SegmentId s = 0; s < db.num_segments(); ++s) {
      const int64_t start = NowNs();
      Status st = store.ReadSegment(meta->copy, s, &segment);
      us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      ++attempted_;
      if (!Ok(st, "BackupStore::ReadSegment")) return;
    }
    (*out)["backup.read_segment_us_p50"] = Median(us);
    (*samples)["backup.read_segment_us_p50"] = us.size();
  }
}

RunResult Bench::Run() {
  if (spec_.zipf) {
    zipf_ = std::make_unique<mmdb::ZipfGenerator>(
        spec_.db_words / mmdb::DatabaseParams{}.record_words, 0.99);
  }
  std::map<std::string, double> values;
  std::map<std::string, size_t> samples;
  std::vector<double> setup_s;
  // The modeled guards of an untraced run, from loads drawn from kGuardSeed.
  Rounds guard;
  if (spec_.fixture) {
    for (int i = 0; i < kSetupBuilds; ++i) {
      image_.reset();  // one fixture in memory at a time
      cpus_.Next();
      const int64_t start = NowNs();
      std::vector<LifeStats> lives(1);
      image_ = RunLife(
          ConfigFor(spec_.algorithms[0], i == 0 ? kGuardSeed : opt_.seed),
          /*traced=*/false, &lives[0]);
      if (image_ == nullptr) return Finish(values, samples);
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      if (i == 0 && !opt_.trace) {
        std::vector<RestartStats> restarts(1);
        if (!RestartPair(image_.get(), /*traced=*/false, &restarts[0])) {
          return Finish(values, samples);
        }
        AddRound(lives, restarts, &guard);
      }
    }
  } else if (!opt_.trace) {
    if (!RunRound(false, kGuardSeed, &guard)) return Finish(values, samples);
  }

  const int64_t start = NowNs();
  const double budget_ns = opt_.seconds * 1e9;
  auto time_left = [&](double share) {
    return static_cast<double>(NowNs() - start) < share * budget_ns;
  };
  // Every metric has one value per round. All rounds replay the same
  // inputs, so modeled values and counts must repeat exactly; host times
  // report the median round.
  auto summarize = [&](const Rounds& r, const std::set<std::string>& exact) {
    for (const auto& [name, vals] : r.values) {
      if (exact.contains(name)) {
        for (double x : vals) {
          if (x != vals.front()) {
            Fail(mmdb::StringPrintf("%s differs between identical rounds "
                                    "(%.17g vs %.17g)",
                                    name.c_str(), x, vals.front()));
            break;
          }
        }
        values[name] = vals.front();
      } else {
        values[name] = Median(vals);
      }
      samples[name] = vals.size();
    }
  };

  if (!opt_.trace) {
    Rounds rounds;
    for (size_t i = 0; i == 0 || time_left(1.0); ++i) {
      if (!RunRound(false, opt_.seed, &rounds)) return Finish(values, samples);
    }
    // The seeded rounds must repeat their own modeled values; the reported
    // guards are the fixed-seed pass's.
    const std::set<std::string> guards = {
        "model_instr_per_txn", "model_restart_s", "model_first_txn_s"};
    summarize(rounds, guards);
    for (const std::string& name : guards) {
      values[name] = guard.values[name].front();
      samples[name] = 1;
    }
    if (!spec_.fixture) setup_s = rounds.values["setup_s"];
    values["setup_s"] = Median(setup_s);
    samples["setup_s"] = setup_s.size();
    // Other tenants slow every load running during an episode of a few
    // seconds by up to half, and how many of a run's loads such episodes
    // hit varies from run to run. So the p50 is each algorithm's quietest
    // load (its lowest median), averaged over the algorithms.
    double fastest = 0.0;
    samples["txn_us_p50"] = 0;
    for (const auto& [algorithm, p50s] : rounds.load_txn_us_p50) {
      fastest += *std::min_element(p50s.begin(), p50s.end());
      samples["txn_us_p50"] += p50s.size();
    }
    values["txn_us_p50"] =
        fastest / static_cast<double>(rounds.load_txn_us_p50.size());
    values["txn_us_p99"] = Percentile(&rounds.txn_us, 99.0);
    samples["txn_us_p99"] = rounds.txn_us.size();
    if (!PercentileSupported(rounds.txn_us.size(), 99.0)) {
      std::fprintf(stderr, "warning: fewer than ten transactions beyond "
                   "txn_us_p99\n");
    }
  } else {
    Rounds baseline;
    for (size_t i = 0; i == 0 || time_left(kBaselineShare); ++i) {
      if (!RunRound(false, opt_.seed, &baseline)) {
        return Finish(values, samples);
      }
    }
    values["obs.overhead_frac"] = ObsOverheadFrac();
    samples["obs.overhead_frac"] = 6;
    for (Algorithm a : mmdb::kAllAlgorithms) {
      const std::string name =
          "ckpt." + std::string(mmdb::AlgorithmName(a)) + ".us_per_txn";
      const bool measured = spec_.checkpoints && baseline.us_per_txn.contains(a);
      values[name] = measured ? Median(baseline.us_per_txn[a]) : 0.0;
      samples[name] = measured ? baseline.us_per_txn[a].size() : 0;
    }
    values["ckpt.off_us_per_txn"] =
        spec_.checkpoints ? CheckpointOffUsPerTxn() : 0.0;
    samples["ckpt.off_us_per_txn"] = spec_.checkpoints ? 2 : 0;

    recorder_ = std::make_unique<SpanRecorder>();
    spans_ = recorder_.get();
    Rounds traced;
    for (size_t i = 0; i == 0 || time_left(1.0); ++i) {
      if (!RunRound(true, opt_.seed, &traced)) return Finish(values, samples);
    }
    // Coverage: the self times of all spans (engine calls and the Env calls
    // nested in them) against the engine calls' total time as Timed summed
    // it. An engine-call span shares Timed's clock reads, so the two agree
    // exactly unless a span ran outside every engine call or an engine call
    // had no span.
    const double coverage = static_cast<double>(recorder_->self_ns()) /
                            static_cast<double>(traced_call_ns_);
    values["trace.coverage"] = coverage;
    samples["trace.coverage"] = recorder_->spans();
    ++attempted_;
    if (recorder_->depth() != 0 || traced_call_ns_ <= 0 ||
        recorder_->self_ns() != traced_call_ns_) {
      Fail(mmdb::StringPrintf("span self times cover %.12f of the time in "
                              "engine calls",
                              coverage));
    }
    StandaloneProbes(&values, &samples);
    spans_ = nullptr;
    if (failed_ > 0) return Finish(values, samples);
    summarize(traced,
              {"txn.attempts", "txn.restart_frac", "txn.stalled_calls",
               "txn.model_stall_s", "core.advance_calls", "wal.bytes_per_txn",
               "wal.flushes", "ckpt.completed", "ckpt.segments_per_ckpt",
               "ckpt.errors", "backup.write_ops", "backup.write_mib",
               "backup.read_ops", "backup.read_mib",
               "recovery.segments_loaded", "recovery.updates_applied",
               "recovery.stalled_calls", "recovery.pending_at_first_txn"});
    static constexpr const char* kCallMetric[kNumTxnCalls] = {
        "txn.begin_ns", "txn.read_ns", "txn.write_ns", "txn.commit_ns", ""};
    for (size_t c = 0; c < kAbort; ++c) {
      std::vector<uint32_t> ns = traced.call_ns[c];
      const std::string base = kCallMetric[c];
      values[base + "_p50"] = Percentile(&ns, 50.0);
      samples[base + "_p50"] = ns.size();
      if (c == kWrite || c == kCommit) {
        values[base + "_p99"] = Percentile(&ns, 99.0);
        samples[base + "_p99"] = ns.size();
      }
    }
    values["trace.overhead_frac"] =
        Median(traced.engine_ns) / Median(baseline.engine_ns) - 1.0;
    samples["trace.overhead_frac"] = traced.count;
    std::fprintf(stderr, "layer self time (traced run):\n");
    std::vector<std::pair<std::string_view, SpanRecorder::Layer>> layers(
        recorder_->layers().begin(), recorder_->layers().end());
    std::sort(layers.begin(), layers.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
    for (const auto& [name, layer] : layers) {
      std::fprintf(stderr, "  %-24.*s %10llu spans %12.3f ms self %12.3f ms\n",
                   static_cast<int>(name.size()), name.data(),
                   static_cast<unsigned long long>(layer.count),
                   static_cast<double>(layer.self_ns) / 1e6,
                   static_cast<double>(layer.total_ns) / 1e6);
    }
    if (!opt_.trace_out.empty()) {
      if (!recorder_->WriteChromeTrace(opt_.trace_out)) {
        Fail("cannot write " + opt_.trace_out);
      } else if (recorder_->dropped() > 0) {
        std::fprintf(stderr,
                     "note: %s keeps the first %zu of %llu spans; self times "
                     "above cover them all\n",
                     opt_.trace_out.c_str(), recorder_->kept(),
                     static_cast<unsigned long long>(recorder_->spans()));
      }
    }
  }
  if (!opt_.trace) {
    values["rss_mib"] = PeakRssMiB();
    samples["rss_mib"] = 1;
  }
  return Finish(values, samples);
}

// Metric names and units, in report order. BENCHMARK.json lists the same.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"txn_per_s", "1/s"},
    {"txn_us_p50", "us"},
    {"txn_us_p99", "us"},
    {"restart_s_per_gib", "s/GiB"},
    {"first_txn_ms", "ms"},
    {"drain_s_per_gib", "s/GiB"},
    {"model_instr_per_txn", "instr"},
    {"model_restart_s", "virtual_s"},
    {"model_first_txn_s", "virtual_s"},
    {"rss_mib", "MiB"},
};
constexpr MetricDef kPerLayer[] = {
    {"txn.begin_ns_p50", "ns"},
    {"txn.read_ns_p50", "ns"},
    {"txn.write_ns_p50", "ns"},
    {"txn.write_ns_p99", "ns"},
    {"txn.commit_ns_p50", "ns"},
    {"txn.commit_ns_p99", "ns"},
    {"txn.attempts", "count"},
    {"txn.restart_frac", "frac"},
    {"txn.stalled_calls", "count"},
    {"txn.stalled_call_ms", "ms"},
    {"txn.model_stall_s", "s"},
    {"core.advance_calls", "count"},
    {"core.advance_ms", "ms"},
    {"wal.bytes_per_txn", "B"},
    {"wal.flushes", "count"},
    {"wal.append_ms", "ms"},
    {"wal.frame_encode_ns", "ns"},
    {"wal.scan_ms", "ms"},
    {"wal.scan_ns_per_frame", "ns"},
    {"ckpt.completed", "count"},
    {"ckpt.segments_per_ckpt", "count"},
    {"ckpt.bg_ms_per_ckpt", "ms"},
    {"ckpt.errors", "count"},
    {"ckpt.FUZZYCOPY.us_per_txn", "us"},
    {"ckpt.FASTFUZZY.us_per_txn", "us"},
    {"ckpt.2CFLUSH.us_per_txn", "us"},
    {"ckpt.2CCOPY.us_per_txn", "us"},
    {"ckpt.COUFLUSH.us_per_txn", "us"},
    {"ckpt.COUCOPY.us_per_txn", "us"},
    {"ckpt.ZIGZAG.us_per_txn", "us"},
    {"ckpt.PINGPONG.us_per_txn", "us"},
    {"ckpt.HOURGLASS.us_per_txn", "us"},
    {"ckpt.off_us_per_txn", "us"},
    {"backup.write_ops", "count"},
    {"backup.write_mib", "MiB"},
    {"backup.write_ms", "ms"},
    {"backup.read_ops", "count"},
    {"backup.read_mib", "MiB"},
    {"backup.read_ms", "ms"},
    {"backup.read_segment_us_p50", "us"},
    {"util.crc32c_gbps", "GB/s"},
    {"recovery.blocking_ms", "ms"},
    {"recovery.other_ms", "ms"},
    {"recovery.segments_loaded", "count"},
    {"recovery.updates_applied", "count"},
    {"recovery.plan_ms", "ms"},
    {"recovery.drain_ms", "ms"},
    {"recovery.stalled_calls", "count"},
    {"recovery.pending_at_first_txn", "count"},
    {"obs.audit_mib", "MiB"},
    {"obs.audit_ms", "ms"},
    {"obs.dump_ms", "ms"},
    {"obs.overhead_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.coverage", "frac"},
    {"op_fail_frac", "frac"},
};

RunResult Bench::Finish(const std::map<std::string, double>& values,
                        const std::map<std::string, size_t>& samples) {
  RunResult result;
  if (failed_ == 0) {
    std::map<std::string, double> v = values;
    v["op_fail_frac"] = 0.0;
    std::map<std::string, size_t> n = samples;
    n["op_fail_frac"] = attempted_;
    auto emit = [&](const MetricDef& def) {
      auto it = v.find(def.name);
      if (it == v.end()) {
        Fail(std::string("metric not measured: ") + def.name);
        return;
      }
      result.metrics.push_back(Metric{def.name, it->second, def.unit,
                                      n.contains(def.name) ? n[def.name] : 0});
    };
    if (opt_.trace) {
      for (const MetricDef& def : kPerLayer) emit(def);
    } else {
      for (const MetricDef& def : kEndToEnd) emit(def);
    }
  }
  result.attempted = std::max<uint64_t>(1, attempted_);
  result.failed = failed_;
  result.correct = failed_ == 0;
  result.failures = failures_;
  if (!result.correct) result.metrics.clear();
  return result;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return true;
  }
  return false;
}

RunResult RunWorkload(const RunOptions& options) {
  for (const WorkloadSpec& s : Specs()) {
    if (options.workload == s.name) return Bench(options, s).Run();
  }
  RunResult result;
  result.correct = false;
  result.attempted = 1;
  result.failed = 1;
  result.failures.push_back("unknown workload " + options.workload);
  return result;
}

}  // namespace hostbench

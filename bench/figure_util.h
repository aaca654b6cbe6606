#ifndef MMDB_BENCH_FIGURE_UTIL_H_
#define MMDB_BENCH_FIGURE_UTIL_H_

// Shared helpers for the figure-regeneration benches: each bench prints the
// paper's series twice — from the reconstructed analytic model at the
// paper's full 256 Mword scale, and measured from the executable engine at
// a scaled-down database (the shapes must agree; see EXPERIMENTS.md).
//
// The measured series run through SweepRunner: every point is an
// independent deterministic engine in its own MemEnv, so the sweep fans
// out across a ThreadPool (--jobs=N / MMDB_BENCH_JOBS; 1 = the old serial
// loop) while results, stdout rows, and sidecar entries are merged in
// declared point order — the tables are byte-identical at any width.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "model/analytic_model.h"
#include "model/model_oracle.h"
#include "obs/sidecar.h"
#include "parallel/parallel.h"
#include "util/string_util.h"

namespace mmdb {
namespace bench {

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s - %s\n", figure, what);
  std::printf("================================================================\n");
}

inline void PrintParams(const SystemParams& p) {
  std::printf("params: %s\n", p.ToString().c_str());
}

// Engine-scale defaults for measured series: 1 Mword database (128
// segments of 8192 words, as in the paper's geometry, just fewer of them).
inline EngineOptions MeasuredOptions(Algorithm a, CheckpointMode mode,
                                     bool stable_tail) {
  EngineOptions opt;
  opt.params.db.db_words = 1ull << 20;  // 128 segments of 8192 words
  opt.algorithm = a;
  opt.checkpoint_mode = mode;
  opt.stable_log_tail = stable_tail;
  return opt;
}

struct MeasuredPoint {
  WorkloadResult workload;
  RecoveryStats recovery;
  // Full Engine::DumpMetricsJson() snapshot taken after recovery (registry
  // counters/timers, trace ring, checkpoint history), for the sidecar.
  std::string metrics_json;
  // Model-oracle comparison: the analytic model evaluated at the *same*
  // SystemParams as this engine, against the measured headline numbers.
  // has_validation is false only if the model rejected the inputs.
  ModelValidation validation;
  bool has_validation = false;
};

// The analytic model's inputs for the configuration an engine measured,
// so every measured point can be checked against the paper's formulas.
inline ModelInputs ModelInputsFromOptions(const EngineOptions& options) {
  ModelInputs in;
  in.params = options.params;
  in.algorithm = options.algorithm;
  in.mode = options.checkpoint_mode;
  in.checkpoint_interval = options.checkpoint_interval;
  in.stable_log_tail = options.stable_log_tail;
  return in;
}

// Runs `seconds` of the paper's workload against a fresh engine, then
// crashes and recovers to measure recovery time. Also evaluates the
// analytic model as an oracle for the same parameters (the sidecar's
// predicted/measured/residual block).
inline StatusOr<MeasuredPoint> MeasureEngine(const EngineOptions& options,
                                             double seconds,
                                             uint64_t seed = 42) {
  std::unique_ptr<Env> env = NewMemEnv();
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::Open(options, env.get()));
  WorkloadOptions wopt;
  wopt.duration = seconds;
  wopt.seed = seed;
  WorkloadDriver driver(engine.get(), wopt);
  MeasuredPoint point;
  MMDB_ASSIGN_OR_RETURN(point.workload, driver.Run());
  MMDB_RETURN_IF_ERROR(engine->Crash());
  MMDB_ASSIGN_OR_RETURN(point.recovery, engine->Recover());
  point.metrics_json = engine->DumpMetricsJson();
  MeasuredMetrics measured;
  measured.overhead_per_txn = point.workload.overhead_per_txn;
  measured.sync_per_txn = point.workload.sync_per_txn;
  measured.async_per_txn = point.workload.async_per_txn;
  measured.recovery_seconds = point.recovery.total_seconds;
  StatusOr<ModelValidation> validation =
      CompareToModel(ModelInputsFromOptions(options), measured);
  if (validation.ok()) {
    point.validation = *validation;
    point.has_validation = true;
  }
  return point;
}

// Sweep width for this bench process: --jobs=N beats MMDB_BENCH_JOBS beats
// min(points, hardware_concurrency). 1 selects the serial path (no worker
// threads at all). A width that is not a whole number >= 1 prints a
// one-line error naming the flag or variable and exits 2.
inline std::size_t ParseJobs(int argc, char** argv) {
  const char* source = nullptr;
  const char* text = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      source = "--jobs";
      text = argv[i] + 7;
    }
  }
  const char* env_jobs = std::getenv("MMDB_BENCH_JOBS");
  if (text == nullptr && env_jobs != nullptr && *env_jobs != '\0') {
    source = "MMDB_BENCH_JOBS";
    text = env_jobs;
  }
  if (text == nullptr) return DefaultSweepWidth(~std::size_t{0});
  uint64_t jobs = 0;
  if (!ParseNumber(text, &jobs) || jobs < 1) {
    std::fprintf(stderr, "%s: %s=%s is not a whole number >= 1\n", argv[0],
                 source, text);
    std::exit(2);
  }
  return static_cast<std::size_t>(jobs);
}

// One declarative sweep point: a sidecar label plus the closure producing
// its measurement. The closure must be self-contained (it builds its own
// MemEnv + Engine) — workers share nothing but the pool queue.
struct SweepPoint {
  std::string label;
  std::function<StatusOr<MeasuredPoint>()> work;
};

// Executes the declared points across `jobs` workers and merges the ok
// results into `sidecar` in declared order. Results come back indexed like
// `points`; the caller formats its table rows from them (printing ERR for
// failed cells) and must exit nonzero if AnyFailed().
class SweepRunner {
 public:
  explicit SweepRunner(std::size_t jobs) : jobs_(jobs) {}

  std::vector<StatusOr<MeasuredPoint>> Run(
      const std::vector<SweepPoint>& points, MetricsSidecar* sidecar) {
    std::vector<std::function<StatusOr<MeasuredPoint>()>> tasks;
    tasks.reserve(points.size());
    for (const SweepPoint& p : points) tasks.push_back(p.work);
    std::vector<StatusOr<MeasuredPoint>> results =
        RunSweep<MeasuredPoint>(PoolFor(points.size()), tasks);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        // The Status message goes to the sidecar too, so ERR cells stay
        // diagnosable from the artifact alone.
        NoteFailure(points[i].label.c_str(), results[i].status(), sidecar);
        continue;
      }
      std::string validation_json;
      if (results[i]->has_validation) {
        summary_.Add(results[i]->validation);
        validation_json = results[i]->validation.ToJsonString();
      }
      if (sidecar != nullptr) {
        sidecar->Add(points[i].label, std::move(results[i]->metrics_json),
                     std::move(validation_json));
      }
    }
    return results;
  }

  std::size_t jobs() const { return jobs_; }
  bool AnyFailed() const { return any_failed_; }

  // Model-oracle residuals accumulated across every Run() so far.
  const ResidualSummary& validation_summary() const { return summary_; }

  // Writes the accumulated residual summary into the sidecar's
  // "validation_summary" member. Call once, after the measured series and
  // before MetricsSidecar::Write.
  void ReportValidation(MetricsSidecar* sidecar) const {
    if (sidecar == nullptr || summary_.points() == 0) return;
    sidecar->SetValidationSummary(summary_.ToJsonString());
  }

  // For sweeps a bench runs through RunSweep() directly (custom result
  // types): fold their failures into this runner's exit status, and record
  // the failure in the sidecar when one is in use.
  void NoteFailure(const char* what, const Status& status,
                   MetricsSidecar* sidecar = nullptr) {
    any_failed_ = true;
    std::string message = status.ToString();
    std::fprintf(stderr, "sweep point %s failed: %s\n", what,
                 message.c_str());
    if (sidecar != nullptr) sidecar->AddError(what, std::move(message));
  }

 private:
  // Lazily builds — then reuses — one pool for every Run() this runner
  // serves, instead of spinning threads up and down per sweep. Serial
  // (jobs <= 1) and single-point sweeps get nullptr: the inline path.
  ThreadPool* PoolFor(std::size_t num_points) {
    if (jobs_ <= 1 || num_points <= 1) return nullptr;
    std::size_t want = std::min(jobs_, num_points);
    if (pool_ == nullptr || pool_->num_threads() < want) {
      pool_ = std::make_unique<ThreadPool>(want);
    }
    return pool_.get();
  }

  std::size_t jobs_;
  std::unique_ptr<ThreadPool> pool_;
  bool any_failed_ = false;
  ResidualSummary summary_;
};

// Wall-clock scope for a whole bench run; reports on stderr (stdout tables
// must stay byte-identical across --jobs widths) and into the sidecar.
class BenchWallClock {
 public:
  BenchWallClock() : start_(std::chrono::steady_clock::now()) {}

  double ElapsedSeconds() const {
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start_;
    return d.count();
  }

  // Prints "<bench>: wall_seconds=W jobs=N" and records both in `sidecar`.
  void Report(const char* bench, std::size_t jobs,
              MetricsSidecar* sidecar) const {
    double wall = ElapsedSeconds();
    std::fprintf(stderr, "%s: wall_seconds=%.3f jobs=%zu\n", bench, wall,
                 jobs);
    if (sidecar != nullptr) sidecar->SetHost(jobs, wall);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline ModelOutputs Evaluate(const ModelInputs& in) {
  AnalyticModel model(in);
  auto out = model.Evaluate();
  if (!out.ok()) {
    std::fprintf(stderr, "model error: %s\n",
                 out.status().ToString().c_str());
    return ModelOutputs{};
  }
  return *out;
}

// The paper's five headline algorithms, derived from the canonical list so
// the filter (not a hand-kept copy) defines membership: everything except
// FASTFUZZY (needs a stable tail; fig4b covers it separately) and the
// modern snapshot algorithms (post-paper; fig_modern covers them). Order
// follows kAllAlgorithms, which keeps the fig4 axis order stable.
inline const std::vector<Algorithm>& MainAlgorithms() {
  static const std::vector<Algorithm> kAlgorithms = [] {
    std::vector<Algorithm> out;
    for (Algorithm a : kAllAlgorithms) {
      if (a == Algorithm::kFastFuzzy || a == Algorithm::kZigzag ||
          a == Algorithm::kPingPong || a == Algorithm::kHourglass) {
        continue;
      }
      out.push_back(a);
    }
    return out;
  }();
  return kAlgorithms;
}

}  // namespace bench
}  // namespace mmdb

#endif  // MMDB_BENCH_FIGURE_UTIL_H_

#ifndef MMDB_BENCH_FIGURE_UTIL_H_
#define MMDB_BENCH_FIGURE_UTIL_H_

// Shared helpers for the figure-regeneration benches: each bench prints the
// paper's series twice — from the reconstructed analytic model at the
// paper's full 256 Mword scale, and measured from the executable engine at
// a scaled-down database (the shapes must agree; see EXPERIMENTS.md).
//
// The measured series run one point after another on the calling thread:
// each point is an independent deterministic engine in its own MemEnv, and
// SweepRunner merges each result into the sidecar as it arrives, so
// sidecar entries follow the declared point order and each point's host
// time is a single-thread measurement.

#include <chrono>
#include <cstdio>
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

// Merges a bench's measured points, in the order the bench measures them,
// into its sidecar and the model-validation summary, and remembers whether
// any point failed: the bench prints ERR for a failed point's cells and
// must exit nonzero if AnyFailed().
class SweepRunner {
 public:
  // Records one point's result under `label` and hands it back for the
  // bench's table row. The engine dump moves into `sidecar`; a failure is
  // recorded there with its Status message, so ERR cells stay diagnosable
  // from the artifact alone.
  StatusOr<MeasuredPoint> Add(std::string label,
                              StatusOr<MeasuredPoint> result,
                              MetricsSidecar* sidecar) {
    if (!result.ok()) {
      NoteFailure(label.c_str(), result.status(), sidecar);
      return result;
    }
    std::string validation_json;
    if (result->has_validation) {
      summary_.Add(result->validation);
      validation_json = result->validation.ToJsonString();
    }
    if (sidecar != nullptr) {
      sidecar->Add(std::move(label), std::move(result->metrics_json),
                   std::move(validation_json));
    }
    return result;
  }

  bool AnyFailed() const { return any_failed_; }

  // Writes the accumulated residual summary into the sidecar's
  // "validation_summary" member. Call once, after the measured series and
  // before MetricsSidecar::Write.
  void ReportValidation(MetricsSidecar* sidecar) const {
    if (sidecar == nullptr || summary_.points() == 0) return;
    sidecar->SetValidationSummary(summary_.ToJsonString());
  }

  // For points a bench measures into its own result type: fold their
  // failures into this runner's exit status, and record the failure in
  // the sidecar when one is in use.
  void NoteFailure(const char* what, const Status& status,
                   MetricsSidecar* sidecar = nullptr) {
    any_failed_ = true;
    std::string message = status.ToString();
    std::fprintf(stderr, "sweep point %s failed: %s\n", what,
                 message.c_str());
    if (sidecar != nullptr) sidecar->AddError(what, std::move(message));
  }

 private:
  bool any_failed_ = false;
  ResidualSummary summary_;
};

// Wall-clock scope for a whole bench run; reports on stderr (stdout tables
// must stay byte-identical from run to run) and into the sidecar.
class BenchWallClock {
 public:
  BenchWallClock() : start_(std::chrono::steady_clock::now()) {}

  double ElapsedSeconds() const {
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start_;
    return d.count();
  }

  // Prints "<bench>: wall_seconds=W" and records W in `sidecar`.
  void Report(const char* bench, MetricsSidecar* sidecar) const {
    double wall = ElapsedSeconds();
    std::fprintf(stderr, "%s: wall_seconds=%.3f\n", bench, wall);
    if (sidecar != nullptr) sidecar->SetHost(wall);
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

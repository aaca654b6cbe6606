#ifndef MMDB_OBS_SIDECAR_H_
#define MMDB_OBS_SIDECAR_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mmdb {

// Machine-readable companion file a bench writes beside its stdout tables:
//   {"bench":"fig4a",
//    "points":[{"label":"FUZZYCOPY","engine":{...},"validation":{...}},
//              {"label":"BAD","error":"INTERNAL: ..."},...],
//    "validation_summary":{"points":5,"overhead_per_txn":{...},...},
//    "host":{"jobs":4,"wall_seconds":1.23}}
//
// Per point, "validation" (when present) holds the model oracle's
// predicted/measured/residual block (src/model/model_oracle.h); a failed
// sweep point is recorded as {"label","error"} so ERR table cells stay
// diagnosable from artifacts alone. "validation_summary" aggregates the
// residuals across the figure. See EXPERIMENTS.md for the full schema.
//
// The destination defaults to "<bench>_metrics.json" in the working
// directory; the MMDB_METRICS_SIDECAR environment variable overrides the
// path, and setting it to the empty string disables the sidecar entirely.
//
// Determinism contract (DESIGN.md §12): "points" is merged in declared
// point order by the sweep runner, never in completion order, so its bytes
// are identical no matter how many workers produced the entries. Only
// "host" members — here the sweep width and the real wall-clock spend,
// and each engine dump's own "host" — may differ between runs; bench_diff
// skips them and compares everything else.
class MetricsSidecar {
 public:
  // `bench` names the document and the default output file.
  explicit MetricsSidecar(const char* bench);

  // Appends one measured point. Dropped when the sidecar is disabled or
  // `engine_json` is empty. `validation_json` (optional) is the model
  // oracle's predicted/measured/residual block for the point. Not
  // thread-safe: the sweep runner merges results on the coordinating
  // thread after the workers are done.
  void Add(std::string label, std::string engine_json,
           std::string validation_json = std::string());

  // Appends one *failed* point: {"label":...,"error":message}, so an ERR
  // table cell's underlying Status is recorded in the artifact too.
  void AddError(std::string label, std::string message);

  // Sets the figure-level "validation_summary" member (a complete JSON
  // value, typically ResidualSummary::ToJsonString). Empty = omitted.
  void SetValidationSummary(std::string summary_json);

  // Records the sweep width and wall-clock seconds for the "host" member.
  void SetHost(std::size_t jobs, double wall_seconds);

  // Writes the collected document (call once, after the measured series).
  // OK when the sidecar is disabled; otherwise any failure to open, write
  // or close the file is reported on stderr and returned.
  [[nodiscard]] Status Write() const;

  const std::string& path() const { return path_; }
  std::size_t num_points() const { return points_.size(); }

 private:
  struct Point {
    std::string label;
    std::string engine_json;      // empty for error points
    std::string validation_json;  // optional model-oracle block
    std::string error;            // non-empty marks a failed point
  };

  std::string bench_;
  std::string path_;
  std::vector<Point> points_;
  std::string validation_summary_json_;
  std::size_t jobs_ = 0;  // 0 = SetHost never called; "host" omitted
  double wall_seconds_ = 0.0;
};

}  // namespace mmdb

#endif  // MMDB_OBS_SIDECAR_H_

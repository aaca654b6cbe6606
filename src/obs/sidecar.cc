#include "obs/sidecar.h"

#include <cstdio>
#include <cstdlib>

#include "util/json.h"

namespace mmdb {

MetricsSidecar::MetricsSidecar(const char* bench) : bench_(bench) {
  const char* override_path = std::getenv("MMDB_METRICS_SIDECAR");
  path_ = override_path != nullptr ? override_path : bench_ + "_metrics.json";
}

void MetricsSidecar::Add(std::string label, std::string engine_json,
                         std::string validation_json) {
  if (path_.empty() || engine_json.empty()) return;
  points_.push_back(Point{std::move(label), std::move(engine_json),
                          std::move(validation_json), std::string()});
}

void MetricsSidecar::AddError(std::string label, std::string message) {
  if (path_.empty()) return;
  if (message.empty()) message = "unknown error";
  points_.push_back(Point{std::move(label), std::string(), std::string(),
                          std::move(message)});
}

void MetricsSidecar::SetValidationSummary(std::string summary_json) {
  validation_summary_json_ = std::move(summary_json);
}

void MetricsSidecar::SetHost(double wall_seconds) {
  wall_seconds_ = wall_seconds;
}

Status MetricsSidecar::Write() const {
  if (path_.empty()) return Status::OK();
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String(bench_);
  w.Key("points");
  w.BeginArray();
  for (const Point& point : points_) {
    w.BeginObject();
    w.Key("label");
    w.String(point.label);
    if (!point.error.empty()) {
      w.Key("error");
      w.String(point.error);
    } else {
      w.Key("engine");
      w.RawValue(point.engine_json);
      if (!point.validation_json.empty()) {
        w.Key("validation");
        w.RawValue(point.validation_json);
      }
    }
    w.EndObject();
  }
  w.EndArray();
  if (!validation_summary_json_.empty()) {
    w.Key("validation_summary");
    w.RawValue(validation_summary_json_);
  }
  if (wall_seconds_.has_value()) {
    w.Key("host");
    w.BeginObject();
    w.Key("wall_seconds");
    w.Double(*wall_seconds_);
    w.EndObject();
  }
  w.EndObject();
  std::FILE* f = std::fopen(path_.c_str(), "w");
  bool ok = f != nullptr && std::fputs(w.str().c_str(), f) != EOF &&
            std::fputc('\n', f) != EOF;
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "metrics sidecar: cannot write %s\n", path_.c_str());
    return IoError("metrics sidecar: cannot write " + path_);
  }
  // stderr, like the wall_seconds report: stdout carries only the tables,
  // which must be byte-identical from run to run (DESIGN.md §12).
  std::fprintf(stderr, "metrics sidecar: %s (%zu points)\n", path_.c_str(),
               points_.size());
  return Status::OK();
}

}  // namespace mmdb

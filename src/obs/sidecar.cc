#include "obs/sidecar.h"

#include <cstdio>
#include <cstdlib>

#include "obs/bench_diff.h"
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

void MetricsSidecar::SetRun(std::size_t jobs, double wall_seconds) {
  jobs_ = jobs;
  wall_seconds_ = wall_seconds;
}

void MetricsSidecar::Write() const {
  if (path_.empty()) return;
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
  // Aggregate provenance-journal traffic across the sweep's engines —
  // how many audit entries/bytes/syncs the run produced and whether any
  // journal degraded (append/sync errors). bench_diff treats "audit" as
  // sanctioned drift, like "run".
  {
    uint64_t entries = 0, bytes = 0, syncs = 0;
    uint64_t append_errors = 0, sync_errors = 0, journals = 0;
    for (const Point& point : points_) {
      if (point.engine_json.empty()) continue;
      StatusOr<JsonValue> doc = JsonValue::Parse(point.engine_json);
      if (!doc.ok()) continue;
      const JsonValue* journal = doc->FindPath({"audit", "journal"});
      if (journal == nullptr || !journal->is_object()) continue;
      ++journals;
      auto add = [&](const char* key, uint64_t* acc) {
        const JsonValue* v = journal->Find(key);
        if (v != nullptr) *acc += static_cast<uint64_t>(v->number_value());
      };
      add("entries", &entries);
      add("bytes", &bytes);
      add("syncs", &syncs);
      add("append_errors", &append_errors);
      add("sync_errors", &sync_errors);
    }
    w.Key("audit");
    w.BeginObject();
    w.Key("journals");
    w.Uint(journals);
    w.Key("entries");
    w.Uint(entries);
    w.Key("bytes");
    w.Uint(bytes);
    w.Key("syncs");
    w.Uint(syncs);
    w.Key("append_errors");
    w.Uint(append_errors);
    w.Key("sync_errors");
    w.Uint(sync_errors);
    w.EndObject();
  }
  if (jobs_ != 0) {
    w.Key("run");
    w.BeginObject();
    w.Key("jobs");
    w.Uint(jobs_);
    w.Key("wall_seconds");
    w.Double(wall_seconds_);
    w.EndObject();
  }
  w.EndObject();
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics sidecar: cannot open %s\n", path_.c_str());
    return;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  // stderr, like the wall_seconds report: stdout carries only the tables,
  // which must be byte-identical across --jobs widths (DESIGN.md §12).
  std::fprintf(stderr, "metrics sidecar: %s (%zu points)\n", path_.c_str(),
               points_.size());
}

namespace {

// Re-emits `value` minus every wall-clock member (IsWallClockField), at
// any depth — engine dumps carry a machine-dependent "recovery.wall"
// block that must not participate in byte comparisons across runs.
void DumpDeterministic(const JsonValue& value, JsonWriter* w) {
  switch (value.type()) {
    case JsonValue::Type::kObject:
      w->BeginObject();
      for (const auto& [key, member] : value.object_items()) {
        if (IsWallClockField(key)) continue;
        w->Key(key);
        DumpDeterministic(member, w);
      }
      w->EndObject();
      break;
    case JsonValue::Type::kArray:
      w->BeginArray();
      for (const JsonValue& item : value.array_items()) {
        DumpDeterministic(item, w);
      }
      w->EndArray();
      break;
    default:
      w->RawValue(value.Dump());
      break;
  }
}

}  // namespace

StatusOr<std::string> MetricsSidecar::DeterministicView(
    std::string_view sidecar_json) {
  MMDB_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(sidecar_json));
  JsonWriter w;
  w.BeginObject();
  for (const auto& [key, value] : doc.object_items()) {
    if (key == "run") continue;
    w.Key(key);
    DumpDeterministic(value, &w);
  }
  w.EndObject();
  return w.TakeString();
}

}  // namespace mmdb

#include "obs/bench_diff.h"

#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace mmdb {

namespace {

// The one member every comparison skips: host-clock values.
constexpr std::string_view kHostKey = "host";

const char* TypeName(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "?";
}

std::string Preview(const JsonValue& v) {
  std::string dump = v.Dump();
  if (dump.size() > 64) {
    dump.resize(61);
    dump += "...";
  }
  return dump;
}

class Differ {
 public:
  Differ(const BenchDiffOptions& options, BenchDiffResult* result)
      : options_(options), result_(result) {}

  void Walk(const std::string& path, std::string_view key,
            const JsonValue& a, const JsonValue& b) {
    if (a.type() != b.type()) {
      Mismatch(path, "type " + std::string(TypeName(a.type())),
               "type " + std::string(TypeName(b.type())));
      return;
    }
    switch (a.type()) {
      case JsonValue::Type::kObject:
        WalkObject(path, a, b);
        break;
      case JsonValue::Type::kArray:
        WalkArray(path, a, b);
        break;
      case JsonValue::Type::kNumber:
        ++result_->leaves_compared;
        if (!NumbersMatch(key, a.number_value(), b.number_value())) {
          Mismatch(path, a.Dump(), b.Dump());
        }
        break;
      case JsonValue::Type::kString:
        ++result_->leaves_compared;
        if (a.string_value() != b.string_value()) {
          Mismatch(path, Preview(a), Preview(b));
        }
        break;
      case JsonValue::Type::kBool:
        ++result_->leaves_compared;
        if (a.bool_value() != b.bool_value()) {
          Mismatch(path, a.Dump(), b.Dump());
        }
        break;
      case JsonValue::Type::kNull:
        ++result_->leaves_compared;  // null == null
        break;
    }
  }

 private:
  void WalkObject(const std::string& path, const JsonValue& a,
                  const JsonValue& b) {
    for (const auto& [key, value] : a.object_items()) {
      if (key == kHostKey) continue;
      std::string child = path.empty() ? key : path + "." + key;
      const JsonValue* other = b.Find(key);
      if (other == nullptr) {
        Mismatch(child, Preview(value), "<missing>");
        continue;
      }
      Walk(child, key, value, *other);
    }
    // Keys only the current run has are drift too (new schema members
    // should land with a refreshed baseline).
    for (const auto& [key, value] : b.object_items()) {
      if (key == kHostKey) continue;
      if (a.Find(key) == nullptr) {
        std::string child = path.empty() ? key : path + "." + key;
        Mismatch(child, "<missing>", Preview(value));
      }
    }
  }

  void WalkArray(const std::string& path, const JsonValue& a,
                 const JsonValue& b) {
    const auto& items_a = a.array_items();
    const auto& items_b = b.array_items();
    if (items_a.size() != items_b.size()) {
      Mismatch(path, std::to_string(items_a.size()) + " elements",
               std::to_string(items_b.size()) + " elements");
      return;
    }
    for (std::size_t i = 0; i < items_a.size(); ++i) {
      Walk(path + "[" + std::to_string(i) + "]", std::string_view(),
           items_a[i], items_b[i]);
    }
  }

  bool NumbersMatch(std::string_view key, double a, double b) const {
    if (a == b) return true;  // covers exact leaves and shared infinities
    if (!IsTimingField(key) || options_.rel_tol <= 0) return false;
    if (!std::isfinite(a) || !std::isfinite(b)) return false;
    double scale = std::fmax(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <=
           std::fmax(options_.abs_tol, options_.rel_tol * scale);
  }

  void Mismatch(const std::string& path, const std::string& baseline,
                const std::string& current) {
    ++result_->mismatches;
    if (result_->reports.size() < options_.max_reports) {
      result_->reports.push_back(path + ": baseline=" + baseline +
                                 " current=" + current);
    }
  }

  const BenchDiffOptions& options_;
  BenchDiffResult* result_;
};

}  // namespace

bool IsTimingField(std::string_view key) {
  if (EndsWith(key, "seconds") || EndsWith(key, "_s") ||
      EndsWith(key, "residual")) {
    return true;
  }
  // Trace-ring virtual times, timer summaries, and the model oracle.
  static constexpr std::string_view kTimingKeys[] = {
      "t",        "done", "durable_at", "until", "now",      "begin",
      "end",      "mean", "min",        "max",   "p50",      "p90",
      "p99",      "p999", "predicted",  "measured",
  };
  for (std::string_view timing : kTimingKeys) {
    if (key == timing) return true;
  }
  return false;
}

StatusOr<BenchDiffResult> DiffBenchDocs(const JsonValue& baseline,
                                        const JsonValue& current,
                                        const BenchDiffOptions& options) {
  if (!baseline.is_object() || !current.is_object()) {
    return InvalidArgumentError(
        "bench sidecar documents must be JSON objects");
  }
  BenchDiffResult result;
  Differ differ(options, &result);
  differ.Walk(std::string(), std::string_view(), baseline, current);
  return result;
}

StatusOr<BenchDiffResult> DiffBenchJson(std::string_view baseline_json,
                                        std::string_view current_json,
                                        const BenchDiffOptions& options) {
  MMDB_ASSIGN_OR_RETURN(JsonValue baseline, JsonValue::Parse(baseline_json));
  MMDB_ASSIGN_OR_RETURN(JsonValue current, JsonValue::Parse(current_json));
  return DiffBenchDocs(baseline, current, options);
}

}  // namespace mmdb

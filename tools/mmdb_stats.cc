// mmdb_stats: summarize an engine metrics document for a terminal.
//
// Input is JSON produced by Engine::DumpMetricsJson() — directly, or
// wrapped per measured point inside a bench metrics sidecar
// ({"bench":...,"points":[{"label":...,"engine":{...}}]}); both shapes are
// detected automatically.
//
//   mmdb_stats <metrics.json>            counters, timers, checkpoint phases
//   mmdb_stats <metrics.json> --trace    also print every retained trace event
//   mmdb_stats <metrics.json> --percentiles
//       per-timer tail table (count, p50/p90/p99/p999, max) — the quick way
//       to read an interference sidecar's latency tails per point
//   mmdb_stats <metrics.json> --filter=<prefix>
//       print only matching metric subtrees — "--filter=recovery" the
//       recovery block, "--filter=counters.txn" the txn_* counters,
//       "--filter=audit" the provenance-journal account
//   mmdb_stats <metrics.json> --raw      re-emit the parsed document compactly
//
// Exits non-zero (with a diagnostic) on malformed JSON, so it doubles as a
// validator for the sidecar files.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "env/env.h"
#include "util/json.h"
#include "util/status.h"
#include "util/string_util.h"

namespace mmdb {
namespace {

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number_value() : fallback;
}

// --filter=<prefix> narrows the report to matching subtrees. Paths are
// dotted: a bare section name ("recovery", "audit") selects a whole
// block, "counters.txn" selects the txn_* counters, "timers.log" the
// log_* timers. Matching is mutual-prefix so "counters.txn" still
// prints the "counters:" heading on the way down. Empty = everything.
std::string g_filter;

bool Selected(std::string_view path) {
  if (g_filter.empty()) return true;
  const size_t n = std::min(g_filter.size(), path.size());
  return std::string_view(g_filter).substr(0, n) == path.substr(0, n);
}

void PrintSection(const JsonValue& doc, const char* key) {
  const JsonValue* section = doc.Find(key);
  if (section == nullptr || !section->is_object()) return;
  if (!Selected(key)) return;
  bool printed_heading = false;
  if (g_filter.empty()) {
    std::printf("%s:\n", key);
    printed_heading = true;
  }
  for (const auto& [name, value] : section->object_items()) {
    if (!Selected(std::string(key) + "." + name)) continue;
    if (!printed_heading) {
      std::printf("%s:\n", key);
      printed_heading = true;
    }
    if (value.is_number()) {
      double n = value.number_value();
      // Counters are integers; keep them out of scientific notation.
      if (n == static_cast<double>(static_cast<long long>(n))) {
        std::printf("  %-32s %lld\n", name.c_str(),
                    static_cast<long long>(n));
      } else {
        std::printf("  %-32s %.6g\n", name.c_str(), n);
      }
    } else if (value.is_object()) {
      // Timer: {count,mean,min,max,p50,p99}.
      std::printf("  %-32s count=%-8.0f mean=%-10.4g p50=%-10.4g "
                  "p99=%-10.4g max=%.4g\n",
                  name.c_str(), NumberOr(value.Find("count"), 0),
                  NumberOr(value.Find("mean"), 0),
                  NumberOr(value.Find("p50"), 0),
                  NumberOr(value.Find("p99"), 0),
                  NumberOr(value.Find("max"), 0));
    }
  }
}

// Tail table across every timer of the metrics section; relies on the
// registry dump's p90/p999 members (Timer::ToJson).
void PrintPercentiles(const JsonValue& metrics) {
  const JsonValue* timers = metrics.Find("timers");
  if (timers == nullptr || !timers->is_object() ||
      timers->object_items().empty() || !Selected("timers")) {
    return;
  }
  std::printf("percentiles:\n");
  std::printf("  %-32s %8s %10s %10s %10s %10s %10s\n", "timer", "count",
              "p50", "p90", "p99", "p999", "max");
  for (const auto& [name, value] : timers->object_items()) {
    if (!value.is_object()) continue;
    if (!Selected("timers." + name)) continue;
    std::printf("  %-32s %8.0f %10.4g %10.4g %10.4g %10.4g %10.4g\n",
                name.c_str(), NumberOr(value.Find("count"), 0),
                NumberOr(value.Find("p50"), 0),
                NumberOr(value.Find("p90"), 0),
                NumberOr(value.Find("p99"), 0),
                NumberOr(value.Find("p999"), 0),
                NumberOr(value.Find("max"), 0));
  }
}

// Time-series sampler summary: ring occupancy plus the sampled series
// names (values live in the dump / Perfetto counter tracks).
void PrintTimeSeries(const JsonValue& engine) {
  const JsonValue* ts = engine.Find("timeseries");
  if (ts == nullptr || !ts->is_object() || !Selected("timeseries")) return;
  std::printf("timeseries: epoch=%.4gs series=%zu recorded=%.0f "
              "dropped=%.0f\n",
              NumberOr(ts->Find("epoch"), 0),
              ts->Find("series") != nullptr && ts->Find("series")->is_array()
                  ? ts->Find("series")->array_items().size()
                  : 0,
              NumberOr(ts->Find("recorded"), 0),
              NumberOr(ts->Find("dropped"), 0));
}

// Last-recovery block: deterministic counters, then the modeled
// (virtual-clock) phase split side by side with the host clock's
// ("host.recovery").
void PrintRecovery(const JsonValue& engine) {
  const JsonValue* r = engine.Find("recovery");
  if (r == nullptr || !r->is_object() || !Selected("recovery")) return;
  std::printf("recovery: ckpt=%.0f copy=%.0f loaded=%.0f retried=%.0f "
              "scanned=%.0f applied=%.0f txns=%.0f%s\n",
              NumberOr(r->Find("checkpoint"), 0), NumberOr(r->Find("copy"), 0),
              NumberOr(r->Find("segments_loaded"), 0),
              NumberOr(r->Find("segments_retried"), 0),
              NumberOr(r->Find("records_scanned"), 0),
              NumberOr(r->Find("updates_applied"), 0),
              NumberOr(r->Find("txns_redone"), 0),
              r->Find("fell_back") != nullptr &&
                      r->Find("fell_back")->bool_value()
                  ? " FELL-BACK"
                  : "");
  const JsonValue* modeled = r->Find("modeled");
  if (modeled != nullptr && modeled->is_object()) {
    std::printf("  modeled: backup=%.4fs log=%.4fs replay=%.4fs "
                "total=%.4fs\n",
                NumberOr(modeled->Find("backup_read_seconds"), 0),
                NumberOr(modeled->Find("log_read_seconds"), 0),
                NumberOr(modeled->Find("replay_cpu_seconds"), 0),
                NumberOr(modeled->Find("total_seconds"), 0));
  }
  const JsonValue* wall = engine.FindPath({"host", "recovery"});
  if (wall != nullptr && wall->is_object()) {
    std::printf("  wall:    backup=%.4fs scan=%.4fs replay=%.4fs\n",
                NumberOr(wall->Find("backup_read_seconds"), 0),
                NumberOr(wall->Find("log_scan_seconds"), 0),
                NumberOr(wall->Find("replay_seconds"), 0));
  }
}

// Instant-recovery availability block (the dump's "availability" member,
// null until an instant restart has run): time-to-first-transaction vs
// time-to-full-recovery, the on-demand/background/forced load split, and —
// when the run carried a workload — the recovery-wait share of total
// transaction latency (sixth attribution cause).
void PrintAvailability(const JsonValue& engine) {
  const JsonValue* a = engine.Find("availability");
  if (a == nullptr || !a->is_object() || !Selected("availability")) return;
  const double t_first = NumberOr(a->Find("time_to_first_txn"), 0);
  const double t_full = NumberOr(a->Find("time_to_full_recovery"), 0);
  std::printf("availability: t_first_txn=%.4fs t_full_recovery=%.4fs%s%s\n",
              t_first, t_full,
              t_full > 0.0
                  ? StringPrintf(" (first/full=%.1f%%)",
                                 100.0 * t_first / t_full)
                        .c_str()
                  : "",
              a->Find("drained") != nullptr &&
                      a->Find("drained")->bool_value()
                  ? ""
                  : " DRAINING");
  const JsonValue* loads = a->Find("loads");
  if (loads != nullptr && loads->is_object()) {
    std::printf("  loads: touch=%.0f background=%.0f force=%.0f pending=%.0f "
                "recovery_wait=%.4fs\n",
                NumberOr(loads->Find("touch"), 0),
                NumberOr(loads->Find("background"), 0),
                NumberOr(loads->Find("force"), 0),
                NumberOr(a->Find("pending_segments"), 0),
                NumberOr(a->Find("stall_recovery_wait_seconds"), 0));
  }
  // Per-cause share: only computable when the workload attribution gauges
  // rode along in the same dump.
  const JsonValue* gauges = engine.FindPath({"metrics", "gauges"});
  if (gauges == nullptr || !gauges->is_object()) return;
  const JsonValue* total_g =
      gauges->Find("workload.attr.latency_total_seconds");
  const JsonValue* wait_g =
      gauges->Find("workload.attr.stall_recovery_wait_seconds");
  if (total_g == nullptr || wait_g == nullptr || !total_g->is_number() ||
      !wait_g->is_number() || total_g->number_value() <= 0.0) {
    return;
  }
  std::printf("  attribution: recovery_wait=%.4fs of %.4fs total latency "
              "(%.1f%%)\n",
              wait_g->number_value(), total_g->number_value(),
              100.0 * wait_g->number_value() / total_g->number_value());
}

void PrintCheckpoints(const JsonValue& engine) {
  const JsonValue* ckpts = engine.Find("checkpoints");
  if (ckpts == nullptr || !ckpts->is_object() || !Selected("checkpoints")) {
    return;
  }
  const JsonValue* history = ckpts->Find("history");
  std::printf("checkpoints: cap=%.0f dropped=%.0f retained=%zu\n",
              NumberOr(ckpts->Find("history_cap"), 0),
              NumberOr(ckpts->Find("history_dropped"), 0),
              history != nullptr && history->is_array()
                  ? history->array_items().size()
                  : 0);
  if (history == nullptr || !history->is_array()) return;
  for (const JsonValue& c : history->array_items()) {
    std::printf("  ckpt %-4.0f [%0.3f..%0.3f] flushed=%-5.0f skipped=%-5.0f "
                "lock=%.4fs io=%.4fs log_wait=%.4fs copy=%.4fs\n",
                NumberOr(c.Find("id"), 0), NumberOr(c.Find("begin"), 0),
                NumberOr(c.Find("end"), 0),
                NumberOr(c.Find("segments_flushed"), 0),
                NumberOr(c.Find("segments_skipped"), 0),
                NumberOr(c.Find("lock_held_seconds"), 0),
                NumberOr(c.Find("flush_io_seconds"), 0),
                NumberOr(c.Find("log_wait_seconds"), 0),
                NumberOr(c.Find("copy_seconds"), 0));
  }
}

// Provenance-journal account (the dump's "audit" member, DESIGN.md §18):
// journal traffic counters plus, after a recovery, a lineage digest.
void PrintAudit(const JsonValue& engine) {
  const JsonValue* audit = engine.Find("audit");
  if (audit == nullptr || !audit->is_object() || !Selected("audit")) return;
  const JsonValue* journal = audit->Find("journal");
  if (journal != nullptr && journal->is_object()) {
    std::printf("audit: entries=%.0f bytes=%.0f syncs=%.0f "
                "append_errors=%.0f sync_errors=%.0f\n",
                NumberOr(journal->Find("entries"), 0),
                NumberOr(journal->Find("bytes"), 0),
                NumberOr(journal->Find("syncs"), 0),
                NumberOr(journal->Find("append_errors"), 0),
                NumberOr(journal->Find("sync_errors"), 0));
  }
  const JsonValue* lineage = audit->Find("lineage");
  if (lineage != nullptr && lineage->is_object()) {
    uint64_t retried = 0, replayed = 0;
    const JsonValue* retried_col = lineage->Find("retried");
    if (retried_col != nullptr && retried_col->is_array()) {
      for (const JsonValue& v : retried_col->array_items()) {
        if (v.bool_value()) ++retried;
      }
    }
    const JsonValue* frames_col = lineage->Find("frames");
    if (frames_col != nullptr && frames_col->is_array()) {
      for (const JsonValue& v : frames_col->array_items()) {
        if (v.is_number() && v.number_value() > 0) ++replayed;
      }
    }
    std::printf("  lineage: segments=%.0f retried=%llu touched_by_replay="
                "%llu\n",
                NumberOr(lineage->Find("segments"), 0),
                static_cast<unsigned long long>(retried),
                static_cast<unsigned long long>(replayed));
  }
}

void PrintTrace(const JsonValue& engine, bool events) {
  const JsonValue* trace = engine.Find("trace");
  if (trace == nullptr || !trace->is_object() || !Selected("trace")) return;
  std::printf("trace: recorded=%.0f dropped=%.0f\n",
              NumberOr(trace->Find("recorded"), 0),
              NumberOr(trace->Find("dropped"), 0));
  if (!events) return;
  const JsonValue* list = trace->Find("events");
  if (list == nullptr || !list->is_array()) return;
  for (const JsonValue& e : list->array_items()) {
    const JsonValue* kind = e.Find("kind");
    std::printf("  #%-8.0f t=%-12.6f %-24s %s\n",
                NumberOr(e.Find("seq"), 0), NumberOr(e.Find("t"), 0),
                kind != nullptr && kind->is_string()
                    ? kind->string_value().c_str()
                    : "?",
                e.Dump().c_str());
  }
}

// Model-oracle block: {"metric":{"predicted":..,"measured":..,
// "residual":..},...} per point, or mean/max aggregates for the figure
// summary. A null residual is the predicted==0 sentinel.
void PrintValidation(const JsonValue& validation, const char* title) {
  if (!validation.is_object()) return;
  std::printf("%s:\n", title);
  for (const auto& [metric, block] : validation.object_items()) {
    if (!block.is_object()) {
      if (block.is_number()) {
        std::printf("  %-18s %.6g\n", metric.c_str(), block.number_value());
      }
      continue;
    }
    const JsonValue* residual = block.Find("residual");
    if (residual != nullptr) {
      std::printf("  %-18s predicted=%-12.6g measured=%-12.6g ",
                  metric.c_str(), NumberOr(block.Find("predicted"), 0),
                  NumberOr(block.Find("measured"), 0));
      if (residual->is_number()) {
        std::printf("residual=%+.3f\n", residual->number_value());
      } else {
        std::printf("residual=inf\n");
      }
    } else {
      std::printf("  %-18s mean_abs=%-10.4g max_abs=%.4g\n", metric.c_str(),
                  NumberOr(block.Find("mean_abs_residual"), 0),
                  NumberOr(block.Find("max_abs_residual"), 0));
    }
  }
}

void PrintEngineDoc(const JsonValue& engine, bool events, bool percentiles) {
  const JsonValue* algorithm = engine.Find("algorithm");
  const JsonValue* mode = engine.Find("mode");
  if (algorithm != nullptr && algorithm->is_string()) {
    std::printf("engine: %s/%s at t=%.6f\n",
                algorithm->string_value().c_str(),
                mode != nullptr && mode->is_string()
                    ? mode->string_value().c_str()
                    : "?",
                NumberOr(engine.Find("now"), 0));
  }
  const JsonValue* metrics = engine.Find("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    PrintSection(*metrics, "counters");
    PrintSection(*metrics, "gauges");
    PrintSection(*metrics, "timers");
    if (percentiles) PrintPercentiles(*metrics);
  }
  PrintTimeSeries(engine);
  PrintRecovery(engine);
  PrintAvailability(engine);
  PrintCheckpoints(engine);
  PrintAudit(engine);
  PrintTrace(engine, events);
}

int Run(const std::string& path, bool events, bool raw, bool percentiles) {
  std::string contents;
  Status read = Env::Posix()->ReadFileToString(path, &contents);
  if (!read.ok()) {
    std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
    return 1;
  }
  StatusOr<JsonValue> doc = JsonValue::Parse(contents);
  if (!doc.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  if (raw) {
    std::printf("%s\n", doc->Dump().c_str());
    return 0;
  }
  const JsonValue* points = doc->Find("points");
  if (points != nullptr && points->is_array()) {
    // Bench sidecar: one engine document per measured point.
    const JsonValue* bench = doc->Find("bench");
    std::printf("sidecar: %s, %zu points\n",
                bench != nullptr && bench->is_string()
                    ? bench->string_value().c_str()
                    : "?",
                points->array_items().size());
    for (const JsonValue& point : points->array_items()) {
      const JsonValue* label = point.Find("label");
      std::printf("\n--- %s ---\n",
                  label != nullptr && label->is_string()
                      ? label->string_value().c_str()
                      : "?");
      const JsonValue* error = point.Find("error");
      if (error != nullptr && error->is_string()) {
        std::printf("ERROR: %s\n", error->string_value().c_str());
        continue;
      }
      const JsonValue* engine = point.Find("engine");
      if (engine != nullptr) PrintEngineDoc(*engine, events, percentiles);
      const JsonValue* validation = point.Find("validation");
      if (validation != nullptr) {
        PrintValidation(*validation, "model validation");
      }
    }
    const JsonValue* summary = doc->Find("validation_summary");
    if (summary != nullptr) {
      std::printf("\n");
      PrintValidation(*summary, "validation summary");
    }
    return 0;
  }
  PrintEngineDoc(*doc, events, percentiles);
  return 0;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <metrics.json> [--trace] [--percentiles] "
                 "[--filter=prefix] [--raw]\n",
                 argv[0]);
    return 2;
  }
  bool events = false;
  bool raw = false;
  bool percentiles = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      events = true;
    } else if (std::strncmp(argv[i], "--filter=", 9) == 0) {
      mmdb::g_filter = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--raw") == 0) {
      raw = true;
    } else if (std::strcmp(argv[i], "--percentiles") == 0) {
      percentiles = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  return mmdb::Run(argv[1], events, raw, percentiles);
}

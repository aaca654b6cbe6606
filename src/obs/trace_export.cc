#include "obs/trace_export.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mmdb {

namespace {

// One synthetic thread per engine component; slice nesting inside a track
// reflects the virtual-clock intervals the engine modeled.
enum Track : int {
  kTrackCheckpoint = 1,
  kTrackCheckpointIo = 2,
  kTrackLog = 3,
  kTrackLock = 4,
  kTrackFault = 5,
  kTrackRecovery = 6,
  kTrackRecoveryOnDemand = 7,
};

constexpr struct {
  int tid;
  const char* name;
} kTracks[] = {
    {kTrackCheckpoint, "checkpoint"}, {kTrackCheckpointIo, "checkpoint.io"},
    {kTrackLog, "log"},               {kTrackLock, "lock"},
    {kTrackFault, "fault"},           {kTrackRecovery, "recovery"},
    {kTrackRecoveryOnDemand, "recovery.on_demand"},
};

// Virtual-clock seconds -> trace_event microseconds.
double Micros(double seconds) { return seconds * 1e6; }

// "ckpt.begin" -> "ckpt": the component becomes the category.
std::string_view Category(std::string_view kind) {
  size_t dot = kind.find('.');
  return dot == std::string_view::npos ? kind : kind.substr(0, dot);
}

// The track an instant of category `cat` lands on.
int InstantTrack(std::string_view cat) {
  if (cat == "ckpt") return kTrackCheckpoint;
  if (cat == "log") return kTrackLog;
  if (cat == "lock") return kTrackLock;
  if (cat == "fault") return kTrackFault;
  return kTrackRecovery;
}

double NumberOr(const JsonValue* v, double fallback) {
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

void AppendThreadName(int pid, int tid, std::string_view name,
                      JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->String("thread_name");
  w->Key("ph");
  w->String("M");
  w->Key("pid");
  w->Int(pid);
  w->Key("tid");
  w->Int(tid);
  w->Key("args");
  w->BeginObject();
  w->Key("name");
  w->String(name);
  w->EndObject();
  w->EndObject();
}

// Copies the event's payload members ("seq" and the table-named fields;
// everything except "kind" and "t") into the trace_event args object, so
// the viewer's detail pane shows exactly what the ring recorded.
void AppendArgs(const JsonValue& event, JsonWriter* w) {
  w->Key("args");
  w->BeginObject();
  for (const auto& [key, value] : event.object_items()) {
    if (key == "kind" || key == "t") continue;
    w->Key(key);
    w->RawValue(value.Dump());
  }
  w->EndObject();
}

// Emits one complete trace_event object. `dur` < 0 means "no dur member"
// (B/E/i phases); `instant` adds the scope member instants require.
void AppendEvent(std::string_view name, std::string_view cat,
                 std::string_view ph, double ts_us, double dur_us, int pid,
                 int tid, bool instant, const JsonValue& event,
                 JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->String(name);
  w->Key("cat");
  w->String(cat);
  w->Key("ph");
  w->String(ph);
  w->Key("ts");
  w->Double(ts_us);
  if (dur_us >= 0) {
    w->Key("dur");
    w->Double(dur_us);
  }
  w->Key("pid");
  w->Int(pid);
  w->Key("tid");
  w->Int(tid);
  if (instant) {
    w->Key("s");
    w->String("t");  // thread-scoped instant
  }
  AppendArgs(event, w);
  w->EndObject();
}

// Perfetto flow events tie each checkpoint span to the recovery spans that
// consumed it: an "s" at the checkpoint's completion instant and an "f"
// (binding point "e": attach to the enclosing slice's end) at each
// recovery that restored it, sharing the checkpoint id. The viewer then
// draws a provenance arrow from the checkpoint to its consumers.
void AppendFlowEvent(std::string_view ph, uint64_t id, double ts_us, int pid,
                     int tid, JsonWriter* w,
                     std::string_view name = "checkpoint_provenance") {
  w->BeginObject();
  w->Key("name");
  w->String(name);
  w->Key("cat");
  w->String("flow");
  w->Key("ph");
  w->String(ph);
  w->Key("id");
  w->Uint(id);
  w->Key("ts");
  w->Double(ts_us);
  w->Key("pid");
  w->Int(pid);
  w->Key("tid");
  w->Int(tid);
  if (ph == "f") {
    w->Key("bp");
    w->String("e");
  }
  w->EndObject();
}

}  // namespace

void AppendProcessName(int pid, std::string_view name, JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->String("process_name");
  w->Key("ph");
  w->String("M");
  w->Key("pid");
  w->Int(pid);
  w->Key("args");
  w->BeginObject();
  w->Key("name");
  w->String(name);
  w->EndObject();
  w->EndObject();
}

Status AppendChromeTraceEvents(const JsonValue& trace_doc, int pid,
                               JsonWriter* writer, TraceExportStats* stats) {
  const JsonValue* events = trace_doc.Find("events");
  if (events == nullptr || !events->is_array()) {
    return InvalidArgumentError(
        "trace document has no \"events\" array (tracing disabled?)");
  }
  for (const auto& track : kTracks) {
    AppendThreadName(pid, track.tid, track.name, writer);
  }
  // Open-slice depth per B/E track, so an E whose B fell out of the ring
  // degrades to an instant instead of corrupting the viewer's slice stack.
  size_t checkpoint_depth = 0;
  size_t recovery_depth = 0;
  // kRecoveryPhase events are recorded at the crash instant with their
  // durations in "seconds"; this cursor lays them end to end.
  double recovery_cursor = 0.0;
  TraceExportStats local;
  for (const JsonValue& event : events->array_items()) {
    const JsonValue* kind_v = event.Find("kind");
    const JsonValue* t_v = event.Find("t");
    TraceEventType type;
    if (kind_v == nullptr || !kind_v->is_string() || t_v == nullptr ||
        !t_v->is_number() ||
        !TraceEventTypeFromName(kind_v->string_value(), &type)) {
      ++local.events_skipped;
      continue;
    }
    const std::string& kind = kind_v->string_value();
    std::string_view cat = Category(kind);
    double t = t_v->number_value();
    double ts = Micros(t);
    const char* t2_name = TraceEventSpecFor(type).t2_name;
    double t2 = t2_name != nullptr ? NumberOr(event.Find(t2_name), t) : t;
    // X slices whose t2 is their end time.
    double dur = std::max(0.0, Micros(t2 - t));
    switch (type) {
      case TraceEventType::kCkptBegin:
        ++checkpoint_depth;
        AppendEvent("checkpoint", cat, "B", ts, -1, pid, kTrackCheckpoint,
                    false, event, writer);
        break;
      case TraceEventType::kCkptEnd:
      case TraceEventType::kCkptAbort:
        if (checkpoint_depth == 0) {
          AppendEvent(kind, cat, "i", ts, -1, pid, kTrackCheckpoint, true,
                      event, writer);
        } else {
          --checkpoint_depth;
          AppendEvent("checkpoint", cat, "E", ts, -1, pid, kTrackCheckpoint,
                      false, event, writer);
        }
        if (type == TraceEventType::kCkptEnd) {
          // Completed checkpoints start a provenance flow (aborts never
          // become a recovery source, so they get no flow).
          uint64_t ckpt =
              static_cast<uint64_t>(NumberOr(event.Find("ckpt"), 0));
          if (ckpt > 0) {
            AppendFlowEvent("s", ckpt, ts, pid, kTrackCheckpoint, writer);
          }
        }
        break;
      case TraceEventType::kCkptFlush:
        AppendEvent(kind, cat, "X", ts, dur, pid, kTrackCheckpointIo, false,
                    event, writer);
        break;
      case TraceEventType::kLogFlush:
        AppendEvent(kind, cat, "X", ts, dur, pid, kTrackLog, false, event,
                    writer);
        break;
      case TraceEventType::kLockWait:
        AppendEvent(kind, cat, "X", ts, dur, pid, kTrackLock, false, event,
                    writer);
        break;
      case TraceEventType::kRecoveryBegin:
        ++recovery_depth;
        recovery_cursor = t;
        AppendEvent("recovery", cat, "B", ts, -1, pid, kTrackRecovery, false,
                    event, writer);
        break;
      case TraceEventType::kRecoveryPhase: {
        // Phases share the recovery start time; lay them out sequentially.
        if (recovery_depth == 0) recovery_cursor = t;
        double phase_seconds = t2;
        AppendEvent(kind, cat, "X", Micros(recovery_cursor),
                    Micros(phase_seconds), pid, kTrackRecovery, false, event,
                    writer);
        recovery_cursor += phase_seconds;
        break;
      }
      case TraceEventType::kRecoveryEnd: {
        // t2 = total recovery seconds; the slice closes when replay does.
        if (recovery_depth == 0) {
          AppendEvent(kind, cat, "i", Micros(t + t2), -1, pid,
                      kTrackRecovery, true, event, writer);
        } else {
          --recovery_depth;
          AppendEvent("recovery", cat, "E", Micros(t + t2), -1, pid,
                      kTrackRecovery, false, event, writer);
        }
        // Close the provenance flow from the restored checkpoint (0 =
        // cold start, nothing was consumed).
        uint64_t ckpt =
            static_cast<uint64_t>(NumberOr(event.Find("checkpoint"), 0));
        if (ckpt > 0) {
          AppendFlowEvent("f", ckpt, Micros(t + t2), pid, kTrackRecovery,
                          writer);
        }
        break;
      }
      case TraceEventType::kRecoverySegmentOnDemand: {
        // One span per on-demand segment, from its backup read's submission
        // (t2) to its materialization (t). Touch-triggered loads also get
        // a flow arrow from the stalling transaction on the lock track to
        // the span's end.
        double start = Micros(std::min(t2, t));
        AppendEvent(kind, cat, "X", start, ts - start, pid,
                    kTrackRecoveryOnDemand, false, event, writer);
        const JsonValue* trigger = event.Find("trigger");
        if (trigger != nullptr && trigger->is_string() &&
            trigger->string_value() == "touch") {
          uint64_t segment =
              static_cast<uint64_t>(NumberOr(event.Find("segment"), 0));
          uint64_t flow_id = 1000000 + segment;
          AppendFlowEvent("s", flow_id, start, pid, kTrackLock, writer,
                          "recovery_on_demand");
          AppendFlowEvent("f", flow_id, ts, pid, kTrackRecoveryOnDemand,
                          writer, "recovery_on_demand");
        }
        break;
      }
      default:
        // Appends, errors, conflicts, faults and the journal's decisions.
        AppendEvent(kind, cat, "i", ts, -1, pid, InstantTrack(cat), true,
                    event, writer);
        break;
    }
    ++local.events_exported;
  }
  if (stats != nullptr) {
    stats->events_exported += local.events_exported;
    stats->events_skipped += local.events_skipped;
  }
  return Status();
}

Status AppendCounterTrackEvents(const JsonValue& timeseries_doc, int pid,
                                JsonWriter* writer, TraceExportStats* stats) {
  const JsonValue* series = timeseries_doc.Find("series");
  const JsonValue* samples = timeseries_doc.Find("samples");
  if (series == nullptr || !series->is_array() || samples == nullptr ||
      !samples->is_array()) {
    return InvalidArgumentError(
        "timeseries document has no \"series\"/\"samples\" arrays");
  }
  TraceExportStats local;
  for (const JsonValue& sample : samples->array_items()) {
    const JsonValue* t_v = sample.Find("t");
    const JsonValue* values = sample.Find("v");
    if (t_v == nullptr || !t_v->is_number() || values == nullptr ||
        !values->is_array() ||
        values->array_items().size() != series->array_items().size()) {
      ++local.events_skipped;
      continue;
    }
    double ts = Micros(t_v->number_value());
    for (size_t i = 0; i < series->array_items().size(); ++i) {
      const JsonValue& name = series->array_items()[i];
      const JsonValue& value = values->array_items()[i];
      if (!name.is_string() || !value.is_number()) {
        ++local.events_skipped;
        continue;
      }
      writer->BeginObject();
      writer->Key("name");
      writer->String(name.string_value());
      writer->Key("cat");
      writer->String("timeseries");
      writer->Key("ph");
      writer->String("C");
      writer->Key("ts");
      writer->Double(ts);
      writer->Key("pid");
      writer->Int(pid);
      writer->Key("args");
      writer->BeginObject();
      writer->Key("value");
      writer->Double(value.number_value());
      writer->EndObject();
      writer->EndObject();
      ++local.events_exported;
    }
  }
  if (stats != nullptr) {
    stats->events_exported += local.events_exported;
    stats->events_skipped += local.events_skipped;
  }
  return Status();
}

namespace {

// Appends the counter tracks for an engine dump's "timeseries" member when
// present and populated (null when sampling is disabled).
Status MaybeAppendTimeseries(const JsonValue& engine_doc, int pid,
                             JsonWriter* writer, TraceExportStats* stats) {
  const JsonValue* timeseries = engine_doc.Find("timeseries");
  if (timeseries == nullptr || !timeseries->is_object()) return Status();
  return AppendCounterTrackEvents(*timeseries, pid, writer, stats);
}

// Process name for a single engine dump: "FUZZYCOPY/partial" when the
// document carries its identity, else the fallback.
std::string EngineProcessName(const JsonValue& engine_doc,
                              std::string_view fallback) {
  const JsonValue* algorithm = engine_doc.Find("algorithm");
  const JsonValue* mode = engine_doc.Find("mode");
  if (algorithm != nullptr && algorithm->is_string() && mode != nullptr &&
      mode->is_string()) {
    return algorithm->string_value() + "/" + mode->string_value();
  }
  return std::string(fallback);
}

}  // namespace

StatusOr<std::string> ChromeTraceFromMetricsDoc(const JsonValue& doc,
                                                TraceExportStats* stats) {
  if (!doc.is_object()) {
    return InvalidArgumentError("metrics document is not a JSON object");
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  size_t engines = 0;
  if (const JsonValue* points = doc.Find("points");
      points != nullptr && points->is_array()) {
    // Bench sidecar: one trace process per measured point, named by its
    // label. Error points and trace-less engines are skipped.
    int pid = 0;
    for (const JsonValue& point : points->array_items()) {
      ++pid;
      const JsonValue* trace = point.FindPath({"engine", "trace"});
      if (trace == nullptr || !trace->is_object()) continue;
      const JsonValue* label = point.Find("label");
      std::string name = (label != nullptr && label->is_string())
                             ? label->string_value()
                             : "point " + std::to_string(pid);
      AppendProcessName(pid, name, &w);
      const JsonValue* engine = point.Find("engine");
      MMDB_RETURN_IF_ERROR(AppendChromeTraceEvents(*trace, pid, &w, stats));
      if (engine != nullptr) {
        MMDB_RETURN_IF_ERROR(MaybeAppendTimeseries(*engine, pid, &w, stats));
      }
      ++engines;
    }
  } else if (const JsonValue* trace = doc.Find("trace");
             trace != nullptr && trace->is_object()) {
    // Single Engine::DumpMetricsJson document.
    AppendProcessName(1, EngineProcessName(doc, "engine"), &w);
    MMDB_RETURN_IF_ERROR(AppendChromeTraceEvents(*trace, 1, &w, stats));
    MMDB_RETURN_IF_ERROR(MaybeAppendTimeseries(doc, 1, &w, stats));
    ++engines;
  } else if (doc.Find("events") != nullptr) {
    // Bare Tracer::ToJson document.
    AppendProcessName(1, "trace", &w);
    MMDB_RETURN_IF_ERROR(AppendChromeTraceEvents(doc, 1, &w, stats));
    ++engines;
  }
  if (engines == 0) {
    return InvalidArgumentError(
        "no trace data found: expected an engine metrics dump with a "
        "\"trace\" member, a bench sidecar with \"points\", or a raw trace "
        "document with \"events\"");
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.EndObject();
  return w.TakeString();
}

StatusOr<std::string> ChromeTraceFromMetricsJson(std::string_view json,
                                                 TraceExportStats* stats) {
  MMDB_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(json));
  return ChromeTraceFromMetricsDoc(doc, stats);
}

StatusOr<std::string> ChromeTraceFromTracer(const Tracer& tracer,
                                            std::string_view process_name) {
  MMDB_ASSIGN_OR_RETURN(JsonValue doc,
                        JsonValue::Parse(tracer.ToJsonString()));
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  AppendProcessName(1, process_name, &w);
  MMDB_RETURN_IF_ERROR(AppendChromeTraceEvents(doc, 1, &w, nullptr));
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.EndObject();
  return w.TakeString();
}

}  // namespace mmdb

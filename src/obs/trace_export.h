#ifndef MMDB_OBS_TRACE_EXPORT_H_
#define MMDB_OBS_TRACE_EXPORT_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace mmdb {

// Perfetto / chrome://tracing exporter: converts the engine's trace ring
// (as serialized by Tracer::ToJson, directly or inside an
// Engine::DumpMetricsJson document or a bench metrics sidecar) into the
// Chrome trace_event JSON object format, loadable by ui.perfetto.dev and
// chrome://tracing.
//
// Mapping (kinds and their t2 members come from the event table, so arg
// spellings match the trace ring's own JSON):
//   * ckpt.begin / end / abort -> B/E slices on the "checkpoint" track
//     (an abort closes the slice; its args mark it aborted)
//   * ckpt.flush -> X slices on "checkpoint.io" (issue time .. modeled
//     completion)
//   * log.flush -> X slices on "log" (request .. durable)
//   * lock.wait -> X slices on "lock" (block .. resume)
//   * recovery.begin / end -> B/E slice on "recovery"; recovery.phase ->
//     X slices laid out sequentially inside it (the phases are recorded at
//     the crash instant with durations)
//   * recovery.segment_on_demand -> X slices on "recovery.on_demand"
//     (backup-read submission .. materialization)
//   * every other kind -> an instant on its component's track
// Timestamps are virtual-clock seconds scaled to microseconds. Each
// engine becomes one trace "process" (pid); a sidecar's points become
// process 1..N named by their labels.

struct TraceExportStats {
  std::size_t events_exported = 0;
  std::size_t events_skipped = 0;  // unknown kind / malformed entries
};

// Appends trace_event objects (plus thread-name metadata) for one trace
// document ({"events":[...],"recorded":N,"dropped":N}, i.e. the "trace"
// member of an engine dump) to `writer`, which must be inside an open
// JSON array. `pid` is the process id for every emitted event.
Status AppendChromeTraceEvents(const JsonValue& trace_doc, int pid,
                               JsonWriter* writer,
                               TraceExportStats* stats = nullptr);

// Emits the process_name metadata event for `pid`.
void AppendProcessName(int pid, std::string_view name, JsonWriter* writer);

// Appends ph:"C" counter-track events for one time-series document (the
// "timeseries" member of an engine dump, in TimeSeriesSampler::ToJson
// shape: {"series":[names...],"samples":[{"t":t,"v":[...]}...]}). Each
// registered series becomes one counter track next to the slice tracks,
// so checkpoint phases can be visually correlated with commit/stall/abort
// rates. `writer` must be inside an open JSON array.
Status AppendCounterTrackEvents(const JsonValue& timeseries_doc, int pid,
                                JsonWriter* writer,
                                TraceExportStats* stats = nullptr);

// Converts a whole metrics document — either one engine dump
// (Engine::DumpMetricsJson) or a bench sidecar ({"bench","points":[...]})
// — into a complete {"traceEvents":[...],"displayTimeUnit":"ms"} document.
// Sidecar points that failed (error entries) or have a null trace
// (metrics disabled) are skipped. INVALID_ARGUMENT if the document holds
// no trace at all.
StatusOr<std::string> ChromeTraceFromMetricsDoc(
    const JsonValue& doc, TraceExportStats* stats = nullptr);
StatusOr<std::string> ChromeTraceFromMetricsJson(
    std::string_view json, TraceExportStats* stats = nullptr);

// Convenience for live tracers (tests, in-process sinks): exports the
// ring's current contents as one process named `process_name`.
StatusOr<std::string> ChromeTraceFromTracer(
    const Tracer& tracer, std::string_view process_name = "engine");

}  // namespace mmdb

#endif  // MMDB_OBS_TRACE_EXPORT_H_

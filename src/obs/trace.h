#ifndef MMDB_OBS_TRACE_H_
#define MMDB_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace mmdb {

// Structured engine events. Each event is a small POD: a type, the virtual
// time it happened at, an optional second time (completion / release), and
// up to three integer payload fields whose meaning depends on the type
// (the JSON emitter names them; see trace.cc's field tables).
enum class TraceEventType : uint8_t {
  kCheckpointBegin,         // a=id, b=algorithm, c=mode (0 full, 1 partial)
  kCheckpointSegmentWrite,  // t2=done, a=segment, b=copy, c=bytes
  kCheckpointEnd,           // a=id, b=segments_flushed, c=segments_skipped
  kCheckpointAbort,         // a=id, b=segments_flushed so far
  kLogAppend,               // a=lsn, b=record type, c=frame bytes
  kLogFlush,                // t2=durable at, a=durable lsn, b=bytes
  kLogFlushError,           // a=last lsn still volatile
  kLockWait,                // t2=resume time (checkpoint lock / quiesce)
  kLockConflict,            // a=txn, b=record (no-wait lock abort)
  kFaultInjected,           // a=fault kind, b=op index
  kRecoveryBegin,           // a=1 if restart (OpenExisting), else 0
  kRecoveryPhase,           // t2=seconds, a=phase, b/c=phase counts
  kRecoveryEnd,             // t2=total seconds, a=checkpoint id restored
  // Instant recovery (DESIGN.md §19): one event per on-demand segment
  // materialization. time=modeled submission of the backup read,
  // t2=availability (absolute), a=segment, b=trigger (0 touch,
  // 1 background, 2 force), c=first-materialization ordinal.
  kRecoverySegmentOnDemand,
};

// Number of TraceEventType enumerators, for table-driven iteration (the
// field tables below, the Perfetto exporter's kind map, and the
// completeness tests). Keep in sync with the last enumerator.
inline constexpr size_t kNumTraceEventTypes =
    static_cast<size_t>(TraceEventType::kRecoverySegmentOnDemand) + 1;

std::string_view TraceEventTypeName(TraceEventType type);

// Recovery phases reported via kRecoveryPhase (field `a`).
enum class RecoveryPhase : uint8_t {
  kBackupLoad = 0,  // b=segments loaded, c=copy index
  kLogRead = 1,     // b=log bytes read
  kReplay = 2,      // b=updates applied, c=transactions redone
};

std::string_view RecoveryPhaseName(RecoveryPhase phase);

// How one integer payload field (a/b/c) is rendered in JSON.
enum class TraceFieldCoding : uint8_t {
  kNone,        // field unused by this event type
  kInt,         // plain integer
  kBool,        // true/false
  kAlgorithm,   // AlgorithmName(static_cast<Algorithm>(v))
  kMode,        // "full" / "partial"
  kRecordType,  // LogRecordTypeName(static_cast<LogRecordType>(v))
  kFault,       // FaultKindName(static_cast<FaultKind>(v))
  kPhase,       // RecoveryPhaseName(static_cast<RecoveryPhase>(v))
};

struct TraceFieldSpec {
  const char* name = nullptr;  // JSON member name; null when unused
  TraceFieldCoding coding = TraceFieldCoding::kNone;
};

// Field table for one event type: the JSON names and codings of its t2 and
// a/b/c payload members. Single source of truth shared by the trace-ring
// JSON emitter and the Perfetto exporter, so the spellings cannot drift.
struct TraceEventFields {
  const char* t2_name = nullptr;  // null = type has no t2 member
  // True: t2 is an absolute completion/release time on the virtual
  // timeline (duration = t2 - time). False: t2 is already a duration in
  // seconds (the recovery events).
  bool t2_is_end_time = false;
  TraceFieldSpec a, b, c;
};

const TraceEventFields& TraceEventFieldsFor(TraceEventType type);

struct TraceEvent {
  TraceEventType type = TraceEventType::kLogAppend;
  double time = 0.0;
  double t2 = 0.0;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
};

// Bounded ring buffer of TraceEvents. When full, the oldest events are
// overwritten and counted as dropped — tracing never blocks or grows
// memory. Record() is a couple of stores under a mutex, cheap enough to
// stay on by default.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  // The capacity an engine's ring uses: the MMDB_TRACE_CAPACITY
  // environment variable when it is a whole number >= 1, otherwise
  // kDefaultCapacity (8192 events, ~300 KiB of ring). The override lets
  // check.sh's bench-smoke gate shrink every engine's ring without
  // touching bench code.
  static size_t ResolveCapacity();

  void Record(const TraceEvent& event);
  // Convenience for call sites building events inline.
  void Record(TraceEventType type, double time, double t2 = 0.0,
              int64_t a = 0, int64_t b = 0, int64_t c = 0) {
    Record(TraceEvent{type, time, t2, a, b, c});
  }

  size_t capacity() const { return capacity_; }
  // Events recorded since construction (including overwritten ones).
  uint64_t recorded() const;
  // Events lost to ring overwrite.
  uint64_t dropped() const;

  void Clear();

  // Oldest-first copy of the retained events.
  std::vector<TraceEvent> Snapshot() const;

  // {"events":[{"seq":..,"kind":..,"t":..,...}],"recorded":N,"dropped":N}.
  // `seq` is the global record index, so consumers can detect the gap left
  // by dropped events.
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  uint64_t recorded_ = 0;  // next global sequence number
};

// Emits one trace event as a JSON object with type-specific field names.
// Exposed so alternate exporters (the mmdb_stats tool's tests, future
// sinks) format events identically to Tracer::ToJson.
void TraceEventToJson(const TraceEvent& event, uint64_t seq,
                      JsonWriter* writer);

}  // namespace mmdb

#endif  // MMDB_OBS_TRACE_H_

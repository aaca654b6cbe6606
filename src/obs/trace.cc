#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>

// Header-only uses (inline name tables); no link dependency on the
// owning libraries.
#include "checkpoint/checkpointer.h"
#include "env/fault_injection_env.h"
#include "util/string_util.h"
#include "wal/log_record.h"

namespace mmdb {

std::string_view TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kCheckpointBegin:
      return "checkpoint.begin";
    case TraceEventType::kCheckpointSegmentWrite:
      return "checkpoint.segment_write";
    case TraceEventType::kCheckpointEnd:
      return "checkpoint.end";
    case TraceEventType::kCheckpointAbort:
      return "checkpoint.abort";
    case TraceEventType::kLogAppend:
      return "log.append";
    case TraceEventType::kLogFlush:
      return "log.flush";
    case TraceEventType::kLogFlushError:
      return "log.flush_error";
    case TraceEventType::kLockWait:
      return "lock.wait";
    case TraceEventType::kLockConflict:
      return "lock.conflict";
    case TraceEventType::kFaultInjected:
      return "fault.injected";
    case TraceEventType::kRecoveryBegin:
      return "recovery.begin";
    case TraceEventType::kRecoveryPhase:
      return "recovery.phase";
    case TraceEventType::kRecoveryEnd:
      return "recovery.end";
    case TraceEventType::kRecoverySegmentOnDemand:
      return "recovery.segment_on_demand";
  }
  return "unknown";
}

std::string_view RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kBackupLoad:
      return "backup_load";
    case RecoveryPhase::kLogRead:
      return "log_read";
    case RecoveryPhase::kReplay:
      return "replay";
  }
  return "unknown";
}

namespace {

// One row per TraceEventType, indexed by the enumerator value. Member
// order within a row is emission order (t2 first, then a, b, c), matching
// the historical switch-based formatter byte for byte.
constexpr TraceEventFields kTraceEventFields[kNumTraceEventTypes] = {
    // kCheckpointBegin: a=id, b=algorithm, c=mode
    {nullptr, false,
     {"checkpoint", TraceFieldCoding::kInt},
     {"algorithm", TraceFieldCoding::kAlgorithm},
     {"mode", TraceFieldCoding::kMode}},
    // kCheckpointSegmentWrite: t2=done, a=segment, b=copy, c=bytes
    {"done", true,
     {"segment", TraceFieldCoding::kInt},
     {"copy", TraceFieldCoding::kInt},
     {"bytes", TraceFieldCoding::kInt}},
    // kCheckpointEnd: a=id, b=segments_flushed, c=segments_skipped
    {nullptr, false,
     {"checkpoint", TraceFieldCoding::kInt},
     {"segments_flushed", TraceFieldCoding::kInt},
     {"segments_skipped", TraceFieldCoding::kInt}},
    // kCheckpointAbort: same shape as kCheckpointEnd
    {nullptr, false,
     {"checkpoint", TraceFieldCoding::kInt},
     {"segments_flushed", TraceFieldCoding::kInt},
     {"segments_skipped", TraceFieldCoding::kInt}},
    // kLogAppend: a=lsn, b=record type, c=frame bytes
    {nullptr, false,
     {"lsn", TraceFieldCoding::kInt},
     {"record_type", TraceFieldCoding::kRecordType},
     {"bytes", TraceFieldCoding::kInt}},
    // kLogFlush: t2=durable at, a=durable lsn, b=bytes
    {"durable_at", true,
     {"durable_lsn", TraceFieldCoding::kInt},
     {"bytes", TraceFieldCoding::kInt},
     {nullptr, TraceFieldCoding::kNone}},
    // kLogFlushError: a=last lsn still volatile
    {nullptr, false,
     {"tail_lsn", TraceFieldCoding::kInt},
     {nullptr, TraceFieldCoding::kNone},
     {nullptr, TraceFieldCoding::kNone}},
    // kLockWait: t2=resume time
    {"until", true,
     {nullptr, TraceFieldCoding::kNone},
     {nullptr, TraceFieldCoding::kNone},
     {nullptr, TraceFieldCoding::kNone}},
    // kLockConflict: a=txn, b=record
    {nullptr, false,
     {"txn", TraceFieldCoding::kInt},
     {"record", TraceFieldCoding::kInt},
     {nullptr, TraceFieldCoding::kNone}},
    // kFaultInjected: a=fault kind, b=op index
    {nullptr, false,
     {"fault", TraceFieldCoding::kFault},
     {"op", TraceFieldCoding::kInt},
     {nullptr, TraceFieldCoding::kNone}},
    // kRecoveryBegin: a=1 if restart
    {nullptr, false,
     {"restart", TraceFieldCoding::kBool},
     {nullptr, TraceFieldCoding::kNone},
     {nullptr, TraceFieldCoding::kNone}},
    // kRecoveryPhase: t2=seconds (a duration), a=phase, b/c=phase counts
    {"seconds", false,
     {"phase", TraceFieldCoding::kPhase},
     {"n1", TraceFieldCoding::kInt},
     {"n2", TraceFieldCoding::kInt}},
    // kRecoveryEnd: t2=total seconds (a duration), a=checkpoint restored
    {"seconds", false,
     {"checkpoint", TraceFieldCoding::kInt},
     {nullptr, TraceFieldCoding::kNone},
     {nullptr, TraceFieldCoding::kNone}},
    // kRecoverySegmentOnDemand: t2=availability, a=segment, b=trigger,
    // c=first-materialization ordinal
    {"available_at", true,
     {"segment", TraceFieldCoding::kInt},
     {"trigger", TraceFieldCoding::kInt},
     {"order", TraceFieldCoding::kInt}},
};

}  // namespace

const TraceEventFields& TraceEventFieldsFor(TraceEventType type) {
  size_t index = static_cast<size_t>(type);
  if (index >= kNumTraceEventTypes) index = 0;
  return kTraceEventFields[index];
}

Tracer::Tracer(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(std::min<size_t>(capacity_, 1024));
}

size_t Tracer::ResolveCapacity() {
  const char* env = std::getenv("MMDB_TRACE_CAPACITY");
  uint64_t parsed = 0;
  if (env != nullptr && ParseNumber(env, &parsed) && parsed > 0) {
    return static_cast<size_t>(parsed);
  }
  return kDefaultCapacity;
}

void Tracer::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[recorded_ % capacity_] = event;
  }
  ++recorded_;
}

uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  recorded_ = 0;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (recorded_ <= capacity_) {
    out = ring_;
  } else {
    size_t head = recorded_ % capacity_;  // oldest retained event
    out.insert(out.end(), ring_.begin() + head, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + head);
  }
  return out;
}

namespace {

// Enum-coded names (AlgorithmName, LogRecordTypeName, ...) are inline in
// their owning headers, so this stays a header-only dependency.
void EmitCodedField(const TraceFieldSpec& spec, int64_t value,
                    JsonWriter* w) {
  if (spec.name == nullptr) return;
  w->Key(spec.name);
  switch (spec.coding) {
    case TraceFieldCoding::kNone:
    case TraceFieldCoding::kInt:
      w->Int(value);
      break;
    case TraceFieldCoding::kBool:
      w->Bool(value != 0);
      break;
    case TraceFieldCoding::kAlgorithm:
      w->String(AlgorithmName(static_cast<Algorithm>(value)));
      break;
    case TraceFieldCoding::kMode:
      w->String(static_cast<CheckpointMode>(value) == CheckpointMode::kFull
                    ? "full"
                    : "partial");
      break;
    case TraceFieldCoding::kRecordType:
      // Shared with LogRecord::AppendJsonTo so the spellings cannot drift.
      w->String(LogRecordTypeName(static_cast<LogRecordType>(value)));
      break;
    case TraceFieldCoding::kFault:
      w->String(FaultKindName(static_cast<FaultKind>(value)));
      break;
    case TraceFieldCoding::kPhase:
      w->String(RecoveryPhaseName(static_cast<RecoveryPhase>(value)));
      break;
  }
}

void EmitFields(const TraceEvent& e, JsonWriter* w) {
  const TraceEventFields& fields = TraceEventFieldsFor(e.type);
  if (fields.t2_name != nullptr) {
    w->Key(fields.t2_name);
    w->Double(e.t2);
  }
  EmitCodedField(fields.a, e.a, w);
  EmitCodedField(fields.b, e.b, w);
  EmitCodedField(fields.c, e.c, w);
}

}  // namespace

void TraceEventToJson(const TraceEvent& event, uint64_t seq,
                      JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("seq");
  writer->Uint(seq);
  writer->Key("kind");
  writer->String(TraceEventTypeName(event.type));
  writer->Key("t");
  writer->Double(event.time);
  EmitFields(event, writer);
  writer->EndObject();
}

void Tracer::ToJson(JsonWriter* writer) const {
  std::vector<TraceEvent> events = Snapshot();
  uint64_t recorded, first_seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recorded = recorded_;
    first_seq = recorded_ - events.size();
  }
  writer->BeginObject();
  writer->Key("recorded");
  writer->Uint(recorded);
  writer->Key("dropped");
  writer->Uint(first_seq);
  writer->Key("events");
  writer->BeginArray();
  for (size_t i = 0; i < events.size(); ++i) {
    TraceEventToJson(events[i], first_seq + i, writer);
  }
  writer->EndArray();
  writer->EndObject();
}

std::string Tracer::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

}  // namespace mmdb

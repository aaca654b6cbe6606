#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>

// Header-only uses (inline name tables); no link dependency on the
// owning libraries.
#include "checkpoint/checkpointer.h"
#include "env/fault_injection_env.h"
#include "obs/audit.h"
#include "util/string_util.h"
#include "wal/log_record.h"

namespace mmdb {

namespace {

using C = TraceFieldCoding;

// The event table: one row per TraceEventType, indexed by the enumerator.
// A journaled row's fields are its journal line's members, in order, and
// part of the durable format `mmdb_audit` checks (DESIGN.md §18).
constexpr TraceEventSpec kTraceEventSpecs[kNumTraceEventTypes] = {
    {"ckpt.begin", nullptr, true, false,
     {{"ckpt"}, {"algorithm", C::kAlgorithm}, {"mode", C::kMode}, {"copy"},
      {"begin_lsn"}, {"begin_offset"}}},
    {"ckpt.flush", "done", true, false,
     {{"ckpt"}, {"segment"}, {"copy"}, {"lsn"}, {"bytes"}}},
    {"ckpt.degraded", nullptr, true, false, {{"ckpt"}, {"segment"}}},
    {"ckpt.end", nullptr, true, true,
     {{"ckpt"}, {"copy"}, {"flushed"}, {"skipped"}}},
    {"ckpt.abort", nullptr, true, true,
     {{"ckpt"}, {"cause", C::kText}, {"flushed"}}},
    {"ckpt.log_cut", nullptr, true, false, {{"cut"}, {"reclaimed"}}},
    {"log.append", nullptr, false, false,
     {{"lsn"}, {"record_type", C::kRecordType}, {"bytes"}}},
    {"log.flush", "durable_at", false, false, {{"durable_lsn"}, {"bytes"}}},
    {"log.flush_error", nullptr, false, false, {{"tail_lsn"}}},
    {"lock.wait", "until", false, false, {}},
    {"lock.conflict", nullptr, false, false, {{"txn"}, {"record"}}},
    {"fault.injected", nullptr, false, false,
     {{"fault", C::kFault}, {"op"}}},
    {"recovery.begin", nullptr, true, false, {{"restart", C::kBool}}},
    {"recovery.log", nullptr, true, false,
     {{"valid_bytes"}, {"torn_tail", C::kBool}}},
    {"recovery.plan", nullptr, true, false,
     {{"checkpoint"}, {"copy"}, {"begin_offset"}, {"source", C::kSource}}},
    {"recovery.fallback", nullptr, true, false,
     {{"from_checkpoint"}, {"from_copy"}, {"to_checkpoint"}, {"to_copy"},
      {"trigger", C::kText}, {"failed_segments", C::kSegments},
      {"full_reload", C::kBool}}},
    {"recovery.segment_on_demand", "submitted_at", true, false,
     {{"segment"}, {"trigger", C::kTrigger}, {"checkpoint"}, {"copy"},
      {"retried", C::kBool}, {"frames"}, {"order"}}},
    {"recovery.phase", "seconds", false, false,
     {{"phase", C::kPhase}, {"n1"}, {"n2"}}},
    {"recovery.lineage", nullptr, true, false, {{"lineage", C::kLineage}}},
    {"recovery.end", "seconds", true, true,
     {{"checkpoint"}, {"copy"}, {"fell_back", C::kBool}, {"last_lsn"},
      {"applies"}, {"txns"}}},
    {"recovery.error", nullptr, true, true, {{"error", C::kText}}},
};

constexpr const char* kPhaseNames[] = {"backup_load", "log_read", "replay"};
constexpr const char* kTriggerNames[] = {"touch", "background", "force"};
constexpr const char* kSourceNames[] = {"none", "meta", "log"};

const char* NameAt(std::span<const char* const> names, uint64_t v) {
  return v < names.size() ? names[v] : "unknown";
}

}  // namespace

const TraceEventSpec& TraceEventSpecFor(TraceEventType type) {
  size_t index = static_cast<size_t>(type);
  if (index >= kNumTraceEventTypes) index = 0;
  return kTraceEventSpecs[index];
}

bool TraceEventTypeFromName(std::string_view name, TraceEventType* type) {
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    if (name == kTraceEventSpecs[i].name) {
      *type = static_cast<TraceEventType>(i);
      return true;
    }
  }
  return false;
}

void WriteTraceFields(const TraceEvent& e, const TraceDetail& detail,
                      JsonWriter* w) {
  size_t slot = 0;
  for (const TraceFieldSpec& f : TraceEventSpecFor(e.type).fields) {
    if (f.name == nullptr) break;
    if (f.coding == C::kLineage) {
      if (detail.lineage == nullptr) continue;  // the ring keeps none
      w->Key(f.name);
      WriteLineageJson(*detail.lineage, w);
      continue;
    }
    w->Key(f.name);
    if (f.coding == C::kText) {
      w->String(detail.text);
      continue;
    }
    if (f.coding == C::kSegments) {
      w->BeginArray();
      for (SegmentId s : detail.segments) w->Uint(s);
      w->EndArray();
      continue;
    }
    // Enum-coded names are inline in their owning headers, so this stays
    // a header-only dependency.
    const uint64_t v = e.v[slot++];
    switch (f.coding) {
      case C::kBool:
        w->Bool(v != 0);
        break;
      case C::kAlgorithm:
        w->String(AlgorithmName(static_cast<Algorithm>(v)));
        break;
      case C::kMode:
        w->String(static_cast<CheckpointMode>(v) == CheckpointMode::kFull
                      ? "full"
                      : "partial");
        break;
      case C::kRecordType:
        // Shared with LogRecord::AppendJsonTo so the spellings cannot
        // drift.
        w->String(LogRecordTypeName(static_cast<LogRecordType>(v)));
        break;
      case C::kFault:
        w->String(FaultKindName(static_cast<FaultKind>(v)));
        break;
      case C::kPhase:
        w->String(NameAt(kPhaseNames, v));
        break;
      case C::kTrigger:
        w->String(NameAt(kTriggerNames, v));
        break;
      case C::kSource:
        w->String(NameAt(kSourceNames, v));
        break;
      default:
        w->Uint(v);
        break;
    }
  }
}

void EventSink::Emit(const TraceEvent& event,
                     const TraceDetail& detail) const {
  if (tracer != nullptr) tracer->Record(event, detail);
  if (journal != nullptr && TraceEventSpecFor(event.type).journaled) {
    journal->Append(event, detail);
  }
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

void Tracer::Push(const TraceEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[recorded_ % capacity_] = event;
  }
  ++recorded_;
}

void Tracer::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  Push(event);
}

void Tracer::Record(const TraceEvent& event, const TraceDetail& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!detail.text.empty() || !detail.segments.empty()) {
    // Details of events this push evicts go with them.
    while (!details_.empty() &&
           details_.begin()->first + capacity_ <= recorded_) {
      details_.erase(details_.begin());
    }
    details_[recorded_] = {std::string(detail.text),
                           {detail.segments.begin(), detail.segments.end()}};
  }
  Push(event);
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
  details_.clear();
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

void Tracer::ToJson(JsonWriter* writer) const {
  std::vector<TraceEvent> events = Snapshot();
  uint64_t recorded, first_seq;
  std::map<uint64_t, Detail> details;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recorded = recorded_;
    first_seq = recorded_ - events.size();
    details = details_;
  }
  writer->BeginObject();
  writer->Key("recorded");
  writer->Uint(recorded);
  writer->Key("dropped");
  writer->Uint(first_seq);
  writer->Key("events");
  writer->BeginArray();
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const TraceEventSpec& spec = TraceEventSpecFor(e.type);
    writer->BeginObject();
    writer->Key("seq");
    writer->Uint(first_seq + i);
    writer->Key("kind");
    writer->String(spec.name);
    writer->Key("t");
    writer->Double(e.time);
    if (spec.t2_name != nullptr) {
      writer->Key(spec.t2_name);
      writer->Double(e.t2);
    }
    TraceDetail detail;
    if (auto it = details.find(first_seq + i); it != details.end()) {
      detail.text = it->second.text;
      detail.segments = it->second.segments;
    }
    WriteTraceFields(e, detail, writer);
    writer->EndObject();
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

#ifndef MMDB_OBS_TRACE_H_
#define MMDB_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/types.h"

namespace mmdb {

class AuditJournal;
struct SegmentLineage;

// Every engine event kind. Each has one row in the event table
// (trace.cc, read through TraceEventSpecFor): its name, its payload fields
// in emission order, the ring-only `t2` member, and whether the
// provenance journal records it and syncs after it. The trace ring holds
// every kind; the journal (DESIGN.md §18) holds the checkpoint chain and
// the recovery decisions.
enum class TraceEventType : uint8_t {
  kCkptBegin,
  kCkptFlush,
  kCkptDegraded,
  kCkptEnd,
  kCkptAbort,
  kCkptLogCut,
  kLogAppend,
  kLogFlush,
  kLogFlushError,
  kLockWait,
  kLockConflict,
  kFaultInjected,
  kRecoveryBegin,
  kRecoveryLog,
  kRecoveryPlan,
  kRecoveryFallback,
  kRecoverySegmentOnDemand,
  kRecoveryPhase,
  kRecoveryLineage,
  kRecoveryEnd,
  kRecoveryError,
};

// Keep in sync with the last enumerator (it sizes the event table).
inline constexpr size_t kNumTraceEventTypes =
    static_cast<size_t>(TraceEventType::kRecoveryError) + 1;

// Recovery phases reported via recovery.phase (its `phase` field).
enum class RecoveryPhase : uint8_t {
  kBackupLoad = 0,  // n1=segments loaded, n2=copy index
  kLogRead = 1,     // n1=log bytes read
  kReplay = 2,      // n1=updates applied, n2=transactions redone
};

// Which evidence named the restored checkpoint (recovery.plan's source).
enum class RestoreSource : uint8_t { kNone, kMeta, kLog };

// How one payload field is rendered in JSON. The first group is stored in
// TraceEvent::v; the last three come from a TraceDetail.
enum class TraceFieldCoding : uint8_t {
  kInt,         // unsigned integer
  kBool,        // true/false
  kAlgorithm,   // AlgorithmName(static_cast<Algorithm>(v))
  kMode,        // "full" / "partial"
  kRecordType,  // LogRecordTypeName(static_cast<LogRecordType>(v))
  kFault,       // FaultKindName(static_cast<FaultKind>(v))
  kPhase,       // RecoveryPhase: backup_load/log_read/replay
  kTrigger,     // InstantRecovery::LoadTrigger: touch/background/force
  kSource,      // RestoreSource: none/meta/log
  kText,        // TraceDetail::text
  kSegments,    // TraceDetail::segments, as an array
  kLineage,     // TraceDetail::lineage; journal only
};

struct TraceFieldSpec {
  const char* name = nullptr;  // JSON member name; null ends the list
  TraceFieldCoding coding = TraceFieldCoding::kInt;
};

inline constexpr size_t kMaxTraceFields = 7;

// One row of the event table.
struct TraceEventSpec {
  const char* name;  // ring "kind" and journal "event"
  // Ring-only second time, written before the payload: an end time
  // (done, durable_at, until), a duration (seconds) or a start time
  // (submitted_at). Null when the kind has none.
  const char* t2_name;
  bool journaled;  // the provenance journal records the kind
  bool synced;     // and syncs right after its line
  TraceFieldSpec fields[kMaxTraceFields];
};

const TraceEventSpec& TraceEventSpecFor(TraceEventType type);
// False when no kind has that name.
bool TraceEventTypeFromName(std::string_view name, TraceEventType* type);

struct TraceEvent {
  TraceEventType type = TraceEventType::kLogAppend;
  double time = 0.0;
  double t2 = 0.0;
  // The integer-coded fields, in table order (text, segment and lineage
  // fields take no slot).
  std::array<uint64_t, kMaxTraceFields> v{};
};

// The payload an integer cannot hold: free text (a checkpoint abort's
// cause, a fallback's trigger, a recovery error), a fallback's failed
// segments, and the recovery lineage. Borrowed views.
struct TraceDetail {
  std::string_view text = {};
  std::span<const SegmentId> segments = {};
  const std::vector<SegmentLineage>* lineage = nullptr;
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
  // kDefaultCapacity (8192 events, ~640 KiB of ring). The override lets
  // check.sh's bench-smoke gate shrink every engine's ring without
  // touching bench code.
  static size_t ResolveCapacity();

  void Record(const TraceEvent& event);
  // Also keeps `detail`'s text and segments (not its lineage) for as long
  // as the ring holds the event, in a side table the plain Record never
  // touches.
  void Record(const TraceEvent& event, const TraceDetail& detail);
  // Convenience for the hot ring-only kinds, which carry at most three
  // fields.
  void Record(TraceEventType type, double time, double t2 = 0.0,
              uint64_t a = 0, uint64_t b = 0, uint64_t c = 0) {
    Record(TraceEvent{type, time, t2, {a, b, c}});
  }

  size_t capacity() const { return capacity_; }
  // Events recorded since construction (including overwritten ones).
  uint64_t recorded() const;
  // Events lost to ring overwrite.
  uint64_t dropped() const;

  void Clear();

  // Oldest-first copy of the retained events.
  std::vector<TraceEvent> Snapshot() const;

  // {"recorded":N,"dropped":N,"events":[{"seq":..,"kind":..,"t":..,...}]}.
  // `seq` is the global record index, so consumers can detect the gap left
  // by dropped events.
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;

 private:
  struct Detail {
    std::string text;
    std::vector<SegmentId> segments;
  };

  void Push(const TraceEvent& event);  // requires mu_

  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  uint64_t recorded_ = 0;  // next global sequence number
  std::map<uint64_t, Detail> details_;  // by seq, retained events only
};

// Writes `event`'s payload members in table order: the rendering the ring
// and the journal share.
void WriteTraceFields(const TraceEvent& event, const TraceDetail& detail,
                      JsonWriter* writer);

// The one emission point of an event: records it in the ring and, for
// journaled kinds, appends its journal line. Either sink may be null.
struct EventSink {
  Tracer* tracer = nullptr;
  AuditJournal* journal = nullptr;

  void Emit(const TraceEvent& event, const TraceDetail& detail = {}) const;
};

}  // namespace mmdb

#endif  // MMDB_OBS_TRACE_H_

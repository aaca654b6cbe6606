// Perfetto/Chrome trace_event exporter (obs/trace_export.h): the event
// table is complete and collision-free, a scripted ring covering every
// TraceEventType exports to the committed golden file byte for byte, and
// the emitted document is structurally valid trace_event JSON (the
// contract chrome://tracing and ui.perfetto.dev load).
//
// Regenerate the golden after an intentional format change with
//   MMDB_REGENERATE_GOLDEN=1 ./trace_export_test

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "checkpoint/checkpointer.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "util/json.h"
#include "wal/log_record.h"

namespace mmdb {
namespace {

TEST(TraceEventTableTest, NamesNonEmptyAndUnique) {
  std::set<std::string> seen;
  size_t journaled = 0;
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    auto type = static_cast<TraceEventType>(i);
    const TraceEventSpec& spec = TraceEventSpecFor(type);
    ASSERT_NE(spec.name, nullptr) << "enumerator " << i;
    std::string name(spec.name);
    EXPECT_FALSE(name.empty()) << "enumerator " << i;
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate name '" << name << "' at enumerator " << i;
    TraceEventType back;
    ASSERT_TRUE(TraceEventTypeFromName(name, &back)) << name;
    EXPECT_EQ(back, type) << name;
    if (spec.journaled) ++journaled;
  }
  EXPECT_EQ(seen.size(), kNumTraceEventTypes);
  EXPECT_EQ(journaled, 14u);
  TraceEventType unused;
  EXPECT_FALSE(TraceEventTypeFromName("ckpt.telepathy", &unused));
}

TEST(TraceEventTableTest, FieldTableConsistent) {
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEventSpec& spec =
        TraceEventSpecFor(static_cast<TraceEventType>(i));
    // Only the journal syncs, and only the journal keeps the lineage.
    EXPECT_TRUE(spec.journaled || !spec.synced) << spec.name;
    std::set<std::string> json_names;
    size_t named = 0;
    if (spec.t2_name != nullptr) {
      json_names.insert(spec.t2_name);
      ++named;
    }
    bool ended = false;
    for (const TraceFieldSpec& f : spec.fields) {
      if (f.name == nullptr) {
        ended = true;
        continue;
      }
      // The list ends at its first unnamed slot, and no field takes a
      // member name the ring or the journal line already writes.
      EXPECT_FALSE(ended) << spec.name << "." << f.name;
      for (const char* taken : {"seq", "kind", "t", "event", "crc"}) {
        EXPECT_STRNE(f.name, taken) << spec.name;
      }
      if (f.coding == TraceFieldCoding::kLineage) {
        EXPECT_TRUE(spec.journaled) << spec.name;
      }
      json_names.insert(f.name);
      ++named;
    }
    // No two members of one event may share a JSON spelling.
    EXPECT_EQ(json_names.size(), named) << spec.name;
  }
  // Out-of-range lookups clamp instead of reading past the table.
  EXPECT_EQ(&TraceEventSpecFor(static_cast<TraceEventType>(255)),
            &TraceEventSpecFor(static_cast<TraceEventType>(0)));
}

// One scripted event per TraceEventType (plus the degraded unmatched-end
// path), at exact binary-fraction times so the golden bytes carry no
// floating-point noise.
void Script(Tracer* t) {
  using T = TraceEventType;
  const SegmentId failed[] = {3, 5};
  t->Record({T::kCkptBegin, 0.125, 0,
             {1, static_cast<uint64_t>(Algorithm::kFuzzyCopy),
              static_cast<uint64_t>(CheckpointMode::kPartial), 1, 40, 4096}});
  t->Record({T::kCkptFlush, 0.25, 0.375, {1, 7, 1, 40, 65536}});
  t->Record({T::kCkptDegraded, 0.25, 0, {1, 9}});
  t->Record(T::kLogAppend, 0.5, 0, 41,
            static_cast<uint64_t>(LogRecordType::kUpdate), 48);
  t->Record(T::kLogFlush, 0.5, 0.625, 41, 4096);
  t->Record(T::kLogFlushError, 0.75, 0, 42);
  t->Record(T::kLockWait, 0.875, 1.0);
  t->Record(T::kLockConflict, 1.0, 0, 9, 123);
  t->Record(T::kFaultInjected, 1.125, 0,
            static_cast<uint64_t>(FaultKind::kWriteError), 5);
  t->Record({T::kCkptEnd, 1.25, 0, {1, 1, 100, 28}});
  t->Record({T::kCkptLogCut, 1.25, 0, {4096, 4096}});
  t->Record({T::kCkptBegin, 1.3125, 0,
             {2, static_cast<uint64_t>(Algorithm::kCouCopy),
              static_cast<uint64_t>(CheckpointMode::kFull), 0, 90, 8192}});
  t->Record({T::kCkptAbort, 1.375, 0, {2, 17}},
            {.text = "IO error: injected write error"});
  // A begin that fell out of the ring: its end degrades to an instant.
  t->Record({T::kCkptEnd, 1.4375, 0, {3, 1, 0, 0}});
  t->Record({T::kRecoveryBegin, 1.5, 0, {1}});
  t->Record({T::kRecoveryLog, 1.5, 0, {16384, 1}});
  t->Record({T::kRecoveryPlan, 1.5, 0,
             {2, 0, 8192, static_cast<uint64_t>(RestoreSource::kMeta)}});
  t->Record({T::kRecoveryFallback, 1.5, 0, {2, 0, 1, 1, 0}},
            {.text = "CORRUPTION: checksum mismatch", .segments = failed});
  t->Record({T::kRecoveryPhase, 1.5, 0.125,
             {static_cast<uint64_t>(RecoveryPhase::kBackupLoad), 128, 2}});
  t->Record({T::kRecoveryPhase, 1.5, 0.0625,
             {static_cast<uint64_t>(RecoveryPhase::kLogRead), 8192, 0}});
  t->Record({T::kRecoveryPhase, 1.5, 0.3125,
             {static_cast<uint64_t>(RecoveryPhase::kReplay), 200, 12}});
  t->Record({T::kRecoveryLineage, 1.5});
  t->Record({T::kRecoveryEnd, 1.5, 0.5, {2, 0, 0, 90, 200, 12}});
  // Instant recovery: a touch-triggered on-demand load (flows from the
  // stalling transaction on the lock track) and a background one, each
  // from its read's submission to its materialization.
  t->Record({T::kRecoverySegmentOnDemand, 2.25, 2.0, {5, 0, 2, 0, 0, 3, 0}});
  t->Record({T::kRecoverySegmentOnDemand, 2.5, 2.0, {9, 1, 2, 0, 0, 0, 1}});
  t->Record({T::kRecoveryError, 2.75},
            {.text = "CORRUPTION: no older complete checkpoint"});
}

std::string GoldenPath() {
  return std::string(MMDB_TESTDATA_DIR) + "/trace_export_golden.json";
}

TEST(TraceExportTest, MatchesGoldenFile) {
  Tracer tracer(64);
  Script(&tracer);
  StatusOr<std::string> exported = ChromeTraceFromTracer(tracer, "scripted");
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  std::string produced = *exported + "\n";
  if (std::getenv("MMDB_REGENERATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(GoldenPath().c_str(), "wb");
    ASSERT_NE(f, nullptr) << GoldenPath();
    std::fwrite(produced.data(), 1, produced.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }
  std::FILE* f = std::fopen(GoldenPath().c_str(), "rb");
  ASSERT_NE(f, nullptr) << GoldenPath()
                        << " missing; run with MMDB_REGENERATE_GOLDEN=1";
  std::string golden;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) golden.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(produced, golden)
      << "exporter output drifted from the committed golden; regenerate "
         "with MMDB_REGENERATE_GOLDEN=1 if the change is intentional";
}

TEST(TraceExportTest, OutputIsStructurallyValidTraceEventJson) {
  Tracer tracer(64);
  Script(&tracer);
  StatusOr<std::string> exported = ChromeTraceFromTracer(tracer, "scripted");
  ASSERT_TRUE(exported.ok());
  StatusOr<JsonValue> doc = JsonValue::Parse(*exported);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  const JsonValue* unit = doc->Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string_value(), "ms");

  std::set<std::string> cats;
  std::set<std::string> thread_names;
  int begins = 0, ends = 0, flow_starts = 0, flow_finishes = 0;
  for (const JsonValue& e : events->array_items()) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    const std::string& phase = ph->string_value();
    ASSERT_TRUE(phase == "M" || phase == "B" || phase == "E" ||
                phase == "X" || phase == "i" || phase == "s" || phase == "f")
        << phase;
    ASSERT_NE(e.Find("pid"), nullptr);
    if (phase == "s" || phase == "f") {
      // Flow events: checkpoint provenance (checkpoint id binds start to
      // finish) or an on-demand recovery arrow (1000000 + segment); either
      // way the finish attaches to the enclosing slice's end.
      ASSERT_NE(e.Find("id"), nullptr);
      EXPECT_GT(e.Find("id")->number_value(), 0.0);
      EXPECT_EQ(e.Find("cat")->string_value(), "flow");
      const std::string& flow_name = e.Find("name")->string_value();
      EXPECT_TRUE(flow_name == "checkpoint_provenance" ||
                  flow_name == "recovery_on_demand")
          << flow_name;
      if (phase == "f") {
        ASSERT_NE(e.Find("bp"), nullptr);
        EXPECT_EQ(e.Find("bp")->string_value(), "e");
        ++flow_finishes;
      } else {
        ++flow_starts;
      }
      continue;
    }
    ASSERT_NE(e.Find("args"), nullptr);
    if (phase == "M") {
      const JsonValue* name = e.Find("name");
      ASSERT_NE(name, nullptr);
      if (name->string_value() == "thread_name") {
        thread_names.insert(e.FindPath({"args", "name"})->string_value());
      }
      continue;
    }
    // Every non-metadata event sits on the virtual timeline in µs.
    const JsonValue* ts = e.Find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->is_number());
    EXPECT_GE(ts->number_value(), 0.0);
    ASSERT_NE(e.Find("tid"), nullptr);
    cats.insert(e.Find("cat")->string_value());
    if (phase == "X") {
      const JsonValue* dur = e.Find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number_value(), 0.0);
    }
    if (phase == "i") {
      ASSERT_NE(e.Find("s"), nullptr);  // instants need a scope
    }
    if (phase == "B") ++begins;
    if (phase == "E") ++ends;
  }
  // The scripted ring covers every component the acceptance criteria name.
  for (const char* cat : {"ckpt", "log", "lock", "fault", "recovery"}) {
    EXPECT_EQ(cats.count(cat), 1u) << cat;
  }
  for (const char* track : {"checkpoint", "checkpoint.io", "log", "lock",
                            "fault", "recovery", "recovery.on_demand"}) {
    EXPECT_EQ(thread_names.count(track), 1u) << track;
  }
  // Slices balance: B/E pairs match (unmatched ends degrade to instants).
  EXPECT_EQ(begins, ends);
  // Both scripted kCheckpointEnds start a flow and the single kRecoveryEnd
  // (which restored checkpoint 2) finishes one; the touch-triggered
  // on-demand reload starts and finishes its own arrow.
  EXPECT_EQ(flow_starts, 3);
  EXPECT_EQ(flow_finishes, 2);
}

TEST(TraceExportTest, RecoveryPhasesLaidOutSequentially) {
  Tracer tracer(64);
  Script(&tracer);
  StatusOr<std::string> exported = ChromeTraceFromTracer(tracer, "scripted");
  ASSERT_TRUE(exported.ok());
  StatusOr<JsonValue> doc = JsonValue::Parse(*exported);
  ASSERT_TRUE(doc.ok());
  // The three phases are recorded at the same virtual instant (1.5 s) with
  // durations 0.125/0.0625/0.3125; the exporter must chain them.
  double expect_ts = 1.5e6;
  int phases = 0;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    const JsonValue* name = e.Find("name");
    if (name == nullptr || name->string_value() != "recovery.phase") continue;
    EXPECT_DOUBLE_EQ(e.Find("ts")->number_value(), expect_ts) << phases;
    expect_ts += e.Find("dur")->number_value();
    ++phases;
  }
  EXPECT_EQ(phases, 3);
  EXPECT_DOUBLE_EQ(expect_ts, 2.0e6);  // == kRecoveryEnd's close time
}

TEST(TraceExportTest, SidecarBecomesOneProcessPerPoint) {
  Tracer tracer(64);
  Script(&tracer);
  std::string trace_json = tracer.ToJsonString();
  std::string sidecar =
      R"({"bench":"t","points":[)"
      R"({"label":"A","engine":{"trace":)" + trace_json + R"(}},)"
      R"({"label":"broken","error":"INTERNAL: nope"},)"
      R"({"label":"no_trace","engine":{"trace":null}},)"
      R"({"label":"B","engine":{"trace":)" + trace_json + R"(}}]})";
  TraceExportStats stats;
  StatusOr<std::string> exported = ChromeTraceFromMetricsJson(sidecar, &stats);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  StatusOr<JsonValue> doc = JsonValue::Parse(*exported);
  ASSERT_TRUE(doc.ok());
  std::set<double> pids;
  std::set<std::string> process_names;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    pids.insert(e.Find("pid")->number_value());
    const JsonValue* name = e.Find("name");
    if (name->string_value() == "process_name") {
      process_names.insert(e.FindPath({"args", "name"})->string_value());
    }
  }
  // Points 1 and 4 export; the error point and the trace-less point skip.
  EXPECT_EQ(pids, (std::set<double>{1.0, 4.0}));
  EXPECT_EQ(process_names, (std::set<std::string>{"A", "B"}));
  EXPECT_GT(stats.events_exported, 0u);
  EXPECT_EQ(stats.events_skipped, 0u);
}

TEST(TraceExportTest, RejectsDocumentsWithoutTraceData) {
  auto no_trace = ChromeTraceFromMetricsJson(R"({"algorithm":"FUZZYCOPY"})");
  ASSERT_FALSE(no_trace.ok());
  EXPECT_TRUE(no_trace.status().IsInvalidArgument());
  auto all_errors = ChromeTraceFromMetricsJson(
      R"({"bench":"t","points":[{"label":"x","error":"boom"}]})");
  EXPECT_FALSE(all_errors.ok());
  auto bad_json = ChromeTraceFromMetricsJson("{nope");
  EXPECT_FALSE(bad_json.ok());
}

TEST(TraceExportTest, UnknownKindsAreCountedNotExported) {
  std::string doc =
      R"({"events":[{"seq":0,"kind":"not.a.kind","t":1.0},)"
      R"({"seq":1,"kind":"log.append","t":2.0,"lsn":1,)"
      R"("record_type":"UPDATE","bytes":8},{"seq":2}]})";
  JsonWriter w;
  w.BeginArray();
  TraceExportStats stats;
  StatusOr<JsonValue> parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(AppendChromeTraceEvents(*parsed, 1, &w, &stats).ok());
  w.EndArray();
  EXPECT_EQ(stats.events_exported, 1u);
  EXPECT_EQ(stats.events_skipped, 2u);
}

TEST(TraceExportTest, CounterTrackEventsFromTimeseries) {
  std::string ts_doc =
      R"({"epoch":0.1,"capacity":8,"series":["txn.commits","ckpt.in_progress"],)"
      R"("samples":[{"t":0.1,"v":[5,0]},{"t":0.2,"v":[11,1]},)"
      R"({"t":0.3,"v":[11]}],)"  // malformed width: skipped, not exported
      R"("recorded":3,"dropped":0})";
  StatusOr<JsonValue> parsed = JsonValue::Parse(ts_doc);
  ASSERT_TRUE(parsed.ok());
  JsonWriter w;
  w.BeginArray();
  TraceExportStats stats;
  ASSERT_TRUE(AppendCounterTrackEvents(*parsed, 3, &w, &stats).ok());
  w.EndArray();
  StatusOr<JsonValue> events = JsonValue::Parse(w.str());
  ASSERT_TRUE(events.ok());
  const auto& items = events->array_items();
  // Two well-formed samples * two series = four counter events.
  ASSERT_EQ(items.size(), 4u);
  for (const JsonValue& e : items) {
    EXPECT_EQ(e.Find("ph")->string_value(), "C");
    EXPECT_EQ(e.Find("cat")->string_value(), "timeseries");
    EXPECT_DOUBLE_EQ(e.Find("pid")->number_value(), 3.0);
    ASSERT_NE(e.FindPath({"args", "value"}), nullptr);
  }
  EXPECT_EQ(items[0].Find("name")->string_value(), "txn.commits");
  EXPECT_DOUBLE_EQ(items[0].Find("ts")->number_value(), 0.1e6);  // µs
  EXPECT_DOUBLE_EQ(items[0].FindPath({"args", "value"})->number_value(), 5.0);
  EXPECT_DOUBLE_EQ(items[3].FindPath({"args", "value"})->number_value(), 1.0);
  EXPECT_EQ(stats.events_skipped, 1u);  // the short sample
}

TEST(TraceExportTest, SidecarPointsCarryCounterTracks) {
  Tracer tracer(64);
  Script(&tracer);
  std::string trace_json = tracer.ToJsonString();
  std::string ts_doc =
      R"({"epoch":0.5,"capacity":4,"series":["txn.commits"],)"
      R"("samples":[{"t":0.5,"v":[9]}],"recorded":1,"dropped":0})";
  std::string sidecar =
      R"({"bench":"t","points":[{"label":"A","engine":{"trace":)" +
      trace_json + R"(,"timeseries":)" + ts_doc +
      R"(}},{"label":"no_ts","engine":{"trace":)" + trace_json +
      R"(,"timeseries":null}}]})";
  StatusOr<std::string> exported = ChromeTraceFromMetricsJson(sidecar);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  StatusOr<JsonValue> doc = JsonValue::Parse(*exported);
  ASSERT_TRUE(doc.ok());
  int counter_events = 0;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    if (e.Find("ph")->string_value() != "C") continue;
    ++counter_events;
    // Counter tracks live in the same per-point process as the slices.
    EXPECT_DOUBLE_EQ(e.Find("pid")->number_value(), 1.0);
    EXPECT_EQ(e.Find("name")->string_value(), "txn.commits");
    EXPECT_DOUBLE_EQ(e.FindPath({"args", "value"})->number_value(), 9.0);
  }
  EXPECT_EQ(counter_events, 1);  // the null-timeseries point adds none
}

}  // namespace
}  // namespace mmdb

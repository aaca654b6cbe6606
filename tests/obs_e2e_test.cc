// End-to-end observability: run checkpoints, a crash and recovery against
// a real engine, then validate the exported JSON — the trace must parse,
// checkpoint begin/end events must pair up, and the recovery phase
// breakdown (backup reload vs log read vs replay) must be present and
// consistent with the RecoveryStats the engine returned.

#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/json.h"

namespace mmdb {
namespace {

StatusOr<JsonValue> DumpAndParse(const Engine& engine) {
  return JsonValue::Parse(engine.DumpMetricsJson());
}

TEST(ObsE2eTest, CheckpointCrashRecoveryTraceIsWellFormed) {
  auto env = NewMemEnv();
  EngineOptions opt = TinyOptions();
  auto engine = Engine::Open(opt, env.get());
  MMDB_ASSERT_OK(engine);
  Engine& e = **engine;

  WorkloadOptions wopt;
  wopt.duration = 0.4;
  WorkloadDriver driver(&e, wopt);
  MMDB_ASSERT_OK(driver.Run());
  MMDB_ASSERT_OK(e.RunCheckpointToCompletion());
  MMDB_ASSERT_OK(e.Crash());
  auto recovery = e.Recover();
  MMDB_ASSERT_OK(recovery);
  // Instant recovery publishes its phase events and timers when the
  // on-demand drain completes; blocking recovery makes this a no-op.
  MMDB_ASSERT_OK(e.DrainRecovery());

  StatusOr<JsonValue> doc = DumpAndParse(e);
  MMDB_ASSERT_OK(doc);

  // Checkpoint begin/end events pair by id (the trace ring is large enough
  // that nothing was dropped in this short run).
  const JsonValue* trace = doc->Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->Find("dropped")->number_value(), 0.0);
  std::map<int64_t, int> begins, ends;
  int recovery_begin = 0, recovery_end = 0;
  std::map<std::string, int> recovery_phases;
  for (const JsonValue& ev : trace->Find("events")->array_items()) {
    const std::string& kind = ev.Find("kind")->string_value();
    if (kind == "ckpt.begin") {
      ++begins[static_cast<int64_t>(ev.Find("ckpt")->number_value())];
    } else if (kind == "ckpt.end") {
      ++ends[static_cast<int64_t>(ev.Find("ckpt")->number_value())];
    } else if (kind == "recovery.begin") {
      ++recovery_begin;
      EXPECT_FALSE(ev.Find("restart")->bool_value());
    } else if (kind == "recovery.phase") {
      ++recovery_phases[ev.Find("phase")->string_value()];
    } else if (kind == "recovery.end") {
      ++recovery_end;
      EXPECT_NEAR(ev.Find("seconds")->number_value(),
                  recovery->total_seconds, 1e-9);
    }
  }
  EXPECT_FALSE(begins.empty());
  EXPECT_EQ(begins, ends) << "every ckpt.begin needs a matching end";

  // Recovery: one begin, one end, and the full phase breakdown.
  EXPECT_EQ(recovery_begin, 1);
  EXPECT_EQ(recovery_end, 1);
  EXPECT_EQ(recovery_phases["backup_load"], 1);
  EXPECT_EQ(recovery_phases["log_read"], 1);
  EXPECT_EQ(recovery_phases["replay"], 1);

  // Registry: per-phase checkpoint timers, log flush stats, and the
  // recovery reload-vs-replay split all present.
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* timer :
       {"ckpt.duration_seconds", "ckpt.flush_io_seconds",
        "ckpt.log_wait_seconds", "ckpt.copy_seconds",
        "recovery.backup_read_seconds", "recovery.log_read_seconds",
        "recovery.replay_cpu_seconds", "recovery.total_seconds"}) {
    const JsonValue* t = metrics->FindPath({"timers", timer});
    ASSERT_NE(t, nullptr) << timer;
    EXPECT_GE(t->Find("count")->number_value(), 1.0) << timer;
  }
  EXPECT_GE(metrics->FindPath({"counters", "log.flush_batches"})
                ->number_value(),
            1.0);
  EXPECT_GE(metrics->FindPath({"counters", "log.append_bytes"})
                ->number_value(),
            1.0);
  EXPECT_GE(metrics->FindPath({"counters", "ckpt.completed"})->number_value(),
            1.0);
  EXPECT_GE(metrics->FindPath({"counters", "recovery.segments_loaded"})
                ->number_value(),
            1.0);

  // Checkpoint history carries the per-phase breakdown per checkpoint.
  const auto& history =
      doc->FindPath({"checkpoints", "history"})->array_items();
  ASSERT_FALSE(history.empty());
  for (const JsonValue& c : history) {
    EXPECT_GE(c.Find("flush_io_seconds")->number_value(), 0.0);
    EXPECT_GE(c.Find("end")->number_value(),
              c.Find("begin")->number_value());
  }
}

TEST(ObsE2eTest, HistoryCapBoundsRetainedCheckpoints) {
  auto env = NewMemEnv();
  EngineOptions opt = TinyOptions();
  opt.checkpoint_history_cap = 2;
  auto engine = Engine::Open(opt, env.get());
  MMDB_ASSERT_OK(engine);
  Engine& e = **engine;
  for (int i = 0; i < 5; ++i) {
    MMDB_ASSERT_OK(e.RunCheckpointToCompletion());
  }
  EXPECT_EQ(e.checkpointer().history().size(), 2u);
  EXPECT_EQ(e.checkpointer().history_dropped(), 3u);
  // Retained entries are the newest, in order.
  EXPECT_EQ(e.checkpointer().history().back().id,
            e.checkpointer().history().front().id + 1);

  StatusOr<JsonValue> doc = DumpAndParse(e);
  MMDB_ASSERT_OK(doc);
  EXPECT_EQ(doc->FindPath({"checkpoints", "history_cap"})->number_value(),
            2.0);
  EXPECT_EQ(doc->FindPath({"checkpoints", "history_dropped"})->number_value(),
            3.0);
  EXPECT_EQ(doc->FindPath({"metrics", "counters", "ckpt.history_dropped"})
                ->number_value(),
            3.0);
}

TEST(ObsE2eTest, MetricsDisabledStillDumpsValidJson) {
  auto env = NewMemEnv();
  EngineOptions opt = TinyOptions();
  opt.enable_metrics = false;
  auto engine = Engine::Open(opt, env.get());
  MMDB_ASSERT_OK(engine);
  Engine& e = **engine;
  EXPECT_EQ(e.metrics(), nullptr);
  EXPECT_EQ(e.tracer(), nullptr);
  MMDB_ASSERT_OK(e.RunCheckpointToCompletion());
  StatusOr<JsonValue> doc = DumpAndParse(e);
  MMDB_ASSERT_OK(doc);
  EXPECT_TRUE(doc->Find("metrics")->is_null());
  EXPECT_TRUE(doc->Find("trace")->is_null());
  EXPECT_FALSE(
      doc->FindPath({"checkpoints", "history"})->array_items().empty());
}

TEST(ObsE2eTest, FaultInjectionAppearsInTrace) {
  // The engine finds a FaultInjectionEnv it is handed and mirrors every
  // rule firing into its metrics and trace.
  auto base = NewMemEnv();
  FaultInjectionEnv faults(base.get());

  auto engine = Engine::Open(TinyOptions(), &faults);
  MMDB_ASSERT_OK(engine);
  Engine& e = **engine;

  FaultRule rule;
  rule.kind = FaultKind::kWriteError;
  rule.path_substring = "wal";
  faults.InjectFault(rule);

  // Commit only buffers the records; the explicit flush is the first
  // device write on the log and hits the injected error.
  Transaction* t = e.Begin();
  MMDB_ASSERT_OK(e.Write(t, 0, std::string(e.db().record_bytes(), 'x')));
  MMDB_ASSERT_OK(e.Commit(t).status());
  EXPECT_FALSE(e.FlushLog().ok());

  EXPECT_EQ(e.metrics()->counter("faults.injected")->value(), 1u);
  bool saw_fault = false, saw_flush_error = false;
  for (const TraceEvent& ev : e.tracer()->Snapshot()) {
    if (ev.type == TraceEventType::kFaultInjected) {
      saw_fault = true;
      EXPECT_EQ(static_cast<FaultKind>(ev.v[0]), FaultKind::kWriteError);
    }
    if (ev.type == TraceEventType::kLogFlushError) saw_flush_error = true;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_flush_error);
}

}  // namespace
}  // namespace mmdb

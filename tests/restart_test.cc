// Cold-restart (Engine::OpenExisting) and log-truncation tests: a new
// engine process picking up the files an earlier one left behind (torn
// tails included, on MemEnv and on real files), and bounded log growth
// across checkpoints.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "util/string_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"

namespace mmdb {
namespace {

// Parameterized over every algorithm: restart and truncation invariants
// (checkpoint numbering, ping-pong alternation, log base handling) must be
// algorithm-independent, and the modern snapshot algorithms reuse backup
// state across restarts just like the 1989 six.
class RestartTest : public testing::TestWithParam<Algorithm> {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  EngineOptions Options() const {
    EngineOptions opt = TinyOptions();
    opt.algorithm = GetParam();
    opt.stable_log_tail = GetParam() == Algorithm::kFastFuzzy;
    return opt;
  }

  std::unique_ptr<Engine> MustOpen(const EngineOptions& opt) {
    auto engine = Engine::Open(opt, env_.get());
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(*engine);
  }

  std::unique_ptr<Env> env_;
};

// An instant restart times its backup reads and its REDO where they
// happen, in each on-demand and background load, so once drained its
// dump's host.recovery reads neither as 0.
TEST(InstantRestartHostTimeTest, DrainedRestartTimesReadsAndReplay) {
  auto env = NewMemEnv();
  EngineOptions opt = TinyOptions();
  {
    auto engine = Engine::Open(opt, env.get());
    MMDB_ASSERT_OK(engine);
    Engine& e = **engine;
    const uint32_t rps = e.params().db.records_per_segment();
    for (SegmentId s = 0; s < e.db().num_segments(); ++s) {
      const RecordId r = s * rps;
      MMDB_ASSERT_OK(
          e.Apply({{r, MakeRecordImage(e.db().record_bytes(), r, 1)}})
              .status());
    }
    MMDB_ASSERT_OK(e.RunCheckpointToCompletion());
    for (RecordId r : {RecordId{0}, RecordId{5} * rps, RecordId{9} * rps}) {
      MMDB_ASSERT_OK(
          e.Apply({{r, MakeRecordImage(e.db().record_bytes(), r, 2)}})
              .status());
    }
    MMDB_ASSERT_OK(e.FlushLog());
    MMDB_ASSERT_OK(e.AdvanceTime(1.0));
  }
  opt.instant_recovery = true;
  auto reopened = Engine::OpenExisting(opt, env.get());
  MMDB_ASSERT_OK(reopened);
  ASSERT_TRUE((*reopened)->recovery_pending());
  MMDB_ASSERT_OK((*reopened)->DrainRecovery());
  auto dump = JsonValue::Parse((*reopened)->DumpMetricsJson());
  MMDB_ASSERT_OK(dump);
  for (const char* phase : {"backup_read_seconds", "replay_seconds"}) {
    const JsonValue* v = dump->FindPath({"host", "recovery", phase});
    ASSERT_NE(v, nullptr) << phase;
    EXPECT_GT(v->number_value(), 0.0) << phase;
  }
}

TEST_P(RestartTest, OpenExistingRequiresPriorState) {
  EngineOptions opt = Options();
  auto engine = Engine::OpenExisting(opt, env_.get());
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsNotFound());
}

TEST_P(RestartTest, RestartRecoversDurableStateAndContinues) {
  EngineOptions opt = Options();
  std::string image1, image2, image3;
  Lsn last_lsn = 0;
  {
    auto engine = MustOpen(opt);
    image1 = MakeRecordImage(engine->db().record_bytes(), 1, 11);
    image2 = MakeRecordImage(engine->db().record_bytes(), 2, 22);
    MMDB_ASSERT_OK(engine->Apply({{1, image1}}).status());
    MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
    auto lsn = engine->Apply({{2, image2}});  // post-checkpoint, log-only
    MMDB_ASSERT_OK(lsn);
    last_lsn = *lsn;
    engine->FlushLog();
    MMDB_ASSERT_OK(engine->AdvanceTime(1.0));
    // Engine object destroyed without a clean shutdown: volatile state
    // (primary memory) is simply gone, like a process kill.
  }

  auto reopened = Engine::OpenExisting(opt, env_.get());
  MMDB_ASSERT_OK(reopened);
  Engine& engine = **reopened;
  EXPECT_EQ(engine.ReadRecordRaw(1), std::string_view(image1));
  EXPECT_EQ(engine.ReadRecordRaw(2), std::string_view(image2));

  // LSNs continue past the old log's records.
  image3 = MakeRecordImage(engine.db().record_bytes(), 3, 33);
  auto lsn = engine.Apply({{3, image3}});
  MMDB_ASSERT_OK(lsn);
  EXPECT_GT(*lsn, last_lsn);

  // Checkpoint numbering continues, so the ping-pong alternation holds:
  // checkpoint 1 wrote copy 1, the next must be id 2 -> copy 0.
  MMDB_ASSERT_OK(engine.RunCheckpointToCompletion());
  auto meta = engine.backup()->ReadMeta();
  MMDB_ASSERT_OK(meta);
  EXPECT_EQ(meta->checkpoint_id, 2u);
  EXPECT_EQ(meta->copy, 0u);
  VerifyAuditTrail(&engine);
}

TEST_P(RestartTest, SecondRestartAfterMoreWork) {
  EngineOptions opt = Options();
  std::string a, b;
  {
    auto engine = MustOpen(opt);
    a = MakeRecordImage(engine->db().record_bytes(), 10, 1);
    MMDB_ASSERT_OK(engine->Apply({{10, a}}).status());
    MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
  }
  {
    auto engine = Engine::OpenExisting(opt, env_.get());
    MMDB_ASSERT_OK(engine);
    b = MakeRecordImage((*engine)->db().record_bytes(), 11, 2);
    MMDB_ASSERT_OK((*engine)->Apply({{11, b}}).status());
    MMDB_ASSERT_OK((*engine)->RunCheckpointToCompletion());
  }
  auto engine = Engine::OpenExisting(opt, env_.get());
  MMDB_ASSERT_OK(engine);
  EXPECT_EQ((*engine)->ReadRecordRaw(10), std::string_view(a));
  EXPECT_EQ((*engine)->ReadRecordRaw(11), std::string_view(b));
  VerifyAuditTrail(engine->get());
}

TEST_P(RestartTest, GeometryMismatchRejected) {
  EngineOptions opt = Options();
  {
    auto engine = MustOpen(opt);
    MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
  }
  EngineOptions other = opt;
  other.params.db.segment_words = 2048;  // different geometry, same dir
  auto engine = Engine::OpenExisting(other, env_.get());
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument()) << engine.status();
}

TEST_P(RestartTest, RestartAfterPowerFailureMatchesOracle) {
  EngineOptions opt = Options();
  WorkloadOptions wopt;
  wopt.duration = 1.0;
  wopt.seed = 31;

  auto engine = MustOpen(opt);
  WorkloadDriver driver(engine.get(), wopt);
  MMDB_ASSERT_OK(driver.Run());
  Lsn durable = engine->DurableLsn();
  // Power failure, then the process dies: Crash() strips everything whose
  // modeled I/O had not completed, so the restart sees exactly the durable
  // state.
  MMDB_ASSERT_OK(engine->Crash());
  engine.reset();

  auto reopened = Engine::OpenExisting(opt, env_.get());
  MMDB_ASSERT_OK(reopened);
  VerifyRecovered(**reopened, driver, durable);
  VerifyAuditTrail(reopened->get());
}

TEST_P(RestartTest, RestartWithoutPowerFailureRecoversAtLeastDurable) {
  // Destroying the engine WITHOUT Crash() models a process kill where
  // issued log writes still reach the disk: the restart may legitimately
  // recover MORE than the durability floor, but never less, and never a
  // value that was not committed.
  if (Options().stable_log_tail) {
    // With a stable tail, DurableLsn() counts commits living in stable RAM
    // that have no file backing yet; Crash() models the NVRAM surviving,
    // but a bare destructor drops it, which is outside the stable-tail
    // failure model. The power-failure variant above covers this config.
    GTEST_SKIP();
  }
  EngineOptions opt = Options();
  WorkloadOptions wopt;
  wopt.duration = 1.0;
  wopt.seed = 33;

  auto engine = MustOpen(opt);
  WorkloadDriver driver(engine.get(), wopt);
  MMDB_ASSERT_OK(driver.Run());
  Lsn durable = engine->DurableLsn();
  engine.reset();

  auto reopened = Engine::OpenExisting(opt, env_.get());
  MMDB_ASSERT_OK(reopened);
  const std::string zeros((*reopened)->db().record_bytes(), '\0');
  for (const auto& [record, commits] : driver.history()) {
    std::string_view actual = (*reopened)->ReadRecordRaw(record);
    // The recovered value must be one of the committed images (or zeros if
    // nothing durable), and at least as new as the newest durable one.
    Lsn newest_durable = kInvalidLsn;
    Lsn actual_lsn = kInvalidLsn;
    bool found = actual == std::string_view(zeros);
    for (const auto& commit : commits) {
      if (commit.lsn <= durable) newest_durable = commit.lsn;
      if (actual == std::string_view(commit.image)) {
        actual_lsn = commit.lsn;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "record " << record
                       << " holds a value that was never committed";
    ASSERT_GE(actual_lsn, newest_durable)
        << "record " << record << " regressed below the durable state";
  }
  VerifyAuditTrail(reopened->get());
}

TEST_P(RestartTest, TruncationBoundsLogAndKeepsRecoveryWorking) {
  EngineOptions opt = Options();
  opt.truncate_log_at_checkpoint = true;

  auto engine = MustOpen(opt);
  WorkloadOptions wopt;
  wopt.duration = 1.5;
  wopt.seed = 37;
  WorkloadDriver driver(engine.get(), wopt);
  auto result = driver.Run();
  MMDB_ASSERT_OK(result);
  ASSERT_GE(result->checkpoints_completed, 2u);

  // The log's base moved: the file holds only the replayable suffix
  // (physically smaller than the logical history).
  EXPECT_GT(engine->log()->BaseOffset(), 0u);
  auto physical = env_->FileSize(engine->LogPath());
  MMDB_ASSERT_OK(physical);
  EXPECT_LT(*physical, engine->log()->NextOffset());

  // Metadata offsets still resolve against the truncated file.
  Lsn durable = engine->DurableLsn();
  MMDB_ASSERT_OK(engine->Crash());
  MMDB_ASSERT_OK(engine->Recover());
  VerifyRecovered(*engine, driver, durable);
  VerifyAuditTrail(engine.get());
}

TEST_P(RestartTest, TruncationThenRestart) {
  EngineOptions opt = Options();
  opt.truncate_log_at_checkpoint = true;
  std::string image;
  {
    auto engine = MustOpen(opt);
    image = MakeRecordImage(engine->db().record_bytes(), 5, 55);
    MMDB_ASSERT_OK(engine->Apply({{5, image}}).status());
    MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
    MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
    EXPECT_GT(engine->log()->BaseOffset(), 0u);
  }
  auto engine = Engine::OpenExisting(opt, env_.get());
  MMDB_ASSERT_OK(engine);
  EXPECT_EQ((*engine)->ReadRecordRaw(5), std::string_view(image));
  // And the reopened log carries the base forward.
  EXPECT_GT((*engine)->log()->BaseOffset(), 0u);
  VerifyAuditTrail(engine->get());
}

TEST_P(RestartTest, TruncatedPrefixIsGoneFromTheReader) {
  EngineOptions opt = Options();
  opt.truncate_log_at_checkpoint = true;
  auto engine = MustOpen(opt);
  // Touch one record per segment so the checkpoint has frames to cut.
  const uint32_t rps = engine->params().db.records_per_segment();
  for (SegmentId s = 0; s < engine->db().num_segments(); ++s) {
    RecordId rec = s * rps;
    MMDB_ASSERT_OK(
        engine
            ->Apply(
                {{rec, MakeRecordImage(engine->db().record_bytes(), rec, 1)}})
            .status());
  }
  // The second completion cuts before the first checkpoint's marker.
  MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
  uint64_t base = engine->log()->BaseOffset();
  ASSERT_GT(base, 0u);
  MMDB_ASSERT_OK(engine->Crash());

  // The reader carries the base forward; offsets below it are gone.
  auto reader = LogReader::Open(env_.get(), engine->LogPath());
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->base_offset(), base);
  // Offset 0 is gone; the base is the first frame.
  EXPECT_TRUE(reader->FrameIndexAt(0).status().IsInvalidArgument());
  auto first = reader->FrameIndexAt(base);
  MMDB_ASSERT_OK(first);
  EXPECT_EQ(*first, 0u);
}

// ---------------------------------------------------------------------------
// Torn tails are cut in place: no restart copies a file.
// ---------------------------------------------------------------------------

// What a crash may leave after the last whole frame or journal line.
struct Tear {
  bool log = false;      // a frame header promising 64 bytes, then 20 of them
  bool journal = false;  // half a journal line, with no newline
};

void AppendBytes(Env* env, const std::string& path, std::string_view bytes) {
  auto file = env->NewAppendableFile(path);
  MMDB_ASSERT_OK(file);
  MMDB_ASSERT_OK((*file)->Append(bytes));
  MMDB_ASSERT_OK((*file)->Close());
}

// Runs a short workload in `opt.dir`, crashes, appends the torn tails
// `tear` names, and restarts. With `faults` (a wrapper of `env`) the
// engine runs on it, and every write to a ".tmp" file fails from the crash
// on. The restart must succeed with no fault fired; the oracle and the
// journal must verify; wal.log must end at its valid prefix, exactly where
// the crash left it; audit.log must hold the crash's lines followed
// directly by the restart's; and no ".tmp" file may be left.
void CrashTearAndRestart(Env* env, FaultInjectionEnv* faults,
                         EngineOptions opt, bool instant, Tear tear) {
  SCOPED_TRACE(testing::Message()
               << (instant ? "instant" : "blocking") << ", torn log "
               << tear.log << ", torn journal " << tear.journal);
  Env* engine_env = faults != nullptr ? faults : env;
  opt.instant_recovery = instant;
  auto engine = Engine::Open(opt, engine_env);
  MMDB_ASSERT_OK(engine);
  WorkloadOptions wopt;
  wopt.duration = 0.5;
  wopt.seed = 61;
  WorkloadDriver driver(engine->get(), wopt);
  MMDB_ASSERT_OK(driver.Run());
  const Lsn durable = (*engine)->DurableLsn();
  MMDB_ASSERT_OK((*engine)->Crash());
  const std::string log_path = (*engine)->LogPath();
  const std::string journal_path = (*engine)->AuditLogPath();
  engine->reset();

  std::string log, journal;
  MMDB_ASSERT_OK(env->ReadFileToString(log_path, &log));
  MMDB_ASSERT_OK(env->ReadFileToString(journal_path, &journal));
  if (tear.log) {
    std::string frame;
    PutFixed32(&frame, 64);
    frame.append(20, 'x');
    AppendBytes(env, log_path, frame);
  }
  if (tear.journal) {
    AppendBytes(env, journal_path, "{\"seq\":9999,\"t\":9.0,\"event\":\"ckp");
  }
  if (faults != nullptr) {
    faults->InjectFault(
        {FaultKind::kWriteError, ".tmp", faults->op_count(), /*times=*/0});
  }

  auto reopened = Engine::OpenExisting(opt, engine_env);
  MMDB_ASSERT_OK(reopened);
  MMDB_ASSERT_OK((*reopened)->DrainRecovery());
  if (faults != nullptr) {
    EXPECT_EQ(faults->faults_fired(), 0u);
  }
  VerifyRecovered(**reopened, driver, durable);
  VerifyAuditTrail(reopened->get());

  std::string log_after, journal_after;
  MMDB_ASSERT_OK(env->ReadFileToString(log_path, &log_after));
  EXPECT_EQ(log_after.size(), log.size());
  EXPECT_TRUE(log_after == log);
  auto reader = LogReader::Open(env, log_path);
  MMDB_ASSERT_OK(reader);
  EXPECT_FALSE(reader->truncated_tail());
  EXPECT_EQ(kLogFileHeaderBytes + reader->valid_bytes() -
                reader->base_offset(),
            log_after.size());
  MMDB_ASSERT_OK(env->ReadFileToString(journal_path, &journal_after));
  ASSERT_GT(journal_after.size(), journal.size());
  EXPECT_TRUE(journal_after.compare(0, journal.size(), journal) == 0);
  EXPECT_EQ(journal_after.back(), '\n');
  std::vector<std::string> children;
  MMDB_ASSERT_OK(env->ListDir(opt.dir, &children));
  for (const std::string& child : children) {
    EXPECT_FALSE(EndsWith(child, ".tmp")) << child;
  }
}

// The reopen cuts each torn tail in place, so a restart over any mix of
// clean and torn tails, blocking or instant, goes through even when every
// write to a temp file fails.
TEST(CutInPlaceTest, NoRestartWritesATempFile) {
  for (bool instant : {false, true}) {
    for (Tear tear : {Tear{}, Tear{true, false}, Tear{false, true},
                      Tear{true, true}}) {
      auto env = NewMemEnv();
      FaultInjectionEnv faults(env.get());
      CrashTearAndRestart(env.get(), &faults, TinyOptions(), instant, tear);
      if (HasFatalFailure()) return;
    }
  }
}

// The same on real files, in a fresh temporary directory.
TEST(CutInPlaceTest, PosixRestartCutsTornTails) {
  char tmpl[] = "/tmp/mmdb_restart_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  for (bool instant : {false, true}) {
    EngineOptions opt = TinyOptions();
    opt.dir = root + (instant ? "/instant" : "/blocking");
    CrashTearAndRestart(Env::Posix(), nullptr, opt, instant,
                        Tear{true, true});
    if (HasFatalFailure()) break;
  }
  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, RestartTest, testing::ValuesIn(kAllAlgorithms),
    [](const testing::TestParamInfo<Algorithm>& info) {
      return std::string(AlgorithmName(info.param));
    });

}  // namespace
}  // namespace mmdb

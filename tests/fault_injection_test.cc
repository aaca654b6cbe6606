// Fault-injection suite. Three layers:
//
//  1. Unit tests for FaultInjectionEnv itself (deterministic scheduling,
//     path filtering, each fault shape's on-disk effect).
//  2. Targeted protocol tests: recovery falling back to the older
//     ping-pong copy when the newer one is unreadable, torn backup and
//     log writes, and crashes around post-checkpoint log truncation.
//  3. The fault sweep: for every algorithm x {full, partial} mode, run a
//     fixed scripted history and inject a single fault at every k-th
//     data-path I/O operation. A single transient device fault must never
//     lose a durably-committed transaction, never leave the engine
//     without a readable complete backup copy, and the aborted checkpoint
//     must be retried successfully once the fault clears.
//
// Everything is deterministic: a failing (kind, k) pair replays exactly.

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backup/backup_store.h"
#include "env/env.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"

namespace mmdb {
namespace {

// ---------------------------------------------------------------------------
// Layer 1: the decorator itself.
// ---------------------------------------------------------------------------

class FaultEnvTest : public testing::Test {
 protected:
  FaultEnvTest() : base_(NewMemEnv()), fenv_(base_.get()) {}

  std::unique_ptr<WritableFile> Writable(const std::string& path) {
    auto f = fenv_.NewWritableFile(path);
    EXPECT_TRUE(f.ok());
    return std::move(*f);
  }

  std::string Contents(const std::string& path) {
    std::string out;
    EXPECT_TRUE(base_->ReadFileToString(path, &out).ok());
    return out;
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv fenv_;
};

TEST_F(FaultEnvTest, RuleArmsAtOpCountAndDisarmsAfterTimes) {
  auto f = Writable("a");
  fenv_.InjectFault({FaultKind::kWriteError, "", /*after_ops=*/2,
                     /*times=*/1});
  MMDB_EXPECT_OK(f->Append("x"));  // op 0
  MMDB_EXPECT_OK(f->Append("y"));  // op 1
  EXPECT_TRUE(f->Append("z").IsIoError());  // op 2: fires
  MMDB_EXPECT_OK(f->Append("w"));  // op 3: rule spent
  EXPECT_EQ(fenv_.op_count(), 4u);
  EXPECT_EQ(fenv_.faults_fired(), 1u);
  EXPECT_EQ(Contents("a"), "xyw");
}

TEST_F(FaultEnvTest, PathSubstringFiltersRules) {
  fenv_.InjectFault({FaultKind::kWriteError, "victim", 0, /*times=*/0});
  auto a = Writable("bystander");
  auto b = Writable("dir/victim.db");
  MMDB_EXPECT_OK(a->Append("ok"));
  EXPECT_TRUE(b->Append("no").IsIoError());
  EXPECT_EQ(Contents("bystander"), "ok");
}

TEST_F(FaultEnvTest, ClearFaultsDisarmsUnlimitedRule) {
  fenv_.InjectFault({FaultKind::kWriteError, "", 0, /*times=*/0});
  auto f = Writable("a");
  EXPECT_TRUE(f->Append("x").IsIoError());
  EXPECT_TRUE(f->Append("y").IsIoError());
  fenv_.ClearFaults();
  MMDB_EXPECT_OK(f->Append("z"));
  EXPECT_EQ(Contents("a"), "z");
}

TEST_F(FaultEnvTest, ShortWritePersistsPrefixAndReportsError) {
  auto f = Writable("a");
  fenv_.InjectFault({FaultKind::kShortWrite, "", 0, 1});
  EXPECT_TRUE(f->Append("abcdefgh").IsIoError());
  EXPECT_EQ(Contents("a"), "abcd");
}

TEST_F(FaultEnvTest, TornWritePersistsPrefixSilently) {
  auto f = Writable("a");
  fenv_.InjectFault({FaultKind::kTornWrite, "", 0, 1});
  MMDB_EXPECT_OK(f->Append("abcdefgh"));  // lies
  EXPECT_EQ(Contents("a"), "abcd");
}

TEST_F(FaultEnvTest, SyncErrorDoesNotConsumeWriteRules) {
  auto f = Writable("a");
  fenv_.InjectFault({FaultKind::kSyncError, "", 0, 1});
  MMDB_EXPECT_OK(f->Append("data"));  // write op, sync rule doesn't match
  EXPECT_TRUE(f->Sync().IsIoError());
  MMDB_EXPECT_OK(f->Sync());
}

TEST_F(FaultEnvTest, ReadFaults) {
  MMDB_EXPECT_OK(base_->WriteStringToFile("a", "hello world", false));
  auto file = fenv_.NewRandomAccessFile("a");
  MMDB_ASSERT_OK(file);
  std::string out;
  fenv_.InjectFault({FaultKind::kReadError, "", 0, 1});
  EXPECT_TRUE((*file)->Read(0, 11, &out).IsIoError());
  fenv_.InjectFault({FaultKind::kCorruptRead, "", 0, 1});
  MMDB_EXPECT_OK((*file)->Read(0, 11, &out));
  EXPECT_NE(out, "hello world");  // one bit flipped in the middle
  EXPECT_EQ(out.size(), 11u);
  MMDB_EXPECT_OK((*file)->Read(0, 11, &out));
  EXPECT_EQ(out, "hello world");  // the file itself is undamaged
}

TEST_F(FaultEnvTest, RandomWriteFaultShapes) {
  auto f = fenv_.NewRandomWriteFile("a");
  MMDB_ASSERT_OK(f);
  MMDB_EXPECT_OK((*f)->Truncate(8));
  fenv_.InjectFault({FaultKind::kShortWrite, "", fenv_.op_count(), 1});
  EXPECT_TRUE((*f)->WriteAt(0, "abcdefgh").IsIoError());
  std::string out;
  MMDB_EXPECT_OK((*f)->Read(0, 8, &out));
  EXPECT_EQ(out, std::string("abcd") + std::string(4, '\0'));
}

TEST_F(FaultEnvTest, TruncateIsANumberedWriteOpThatMovesNoData) {
  MMDB_EXPECT_OK(base_->WriteStringToFile("a", "0123456789", false));
  auto f = fenv_.NewRandomWriteFile("a");
  MMDB_ASSERT_OK(f);
  // Every write kind fails the cut with IoError and the size stays: a
  // truncate moves no data, so no prefix of it can land, torn or not.
  for (FaultKind kind : {FaultKind::kWriteError, FaultKind::kShortWrite,
                         FaultKind::kTornWrite}) {
    SCOPED_TRACE(FaultKindName(kind));
    const uint64_t op = fenv_.op_count();
    fenv_.InjectFault({kind, "a", op, 1});
    EXPECT_TRUE((*f)->Truncate(4).IsIoError());
    EXPECT_EQ(fenv_.op_count(), op + 1);
    EXPECT_EQ(Contents("a"), "0123456789");
  }
  EXPECT_EQ(fenv_.faults_fired(), 3u);
  // A sync rule does not match it; once the rules are spent it cuts.
  fenv_.InjectFault({FaultKind::kSyncError, "", fenv_.op_count(), 1});
  MMDB_EXPECT_OK((*f)->Truncate(4));
  EXPECT_EQ(Contents("a"), "0123");
  EXPECT_TRUE((*f)->Sync().IsIoError());
  // Env::CutFile is that truncate plus a sync, both faultable.
  fenv_.InjectFault({FaultKind::kWriteError, "a", fenv_.op_count(), 1});
  EXPECT_TRUE(fenv_.CutFile("a", 2).IsIoError());
  EXPECT_EQ(Contents("a"), "0123");
  MMDB_EXPECT_OK(fenv_.CutFile("a", 2));
  EXPECT_EQ(Contents("a"), "01");
}

// The injected file only overrides Read; RandomWriteFile's default
// ReadInto goes through it, so a corrupt read still lands in the caller's
// buffer (and a backup restore reading in place still sees the flip).
TEST_F(FaultEnvTest, CorruptReadReachesReadIntoBuffer) {
  auto f = fenv_.NewRandomWriteFile("a");
  MMDB_ASSERT_OK(f);
  MMDB_EXPECT_OK((*f)->WriteAt(0, "hello world"));
  std::string buf(11, '?');
  fenv_.InjectFault({FaultKind::kCorruptRead, "", fenv_.op_count(), 1});
  auto got = (*f)->ReadInto(0, std::span<char>(buf));
  MMDB_ASSERT_OK(got);
  EXPECT_EQ(*got, 11u);
  EXPECT_EQ(buf, "hello!world");  // bit 0 of the middle byte flipped
  EXPECT_EQ(fenv_.faults_fired(), 1u);
  fenv_.InjectFault({FaultKind::kReadError, "", fenv_.op_count(), 1});
  EXPECT_TRUE((*f)->ReadInto(0, std::span<char>(buf)).status().IsIoError());
  got = (*f)->ReadInto(0, std::span<char>(buf));
  MMDB_ASSERT_OK(got);
  EXPECT_EQ(buf, "hello world");  // the file itself is undamaged
}

// ---------------------------------------------------------------------------
// Shared engine-level plumbing.
// ---------------------------------------------------------------------------

// Committed images per record, in commit order.
using Oracle = std::map<RecordId, std::vector<std::pair<Lsn, std::string>>>;

// Small geometry so a whole checkpoint is a handful of I/Os: 16 segments
// of 1024 words, 32-word records.
EngineOptions SweepOptions(Algorithm algorithm, CheckpointMode mode) {
  EngineOptions opt = TinyOptions();
  opt.params.db.db_words = 16 * 1024;
  opt.algorithm = algorithm;
  opt.checkpoint_mode = mode;
  opt.stable_log_tail = algorithm == Algorithm::kFastFuzzy;
  return opt;
}

// Runs one transaction of `k` updates, retrying two-color aborts with a
// shifted record set, and records the committed images in the oracle. A
// commit whose group flush hit the injected fault still committed in
// memory — its records sit in the retained log tail at the LSNs the
// engine assigned — so it enters the oracle too; the durability audit
// decides later whether it survived.
void CommitTxn(Engine* engine, Oracle* oracle, RecordId base, int k,
               uint64_t marker) {
  const uint64_t n = engine->db().num_records();
  const size_t rec_bytes = engine->db().record_bytes();
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<std::pair<RecordId, std::string>> updates;
    for (int i = 0; i < k; ++i) {
      RecordId r = (base + static_cast<uint64_t>(attempt) * 37 +
                    static_cast<uint64_t>(i) * 5) %
                   n;
      updates.emplace_back(r, MakeRecordImage(rec_bytes, r, marker));
    }
    Transaction* txn = engine->Begin();
    Status st = Status::OK();
    for (const auto& [r, image] : updates) {
      st = engine->Write(txn, r, image);
      if (!st.ok()) break;
    }
    if (!st.ok()) {
      ASSERT_TRUE(st.IsAborted()) << st;
      engine->Abort(txn, AbortReason::kColorViolation);
      MMDB_ASSERT_OK(engine->AdvanceTime(0.002));
      continue;
    }
    StatusOr<Lsn> lsn = engine->Commit(txn);
    Lsn committed;
    if (lsn.ok()) {
      committed = *lsn;
    } else {
      ASSERT_TRUE(lsn.status().IsIoError()) << lsn.status();
      committed = engine->log()->LastLsn();
    }
    for (const auto& [r, image] : updates) {
      (*oracle)[r].push_back({committed, image});
    }
    return;
  }
  FAIL() << "transaction never admitted after 200 attempts";
}

// Device errors on checkpoint or flush paths are exactly what the sweep
// injects; anything else is a real bug.
void ExpectOkOrIoError(const Status& st) {
  EXPECT_TRUE(st.ok() || st.IsIoError()) << st;
}

// The scripted history every sweep point replays: populate, checkpoint,
// update, leave a checkpoint mid-sweep, update against it, finish.
void RunScript(Engine* engine, Oracle* oracle) {
  uint64_t marker = 1;
  for (int i = 0; i < 6; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        CommitTxn(engine, oracle, i * 31, 1 + (i % 3), marker++));
  }
  ExpectOkOrIoError(engine->RunCheckpointToCompletion());
  for (int i = 0; i < 6; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        CommitTxn(engine, oracle, 7 * i + 3, 1 + (i % 2), marker++));
  }
  ExpectOkOrIoError(engine->StartCheckpoint());
  for (int i = 0; i < 4; ++i) {
    ExpectOkOrIoError(engine->StepCheckpoint());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        CommitTxn(engine, oracle, 11 * i + 5, 1, marker++));
  }
  ExpectOkOrIoError(engine->RunCheckpointToCompletion());
  ExpectOkOrIoError(engine->FlushLog());
  MMDB_ASSERT_OK(engine->AdvanceTime(0.2));
}

// Every oracle record must hold its newest image committed at or below
// `durable`, or zeros if none is.
void Audit(const Engine& engine, const Oracle& oracle, Lsn durable) {
  const std::string zeros(engine.db().record_bytes(), '\0');
  for (const auto& [record, commits] : oracle) {
    std::string_view expected = zeros;
    for (const auto& [lsn, image] : commits) {
      if (lsn <= durable) expected = image;
    }
    ASSERT_EQ(engine.ReadRecordRaw(record), expected)
        << "record " << record << ", durable lsn " << durable;
  }
}

// ---------------------------------------------------------------------------
// Layer 3: the sweep.
// ---------------------------------------------------------------------------

struct FaultSweepCase {
  Algorithm algorithm;
  CheckpointMode mode;
};

std::string SweepCaseName(const testing::TestParamInfo<FaultSweepCase>& info) {
  return std::string(AlgorithmName(info.param.algorithm)) +
         (info.param.mode == CheckpointMode::kFull ? "_full" : "_partial");
}

class FaultSweepTest : public testing::TestWithParam<FaultSweepCase> {
 protected:
  // Runs the script with a single `kind` fault armed at the k-th data-path
  // operation after engine open (no fault if `inject` is false), then
  // verifies the engine heals completely: flush and checkpoint succeed
  // once the fault clears, a complete backup copy is readable, and
  // crash+recovery reproduces exactly the durably-committed state.
  void RunFaultPoint(FaultKind kind, uint64_t k, bool inject,
                     uint64_t* ops_used) {
    const FaultSweepCase& c = GetParam();
    std::unique_ptr<Env> base = NewMemEnv();
    FaultInjectionEnv fenv(base.get());
    auto engine_or = Engine::Open(SweepOptions(c.algorithm, c.mode), &fenv);
    MMDB_ASSERT_OK(engine_or);
    std::unique_ptr<Engine> engine = std::move(*engine_or);

    const uint64_t start_ops = fenv.op_count();
    if (inject) {
      fenv.InjectFault({kind, "", start_ops + k, /*times=*/1});
    }
    Oracle oracle;
    ASSERT_NO_FATAL_FAILURE(RunScript(engine.get(), &oracle));
    if (ops_used != nullptr) *ops_used = fenv.op_count() - start_ops;

    // The fault was transient (times=1); with a clear device everything
    // must heal: the retained log tail flushes (repairing any partial
    // frame), and the aborted checkpoint's retry completes.
    fenv.ClearFaults();
    MMDB_ASSERT_OK(engine->FlushLog());
    MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
    MMDB_ASSERT_OK(engine->AdvanceTime(1.0));

    // The ping-pong invariant: a complete, CRC-valid backup copy named by
    // the metadata always exists.
    auto meta = engine->backup()->ReadMeta();
    MMDB_ASSERT_OK(meta);
    std::string image;
    for (SegmentId s = 0; s < engine->db().num_segments(); ++s) {
      MMDB_ASSERT_OK(engine->backup()->ReadSegment(meta->copy, s, &image));
    }

    const Lsn durable = engine->DurableLsn();
    MMDB_ASSERT_OK(engine->Crash());
    MMDB_ASSERT_OK(engine->Recover());
    ASSERT_NO_FATAL_FAILURE(Audit(*engine, oracle, durable));
  }
};

TEST_P(FaultSweepTest, SingleFaultNeverLosesDurableData) {
  // Dry run to size the sweep.
  uint64_t total_ops = 0;
  ASSERT_NO_FATAL_FAILURE(
      RunFaultPoint(FaultKind::kWriteError, 0, /*inject=*/false, &total_ops));
  ASSERT_GT(total_ops, 0u);

  for (FaultKind kind :
       {FaultKind::kWriteError, FaultKind::kShortWrite,
        FaultKind::kSyncError}) {
    // ~10 points per kind, offset per kind so the union covers more
    // distinct operations.
    uint64_t stride = std::max<uint64_t>(1, total_ops / 9);
    uint64_t offset = static_cast<uint64_t>(kind) % stride;
    for (uint64_t k = offset; k <= total_ops; k += stride) {
      SCOPED_TRACE(testing::Message()
                   << "fault kind " << static_cast<int>(kind) << " at op "
                   << k << " of " << total_ops);
      ASSERT_NO_FATAL_FAILURE(RunFaultPoint(kind, k, /*inject=*/true,
                                            nullptr));
    }
  }
}

std::vector<FaultSweepCase> AllSweepCases() {
  std::vector<FaultSweepCase> cases;
  for (Algorithm a : kAllAlgorithms) {
    for (CheckpointMode m : {CheckpointMode::kFull, CheckpointMode::kPartial}) {
      cases.push_back(FaultSweepCase{a, m});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FaultSweepTest,
                         testing::ValuesIn(AllSweepCases()), SweepCaseName);

// ---------------------------------------------------------------------------
// Layer 2: targeted protocol tests.
// ---------------------------------------------------------------------------

class RecoveryFallbackTest : public testing::Test {
 protected:
  RecoveryFallbackTest() : base_(NewMemEnv()), fenv_(base_.get()) {}

  EngineOptions Options() const {
    EngineOptions opt =
        SweepOptions(Algorithm::kFuzzyCopy, CheckpointMode::kPartial);
    opt.truncate_log_at_checkpoint = truncate_;
    return opt;
  }

  void OpenEngine() {
    auto engine_or = Engine::Open(Options(), &fenv_);
    MMDB_ASSERT_OK(engine_or);
    engine_ = std::move(*engine_or);
  }

  // Power cut and a cold restart into a new engine over the same files.
  void Restart() {
    ASSERT_NO_FATAL_FAILURE(Settle());
    MMDB_ASSERT_OK(engine_->Crash());
    engine_.reset();
    auto engine_or = Engine::OpenExisting(Options(), &fenv_);
    MMDB_ASSERT_OK(engine_or);
    engine_ = std::move(*engine_or);
    MMDB_ASSERT_OK(engine_->DrainRecovery());
  }

  void Commit(RecordId r, uint64_t marker) {
    ASSERT_NO_FATAL_FAILURE(CommitTxn(engine_.get(), &oracle_, r, 1, marker));
  }

  void Settle() {
    MMDB_ASSERT_OK(engine_->FlushLog());
    MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  }

  // Flips one byte inside segment `s`'s data slot of `path`, leaving the
  // stored CRC stale.
  void CorruptSegment(const std::string& path, SegmentId s) {
    auto file = base_->NewRandomWriteFile(path);
    MMDB_ASSERT_OK(file);
    const uint64_t off =
        BackupStore::SlotOffsetFor(engine_->params().db, s) + 17;
    std::string byte;
    MMDB_ASSERT_OK((*file)->Read(off, 1, &byte));
    byte[0] = static_cast<char>(byte[0] ^ 0x40);
    MMDB_ASSERT_OK((*file)->WriteAt(off, byte));
    MMDB_ASSERT_OK((*file)->Close());
  }

  std::string BackupPath(uint32_t copy) {
    return engine_->options().dir + "/backup_" + std::to_string(copy) + ".db";
  }

  // Reads the provenance journal through the base env so an armed fault
  // cannot interfere with the inspection itself.
  std::vector<AuditEntry> JournalEntries() {
    std::string text;
    EXPECT_TRUE(
        base_->ReadFileToString(engine_->AuditLogPath(), &text).ok());
    auto entries = ParseAuditJournal(text);
    EXPECT_TRUE(entries.ok()) << entries.status();
    return entries.ok() ? std::move(*entries) : std::vector<AuditEntry>{};
  }

  static uint64_t Field(const AuditEntry& e, const char* key) {
    const JsonValue* v = e.object.Find(key);
    return v != nullptr && v->is_number()
               ? static_cast<uint64_t>(v->number_value())
               : ~0ull;
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv fenv_;
  std::unique_ptr<Engine> engine_;
  Oracle oracle_;
  bool truncate_ = false;  // EngineOptions::truncate_log_at_checkpoint
};

// Inputs: log truncation at each checkpoint on or off, and whether the
// engine restarts between the two checkpoints. Truncation must keep the
// older checkpoint's begin marker, which the fallback replays from.
class RecoveryFallbackInputsTest
    : public RecoveryFallbackTest,
      public testing::WithParamInterface<std::tuple<bool, bool>> {};

TEST_P(RecoveryFallbackInputsTest, FallsBackToOlderCopyOnCrcMismatch) {
  const auto [truncate, restart_between] = GetParam();
  truncate_ = truncate;
  OpenEngine();
  Commit(1, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
  if (restart_between) {
    ASSERT_NO_FATAL_FAILURE(Restart());
  }
  Commit(40, 2);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
  Commit(80, 3);
  Settle();
  const Lsn durable = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());

  // Checkpoint 2's copy rots on disk; recovery must notice (CRC) and fall
  // back to checkpoint 1's copy, replaying the longer log suffix.
  CorruptSegment(BackupPath(0), 0);
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  // Under the instant lane the corruption is only discovered when the
  // damaged segment reloads on demand; the drained stats must match the
  // blocking path's exactly.
  MMDB_ASSERT_OK(engine_->DrainRecovery());
  EXPECT_TRUE(engine_->last_recovery().fell_back_to_older_copy);
  EXPECT_EQ(engine_->last_recovery().checkpoint_id, 1u);
  EXPECT_EQ(engine_->last_recovery().copy, 1u);
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));

  // The journal must tell the whole fallback story: the plan named the
  // newest checkpoint (the attempt that then failed), and the fallback
  // event records both that failed source and the older copy recovery
  // actually used, with the damaged segment called out.
  {
    std::vector<AuditEntry> entries = JournalEntries();
    const AuditEntry* plan = nullptr;
    const AuditEntry* fallback = nullptr;
    for (const AuditEntry& e : entries) {
      if (e.event == "recovery.plan") plan = &e;
      if (e.event == "recovery.fallback") fallback = &e;
    }
    ASSERT_NE(plan, nullptr);
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(Field(*plan, "checkpoint"), 2u);
    EXPECT_EQ(Field(*fallback, "from_checkpoint"), 2u);
    EXPECT_EQ(Field(*fallback, "from_copy"), 0u);
    EXPECT_EQ(Field(*fallback, "to_checkpoint"), 1u);
    EXPECT_EQ(Field(*fallback, "to_copy"), 1u);
    const JsonValue* trigger = fallback->object.Find("trigger");
    ASSERT_NE(trigger, nullptr);
    EXPECT_FALSE(trigger->string_value().empty());
    const JsonValue* failed = fallback->object.Find("failed_segments");
    ASSERT_NE(failed, nullptr);
    bool names_segment0 = false;
    for (const JsonValue& s : failed->array_items()) {
      if (s.number_value() == 0) names_segment0 = true;
    }
    EXPECT_TRUE(names_segment0);
  }

  // The next checkpoint must skip past the stale end marker (id 2) so its
  // completion record can never be paired with the half-overwritten copy:
  // parity is preserved, so id 4 rewrites the bad copy 0.
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  auto meta = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta);
  EXPECT_EQ(meta->checkpoint_id, 4u);
  EXPECT_EQ(meta->copy, 0u);

  // With the copy rewritten, the next crash recovers cleanly from it.
  Settle();
  const Lsn durable2 = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());
  auto stats2 = engine_->Recover();
  MMDB_ASSERT_OK(stats2);
  MMDB_ASSERT_OK(engine_->DrainRecovery());
  EXPECT_FALSE(engine_->last_recovery().fell_back_to_older_copy);
  EXPECT_EQ(engine_->last_recovery().checkpoint_id, 4u);
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable2));
  VerifyAuditTrail(engine_.get());
}

INSTANTIATE_TEST_SUITE_P(
    TruncateAndRestart, RecoveryFallbackInputsTest,
    testing::Combine(testing::Bool(), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "Truncate" : "KeepLog") +
             (std::get<1>(info.param) ? "Restart" : "NoRestart");
    });

TEST_P(RecoveryFallbackInputsTest, SecondFallbackRestoresTheOtherCopy) {
  const auto [truncate, restart_between] = GetParam();
  truncate_ = truncate;
  OpenEngine();
  Commit(1, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
  if (restart_between) {
    ASSERT_NO_FATAL_FAILURE(Restart());
  }
  Commit(40, 2);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
  Settle();
  MMDB_ASSERT_OK(engine_->Crash());
  CorruptSegment(BackupPath(0), 0);
  MMDB_ASSERT_OK(engine_->Recover());
  MMDB_ASSERT_OK(engine_->DrainRecovery());
  ASSERT_EQ(engine_->last_recovery().checkpoint_id, 1u);

  // The next checkpoint skips past end marker 2 to id 4, which rewrites
  // copy 0; then copy 0 rots again. Id 3 never existed: the fallback must
  // still find checkpoint 1, complete on copy 1.
  Commit(80, 3);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 4 -> copy 0
  Commit(120, 4);
  Settle();
  const Lsn durable = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());
  CorruptSegment(BackupPath(0), 0);
  MMDB_ASSERT_OK(engine_->Recover());
  MMDB_ASSERT_OK(engine_->DrainRecovery());
  EXPECT_TRUE(engine_->last_recovery().fell_back_to_older_copy);
  EXPECT_EQ(engine_->last_recovery().checkpoint_id, 1u);
  EXPECT_EQ(engine_->last_recovery().copy, 1u);
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));
  {
    std::vector<AuditEntry> entries = JournalEntries();
    std::vector<const AuditEntry*> fallbacks;
    for (const AuditEntry& e : entries) {
      if (e.event == "recovery.fallback") fallbacks.push_back(&e);
    }
    ASSERT_EQ(fallbacks.size(), 2u);
    EXPECT_EQ(Field(*fallbacks[1], "from_checkpoint"), 4u);
    EXPECT_EQ(Field(*fallbacks[1], "from_copy"), 0u);
    EXPECT_EQ(Field(*fallbacks[1], "to_checkpoint"), 1u);
    EXPECT_EQ(Field(*fallbacks[1], "to_copy"), 1u);
  }

  // Numbering skips past end marker 4, keeping copy 1's checkpoint intact.
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  auto meta = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta);
  EXPECT_EQ(meta->checkpoint_id, 6u);
  EXPECT_EQ(meta->copy, 0u);
  VerifyAuditTrail(engine_.get());
}

TEST_F(RecoveryFallbackTest, FallsBackToOlderCopyOnReadError) {
  OpenEngine();
  Commit(1, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
  Commit(40, 2);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
  Settle();
  const Lsn durable = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());

  // The device, not the data, fails: the first read of copy 0 errors.
  fenv_.InjectFault(
      {FaultKind::kReadError, "backup_0.db", fenv_.op_count(), 1});
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  // With instant recovery the armed device error fires at the first
  // on-demand reload of copy 0, mid-service, and must take the same
  // fallback path.
  MMDB_ASSERT_OK(engine_->DrainRecovery());
  EXPECT_TRUE(engine_->last_recovery().fell_back_to_older_copy);
  EXPECT_EQ(engine_->last_recovery().checkpoint_id, 1u);
  // One read failed, so exactly one segment is re-read from the older copy.
  EXPECT_EQ(engine_->last_recovery().segments_retried, 1u);
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));
  // A device read error (as opposed to rotten bytes) takes the same
  // fallback path and must leave the same journal trail.
  {
    std::vector<AuditEntry> entries = JournalEntries();
    const AuditEntry* fallback = nullptr;
    for (const AuditEntry& e : entries) {
      if (e.event == "recovery.fallback") fallback = &e;
    }
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(Field(*fallback, "from_checkpoint"), 2u);
    EXPECT_EQ(Field(*fallback, "to_checkpoint"), 1u);
  }
  VerifyAuditTrail(engine_.get());
}

TEST_F(RecoveryFallbackTest, InstantOnDemandCrcErrorFallsBackMidService) {
  // Explicit instant-recovery restart (not the env lane): the corrupted
  // backup segment is discovered by the FIRST TRANSACTION that touches it
  // while the engine is already serving — the older-copy fallback must
  // happen inside that transaction's admission stall, journal itself
  // immediately, and leave the transaction (and the engine) running.
  {
    EngineOptions opt =
        SweepOptions(Algorithm::kFuzzyCopy, CheckpointMode::kPartial);
    opt.instant_recovery = true;
    auto engine_or = Engine::Open(opt, &fenv_);
    MMDB_ASSERT_OK(engine_or);
    engine_ = std::move(*engine_or);
  }
  ASSERT_TRUE(engine_->instant_recovery_enabled());
  Commit(1, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
  Commit(40, 2);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
  Commit(80, 3);
  Settle();
  MMDB_ASSERT_OK(engine_->Crash());

  CorruptSegment(BackupPath(0), 0);
  MMDB_ASSERT_OK(engine_->Recover().status());
  EXPECT_TRUE(engine_->recovery_pending());

  // Record 2 lives in segment 0: its commit stalls on the recovery latch,
  // hits the CRC mismatch, and rides the fallback — mid-service, with the
  // restart still draining in the background.
  Commit(2, 4);
  EXPECT_FALSE(engine_->crashed());
  {
    std::vector<AuditEntry> entries = JournalEntries();
    const AuditEntry* fallback = nullptr;
    const AuditEntry* on_demand = nullptr;
    for (const AuditEntry& e : entries) {
      if (e.event == "recovery.fallback") fallback = &e;
      if (e.event == "recovery.segment_on_demand" && on_demand == nullptr) {
        on_demand = &e;
      }
    }
    ASSERT_NE(fallback, nullptr)
        << "fallback must be journaled at the triggering touch, not at "
           "the drain";
    EXPECT_EQ(Field(*fallback, "from_checkpoint"), 2u);
    EXPECT_EQ(Field(*fallback, "to_checkpoint"), 1u);
    // The very first on-demand load is the touched, damaged segment.
    ASSERT_NE(on_demand, nullptr);
    EXPECT_EQ(Field(*on_demand, "segment"), 0u);
    const JsonValue* trigger = on_demand->object.Find("trigger");
    ASSERT_NE(trigger, nullptr);
    EXPECT_EQ(trigger->string_value(), "touch");
  }

  MMDB_ASSERT_OK(engine_->DrainRecovery());
  EXPECT_TRUE(engine_->last_recovery().fell_back_to_older_copy);
  EXPECT_EQ(engine_->last_recovery().checkpoint_id, 1u);
  EXPECT_EQ(engine_->last_recovery().copy, 1u);

  // Durability audit over the whole oracle, including the mid-service
  // commit once it is durable.
  Settle();
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, engine_->DurableLsn()));
  VerifyAuditTrail(engine_.get());
}

TEST_F(RecoveryFallbackTest, MidServiceFallbackKeepsPostRestartCommits) {
  // A fallback found after the restart has served commits must not roll
  // them back. A full-image retry never re-reads a served segment; a delta
  // full reload, which would have to, fails the restart instead, and a
  // retried Recover() replays those commits from the log. With a stable
  // log tail the served commit is durable without a flush, so the failed
  // restart must persist the tail as a crash does.
  constexpr RecordId kServed = 5;            // segment 0
  constexpr RecordId kRotten = 63 * 32 + 3;  // segment 63
  struct Case {
    Algorithm algorithm;
    bool stable_tail;
  };
  for (const Case& c : {Case{Algorithm::kFuzzyCopy, false},
                        Case{Algorithm::kCouCopy, false},
                        Case{Algorithm::kCouCopy, true}}) {
    const std::string name = std::string(AlgorithmName(c.algorithm)) +
                             (c.stable_tail ? "_stable_tail" : "");
    SCOPED_TRACE(name);
    const bool delta = c.algorithm == Algorithm::kCouCopy;
    EngineOptions opt = TinyOptions();
    opt.algorithm = c.algorithm;
    opt.stable_log_tail = c.stable_tail;
    opt.instant_recovery = true;
    opt.dir = "mid_service_" + name;
    auto engine_or = Engine::Open(opt, &fenv_);
    MMDB_ASSERT_OK(engine_or);
    engine_ = std::move(*engine_or);
    oracle_.clear();
    Commit(1, 1);
    MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
    if (delta) MMDB_ASSERT_OK(engine_->ApplyDelta(40, 0, 7).status());
    Commit(kRotten, 2);
    MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
    Commit(80, 3);
    Settle();
    MMDB_ASSERT_OK(engine_->Crash());
    CorruptSegment(BackupPath(0), 63);
    MMDB_ASSERT_OK(engine_->Recover().status());

    // Serve a durable commit on segment 0, then touch the rotten segment
    // before the background schedule reaches it.
    Commit(kServed, 4);
    if (!c.stable_tail) {
      MMDB_ASSERT_OK(engine_->FlushLog());
      MMDB_ASSERT_OK(engine_->AdvanceTime(0.05));
    }
    ASSERT_TRUE(engine_->recovery_pending());
    const Lsn durable = engine_->DurableLsn();
    ASSERT_GE(durable, oracle_[kServed].back().first);
    const std::string served = oracle_[kServed].back().second;

    if (!delta) {
      Commit(kRotten, 5);
      MMDB_ASSERT_OK(engine_->DrainRecovery());
      EXPECT_TRUE(engine_->last_recovery().fell_back_to_older_copy);
      EXPECT_EQ(engine_->ReadRecordRaw(kServed), served);
      Settle();
      ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, engine_->DurableLsn()));
      VerifyAuditTrail(engine_.get());
      continue;
    }
    Transaction* txn = engine_->Begin();
    const std::string image =
        MakeRecordImage(engine_->db().record_bytes(), kRotten, 5);
    Status touched = engine_->Write(txn, kRotten, image);
    EXPECT_TRUE(touched.IsFailedPrecondition()) << touched;
    EXPECT_TRUE(engine_->crashed());
    engine_->Abort(txn);
    std::vector<AuditEntry> entries = JournalEntries();
    const AuditEntry* last_recovery = nullptr;
    for (const AuditEntry& e : entries) {
      if (e.event.rfind("recovery.", 0) == 0) last_recovery = &e;
    }
    ASSERT_NE(last_recovery, nullptr);
    EXPECT_EQ(last_recovery->event, "recovery.error");
    MMDB_EXPECT_OK(VerifyAuditStructure(entries));

    // The retry loads every segment before it admits a transaction, so a
    // commit ahead of the rotten segment's first touch cannot fail it.
    MMDB_ASSERT_OK(engine_->Recover().status());
    EXPECT_FALSE(engine_->recovery_pending());
    EXPECT_TRUE(engine_->last_recovery().fell_back_to_older_copy);
    EXPECT_EQ(engine_->last_recovery().segments_retried,
              engine_->db().num_segments());
    EXPECT_EQ(engine_->ReadRecordRaw(kServed), served);
    ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));
    Commit(kServed + 1, 6);
    Commit(kRotten, 7);
    MMDB_ASSERT_OK(engine_->DrainRecovery());
    Settle();
    ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, engine_->DurableLsn()));
    VerifyAuditTrail(engine_.get());
  }
}

TEST_F(RecoveryFallbackTest, FailedLogReopenJournalsErrorAndRetrySucceeds) {
  // The restart's outcome is journaled only once the log has reopened: a
  // failed reopen ends the chain in recovery.error in both modes, and a
  // retried Recover() restores every durable commit.
  for (bool instant : {false, true}) {
    SCOPED_TRACE(instant ? "instant" : "blocking");
    EngineOptions opt =
        SweepOptions(Algorithm::kFuzzyCopy, CheckpointMode::kPartial);
    opt.instant_recovery = instant;
    opt.dir = instant ? "reopen_instant" : "reopen_blocking";
    auto engine_or = Engine::Open(opt, &fenv_);
    MMDB_ASSERT_OK(engine_or);
    engine_ = std::move(*engine_or);
    oracle_.clear();
    Commit(1, 1);
    MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
    Commit(40, 2);
    Settle();
    const Lsn durable = engine_->DurableLsn();
    MMDB_ASSERT_OK(engine_->Crash());

    // The reopen cuts nothing here (the crash left a clean log); its sync,
    // which makes the recovered prefix durable, is the op that fails.
    fenv_.InjectFault(
        {FaultKind::kSyncError, "wal.log", fenv_.op_count(), 1});
    auto failed = engine_->Recover();
    EXPECT_TRUE(failed.status().IsIoError()) << failed.status();
    EXPECT_TRUE(engine_->crashed());
    std::vector<AuditEntry> entries = JournalEntries();
    const AuditEntry* last_recovery = nullptr;
    for (const AuditEntry& e : entries) {
      if (e.event.rfind("recovery.", 0) == 0) last_recovery = &e;
    }
    ASSERT_NE(last_recovery, nullptr);
    EXPECT_EQ(last_recovery->event, "recovery.error");
    MMDB_EXPECT_OK(VerifyAuditStructure(entries));

    MMDB_ASSERT_OK(engine_->Recover().status());
    MMDB_ASSERT_OK(engine_->DrainRecovery());
    ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));
    VerifyAuditTrail(engine_.get());
  }
}

TEST_F(RecoveryFallbackTest, FailsWhenNoOlderCompleteCheckpointExists) {
  OpenEngine();
  Commit(1, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
  Settle();
  MMDB_ASSERT_OK(engine_->Crash());

  // The only complete checkpoint's copy is bad and there is no older one:
  // recovery must fail loudly, not fabricate state.
  CorruptSegment(BackupPath(1), 0);
  auto stats = engine_->Recover();
  if (engine_->instant_recovery_enabled()) {
    // The plan builds fine — the rot is only discovered when segment 0
    // reloads on demand, and with nothing to fall back to the drain halts
    // the engine.
    MMDB_ASSERT_OK(stats);
    Status drained = engine_->DrainRecovery();
    EXPECT_TRUE(drained.IsCorruption()) << drained;
    EXPECT_TRUE(engine_->crashed());
  } else {
    EXPECT_TRUE(stats.status().IsCorruption()) << stats.status();
  }

  // Even the refusal is journaled: the chain ends in recovery.error, not a
  // dangling recovery.begin.
  std::vector<AuditEntry> entries = JournalEntries();
  ASSERT_FALSE(entries.empty());
  const AuditEntry* last_recovery = nullptr;
  for (const AuditEntry& e : entries) {
    if (e.event.rfind("recovery.", 0) == 0) last_recovery = &e;
  }
  ASSERT_NE(last_recovery, nullptr);
  EXPECT_EQ(last_recovery->event, "recovery.error");
  MMDB_EXPECT_OK(VerifyAuditStructure(entries));
}

TEST_F(RecoveryFallbackTest, TornBackupWriteIsCaughtAtRecovery) {
  OpenEngine();
  Commit(1, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
  Commit(40, 2);
  // Record 20 lives in the SECOND half of segment 0's slot: the torn write
  // below persists only the first half, so this record's bytes are what
  // make the tear visible (a tear across untouched all-zero bytes would be
  // indistinguishable from a complete write).
  Commit(20, 3);

  // Checkpoint 2 "succeeds" but one of its segment writes silently tore:
  // the slot holds half new, half old bytes under a CRC of the full new
  // image. Nothing notices until recovery reads it back.
  fenv_.InjectFault(
      {FaultKind::kTornWrite, "backup_0.db", fenv_.op_count(), 1});
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
  auto meta = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta);
  EXPECT_EQ(meta->checkpoint_id, 2u);

  Settle();
  const Lsn durable = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  MMDB_ASSERT_OK(engine_->DrainRecovery());
  EXPECT_TRUE(engine_->last_recovery().fell_back_to_older_copy);
  EXPECT_EQ(engine_->last_recovery().checkpoint_id, 1u);
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));
  VerifyAuditTrail(engine_.get());
}

TEST_F(RecoveryFallbackTest, AbortedCheckpointRetryChainIsJournaled) {
  OpenEngine();
  Commit(1, 1);
  Settle();

  // The first backup write dies mid-sweep: the checkpoint aborts, with the
  // device error as the journaled cause. Once the (transient) fault is
  // spent, the retry runs to completion — the journal must hold the whole
  // chain: begin, abort, then the retry's begin and end.
  fenv_.InjectFault(
      {FaultKind::kWriteError, "backup_", fenv_.op_count(), /*times=*/1});
  Status failed = engine_->RunCheckpointToCompletion();
  EXPECT_TRUE(failed.IsIoError()) << failed;
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  std::vector<AuditEntry> entries = JournalEntries();
  const AuditEntry* abort = nullptr;
  const AuditEntry* retry_end = nullptr;
  uint64_t begins = 0;
  for (const AuditEntry& e : entries) {
    if (e.event == "ckpt.begin") ++begins;
    if (e.event == "ckpt.abort" && abort == nullptr) abort = &e;
    if (e.event == "ckpt.end" && abort != nullptr) retry_end = &e;
  }
  ASSERT_NE(abort, nullptr);
  ASSERT_NE(retry_end, nullptr);
  EXPECT_GE(begins, 2u);  // the aborted attempt and its retry
  EXPECT_GT(retry_end->seq, abort->seq);
  const JsonValue* cause = abort->object.Find("cause");
  ASSERT_NE(cause, nullptr);
  EXPECT_NE(cause->string_value().find("IO"), std::string::npos)
      << cause->string_value();
  VerifyAuditTrail(engine_.get());
}

TEST_F(RecoveryFallbackTest, TornLogAppendLosesOnlyTheTornSuffix) {
  OpenEngine();
  Commit(1, 1);
  Settle();
  const Lsn durable_before_tear = engine_->DurableLsn();

  // A later flush tears silently: the device claims success but only half
  // the batch landed. The engine believes the commit is durable; the torn
  // half-frame must read as a torn tail (not mid-log corruption), so
  // recovery still succeeds and every commit before the tear survives.
  fenv_.InjectFault({FaultKind::kTornWrite, "wal.log", fenv_.op_count(), 1});
  Commit(40, 2);
  MMDB_ASSERT_OK(engine_->FlushLog());
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  const uint64_t reopened_end = engine_->log()->NextOffset();
  // Everything durable before the tear is intact; the torn transaction is
  // gone (that is precisely the damage a silent tear does).
  ASSERT_NO_FATAL_FAILURE(
      Audit(*engine_, oracle_, durable_before_tear));
  const std::string zeros(engine_->db().record_bytes(), '\0');
  EXPECT_EQ(engine_->ReadRecordRaw(40), zeros);

  // The restart journaled the torn tail, and the reopened log — in memory
  // and on disk — ends exactly at the valid prefix it reported.
  const std::vector<AuditEntry> entries = JournalEntries();
  const AuditEntry* log_event = nullptr;
  for (const AuditEntry& e : entries) {
    if (e.event == "recovery.log") log_event = &e;
  }
  ASSERT_NE(log_event, nullptr);
  const JsonValue* torn = log_event->object.Find("torn_tail");
  ASSERT_NE(torn, nullptr);
  EXPECT_TRUE(torn->bool_value());
  const uint64_t valid_bytes = Field(*log_event, "valid_bytes");
  EXPECT_EQ(valid_bytes, reopened_end);
  auto file_size = base_->FileSize(engine_->LogPath());
  MMDB_ASSERT_OK(file_size);
  EXPECT_EQ(*file_size, kLogFileHeaderBytes +
                            (valid_bytes - engine_->log()->BaseOffset()));
}

TEST_F(RecoveryFallbackTest, MultiStreamDirectoryIsRefusedUntouched) {
  // A wal.log.<k> sibling is a stream of the retired multi-stream log
  // layout and holds commits wal.log lacks. Restarting from wal.log alone
  // would silently lose them, so the restart must refuse before touching
  // either file, and journal the refusal.
  OpenEngine();
  Commit(1, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  Commit(40, 2);
  Settle();
  const EngineOptions opt = engine_->options();
  const std::string log_path = engine_->LogPath();
  const std::string audit_path = engine_->AuditLogPath();
  engine_.reset();

  const std::string sibling = log_path + ".1";
  MMDB_ASSERT_OK(
      base_->WriteStringToFile(sibling, EncodeLogFileHeader(0), true));
  std::string log_before, sibling_before;
  MMDB_ASSERT_OK(base_->ReadFileToString(log_path, &log_before));
  MMDB_ASSERT_OK(base_->ReadFileToString(sibling, &sibling_before));

  auto reopened = Engine::OpenExisting(opt, &fenv_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsFailedPrecondition()) << reopened.status();
  EXPECT_NE(reopened.status().message().find(sibling), std::string::npos)
      << reopened.status();

  std::string log_after, sibling_after;
  MMDB_ASSERT_OK(base_->ReadFileToString(log_path, &log_after));
  MMDB_ASSERT_OK(base_->ReadFileToString(sibling, &sibling_after));
  EXPECT_EQ(log_after, log_before);
  EXPECT_EQ(sibling_after, sibling_before);

  std::string text;
  MMDB_ASSERT_OK(base_->ReadFileToString(audit_path, &text));
  auto entries = ParseAuditJournal(text);
  MMDB_ASSERT_OK(entries);
  ASSERT_FALSE(entries->empty());
  EXPECT_EQ(entries->back().event, "recovery.error");
  MMDB_EXPECT_OK(VerifyAuditStructure(*entries));
}

// --- crashes and faults around post-checkpoint log truncation ------------

class TruncationFaultTest : public testing::Test {
 protected:
  TruncationFaultTest() : base_(NewMemEnv()), fenv_(base_.get()) {}

  void OpenEngine() {
    EngineOptions opt =
        SweepOptions(Algorithm::kFuzzyCopy, CheckpointMode::kPartial);
    opt.truncate_log_at_checkpoint = true;
    auto engine_or = Engine::Open(opt, &fenv_);
    MMDB_ASSERT_OK(engine_or);
    engine_ = std::move(*engine_or);
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv fenv_;
  std::unique_ptr<Engine> engine_;
  Oracle oracle_;
};

TEST_F(TruncationFaultTest, FailedTruncationRewriteDegradesToLongerLog) {
  OpenEngine();
  ASSERT_NO_FATAL_FAILURE(CommitTxn(engine_.get(), &oracle_, 1, 2, 1));
  // The first checkpoint's completion cuts nothing: the cut keeps the
  // previous checkpoint's begin marker, and there is none yet.
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  // The truncation rewrite targets wal.log.tmp; fail it. Truncation is an
  // optimization, so the checkpoint itself must still report success and
  // the log keeps its full history.
  fenv_.InjectFault({FaultKind::kWriteError, "wal.log.tmp",
                     fenv_.op_count(), 1});
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->log()->BaseOffset(), 0u);

  // Crash now — mid-"truncation window" — and recover: the untruncated
  // log still replays from the begin marker.
  ASSERT_NO_FATAL_FAILURE(CommitTxn(engine_.get(), &oracle_, 40, 1, 2));
  MMDB_ASSERT_OK(engine_->FlushLog());
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  const Lsn durable = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));

  // The next checkpoint retries the truncation and succeeds.
  ASSERT_NO_FATAL_FAILURE(CommitTxn(engine_.get(), &oracle_, 80, 1, 3));
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_GT(engine_->log()->BaseOffset(), 0u);
}

TEST_F(TruncationFaultTest, CrashRightAfterFailedTruncationWrite) {
  OpenEngine();
  ASSERT_NO_FATAL_FAILURE(CommitTxn(engine_.get(), &oracle_, 1, 1, 1));
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // cuts nothing

  // Half the rewritten file lands in wal.log.tmp, then the machine dies:
  // the rename never happened, wal.log is untouched, and the stray tmp
  // file must not confuse recovery.
  fenv_.InjectFault({FaultKind::kShortWrite, "wal.log.tmp",
                     fenv_.op_count(), 1});
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->log()->BaseOffset(), 0u);
  const Lsn durable = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  EXPECT_EQ(stats->checkpoint_id, 2u);
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));
}

TEST_F(TruncationFaultTest, RecoveryFindsMarkerAfterSuccessfulTruncation) {
  OpenEngine();
  ASSERT_NO_FATAL_FAILURE(CommitTxn(engine_.get(), &oracle_, 1, 2, 1));
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());  // cuts nothing
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  const uint64_t base = engine_->log()->BaseOffset();
  EXPECT_GT(base, 0u);

  // Commits after the truncation, then a crash: the begin marker now sits
  // at a logical offset past the dropped prefix and must still be found.
  ASSERT_NO_FATAL_FAILURE(CommitTxn(engine_.get(), &oracle_, 40, 1, 2));
  MMDB_ASSERT_OK(engine_->FlushLog());
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  const Lsn durable = engine_->DurableLsn();
  MMDB_ASSERT_OK(engine_->Crash());
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  EXPECT_EQ(stats->checkpoint_id, 2u);
  ASSERT_NO_FATAL_FAILURE(Audit(*engine_, oracle_, durable));

  // A successful truncation leaves a ckpt.log_cut record naming the cut
  // and the reclaimed bytes, and the journal survives the crash/recovery
  // cross-check.
  std::string text;
  MMDB_ASSERT_OK(base_->ReadFileToString(engine_->AuditLogPath(), &text));
  auto entries = ParseAuditJournal(text);
  MMDB_ASSERT_OK(entries);
  bool saw_cut = false;
  for (const AuditEntry& e : *entries) {
    if (e.event == "ckpt.log_cut") saw_cut = true;
  }
  EXPECT_TRUE(saw_cut);
  VerifyAuditTrail(engine_.get());
}

// --- log-manager damage/repair under flush faults -------------------------

TEST(LogRepairTest, FailedFlushKeepsTailAndRepairsOnRetry) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get());
  CpuMeter meter;
  LogManager log(&fenv, "wal.log", SystemParams::TestDefaults(), &meter,
                 /*stable_log_tail=*/false);
  MMDB_ASSERT_OK(log.Open());
  LogRecord r1 = LogRecord::Commit(1);
  LogRecord r2 = LogRecord::Commit(2);
  log.Append(&r1);
  log.Append(&r2);

  // A short write deposits a partial frame; the flush reports the error,
  // keeps the whole tail, and promises nothing.
  fenv.InjectFault({FaultKind::kShortWrite, "wal.log", fenv.op_count(), 1});
  auto failed = log.Flush(0.0);
  ASSERT_TRUE(failed.status().IsIoError()) << failed.status();
  EXPECT_EQ(log.DurableLsn(1000.0), kInvalidLsn);

  // The retry repairs the file (cutting the partial frame) and lands the
  // full tail; both records become durable.
  auto done = log.Flush(1.0);
  MMDB_ASSERT_OK(done);
  EXPECT_EQ(log.DurableLsn(*done), 2u);
  MMDB_ASSERT_OK(log.Crash(*done));
  auto reader = LogReader::Open(&fenv, "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->num_frames(), 2u);
  EXPECT_FALSE(reader->truncated_tail());
}

TEST(LogRepairTest, PersistentFlushFailureNeverFalselyAdvancesDurability) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get());
  CpuMeter meter;
  LogManager log(&fenv, "wal.log", SystemParams::TestDefaults(), &meter,
                 /*stable_log_tail=*/false);
  MMDB_ASSERT_OK(log.Open());
  LogRecord r1 = LogRecord::Commit(1);
  log.Append(&r1);

  fenv.InjectFault({FaultKind::kWriteError, "wal.log", fenv.op_count(),
                    /*times=*/0});
  for (double t = 0.0; t < 0.5; t += 0.1) {
    EXPECT_TRUE(log.Flush(t).status().IsIoError());
    EXPECT_EQ(log.DurableLsn(1000.0), kInvalidLsn);
  }
  fenv.ClearFaults();
  auto done = log.Flush(1.0);
  MMDB_ASSERT_OK(done);
  EXPECT_EQ(log.DurableLsn(*done), 1u);
}

}  // namespace
}  // namespace mmdb

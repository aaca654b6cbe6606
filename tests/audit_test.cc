// Provenance-journal tests (DESIGN.md §18): the journal format itself
// (self-checksummed lines, contiguous sequencing, torn-tail and resume
// semantics), the lifecycle grammar, the engine-level cross-check that
// `mmdb_audit verify --dump=` runs, segment explanation, the bit-identity
// guarantee that auditing never perturbs modeled results, and the
// journal's bytes, pinned by golden files.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "backup/backup_store.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "obs/audit.h"
#include "obs/bench_diff.h"
#include "tests/test_util.h"
#include "util/crc32c.h"
#include "util/json.h"

namespace mmdb {
namespace {

// ---------------------------------------------------------------------------
// The journal format.
// ---------------------------------------------------------------------------

class AuditJournalTest : public testing::Test {
 protected:
  AuditJournalTest() : env_(NewMemEnv()) {}

  // Appends `n` well-formed ckpt.log_cut events (the one event legal
  // anywhere), syncs them and returns the journal text.
  std::string WriteEvents(int n) {
    AuditJournal journal(env_.get(), "audit.log");
    journal.Open(/*fresh=*/true);
    EXPECT_TRUE(journal.enabled());
    for (int i = 0; i < n; ++i) {
      journal.Append({TraceEventType::kCkptLogCut, 0.5 * i, 0.0,
                      {static_cast<uint64_t>(100 * i), 64}},
                     {});
    }
    std::string text;
    EXPECT_TRUE(env_->ReadFileToString("audit.log", &text).ok());
    return text;
  }

  std::unique_ptr<Env> env_;
};

TEST_F(AuditJournalTest, RecordsSelfChecksummedContiguousLines) {
  std::string text = WriteEvents(3);
  auto entries = ParseAuditJournal(text);
  MMDB_ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 3u);
  for (size_t i = 0; i < entries->size(); ++i) {
    EXPECT_EQ((*entries)[i].seq, i + 1);
    EXPECT_EQ((*entries)[i].event, "ckpt.log_cut");
    EXPECT_DOUBLE_EQ((*entries)[i].t, 0.5 * static_cast<double>(i));
  }
  MMDB_EXPECT_OK(VerifyAuditStructure(*entries));
}

TEST_F(AuditJournalTest, CorruptedByteFailsTheLineCrc) {
  std::string text = WriteEvents(3);
  // Flip one byte inside the second line's payload: the line may still be
  // valid JSON, but the checksum no longer covers it.
  size_t second = text.find('\n') + 1;
  size_t cut_pos = text.find("\"cut\":", second);
  ASSERT_NE(cut_pos, std::string::npos);
  text[cut_pos + 6] = text[cut_pos + 6] == '1' ? '2' : '1';
  auto entries = ParseAuditJournal(text);
  EXPECT_TRUE(entries.status().IsCorruption()) << entries.status();
}

TEST_F(AuditJournalTest, MissingLineIsASequenceGap) {
  std::string text = WriteEvents(3);
  size_t first_nl = text.find('\n');
  size_t second_nl = text.find('\n', first_nl + 1);
  std::string spliced =
      text.substr(0, first_nl + 1) + text.substr(second_nl + 1);
  auto entries = ParseAuditJournal(spliced);
  EXPECT_TRUE(entries.status().IsCorruption()) << entries.status();
}

TEST_F(AuditJournalTest, TornTrailingLineIsIgnored) {
  std::string text = WriteEvents(3);
  // Chop the final newline and a few bytes before it: a torn append.
  std::string torn = text.substr(0, text.size() - 5);
  auto entries = ParseAuditJournal(torn);
  MMDB_ASSERT_OK(entries);
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(AuditJournalTest, ReopenDropsTornTailAndResumesNumbering) {
  std::string text = WriteEvents(2);
  // A crash tore a third line mid-append.
  MMDB_ASSERT_OK(env_->WriteStringToFile(
      "audit.log", text + "{\"seq\":3,\"t\":9.0,\"event\":\"ckp", false));

  AuditJournal journal(env_.get(), "audit.log");
  journal.Open(/*fresh=*/false);
  ASSERT_TRUE(journal.enabled());
  EXPECT_EQ(journal.next_seq(), 3u);
  journal.Append({TraceEventType::kCkptLogCut, 2.0, 0.0, {300, 64}}, {});

  std::string resumed;
  MMDB_ASSERT_OK(env_->ReadFileToString("audit.log", &resumed));
  auto entries = ParseAuditJournal(resumed);
  MMDB_ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[2].seq, 3u);
  EXPECT_DOUBLE_EQ((*entries)[2].t, 2.0);
}

TEST_F(AuditJournalTest, FirstAppendErrorDisablesTheJournal) {
  FaultInjectionEnv fenv(env_.get());
  AuditJournal journal(&fenv, "audit.log");
  journal.Open(/*fresh=*/true);
  ASSERT_TRUE(journal.enabled());
  fenv.InjectFault({FaultKind::kWriteError, "audit", fenv.op_count(),
                    /*times=*/1});
  journal.Append({TraceEventType::kCkptLogCut, 1.0}, {});
  EXPECT_FALSE(journal.enabled());
  EXPECT_EQ(journal.counters().append_errors, 1u);
  // A torn line must never be followed by more lines.
  journal.Append({TraceEventType::kCkptLogCut, 2.0}, {});
  EXPECT_EQ(journal.counters().entries, 0u);
}

// A reopen faulted on its first journal write must not lose a line an
// earlier Sync() made durable: a clean journal is reopened without any
// write, and a torn tail is cut through a synced temp file and a rename.
TEST_F(AuditJournalTest, FaultedReopenKeepsACleanJournal) {
  std::string text = WriteEvents(2);
  FaultInjectionEnv fenv(env_.get());
  fenv.InjectFault({FaultKind::kWriteError, "audit", fenv.op_count(),
                    /*times=*/1});
  AuditJournal journal(&fenv, "audit.log");
  journal.Open(/*fresh=*/false);
  EXPECT_EQ(journal.next_seq(), 3u);
  journal.Append({TraceEventType::kCkptLogCut, 2.0}, {});  // takes the fault
  EXPECT_FALSE(journal.enabled());
  std::string after;
  MMDB_ASSERT_OK(env_->ReadFileToString("audit.log", &after));
  EXPECT_EQ(after, text);
}

TEST_F(AuditJournalTest, FaultedReopenLeavesATornJournalIntact) {
  std::string text = WriteEvents(2);
  const std::string torn = text + "{\"seq\":3,\"t\":9.0,\"event\":\"ckp";
  MMDB_ASSERT_OK(env_->WriteStringToFile("audit.log", torn, /*sync=*/true));
  FaultInjectionEnv fenv(env_.get());
  fenv.InjectFault({FaultKind::kWriteError, "audit", fenv.op_count(),
                    /*times=*/1});
  {
    AuditJournal journal(&fenv, "audit.log");
    journal.Open(/*fresh=*/false);
    EXPECT_FALSE(journal.enabled());
    EXPECT_EQ(journal.counters().append_errors, 1u);
  }
  std::string after;
  MMDB_ASSERT_OK(env_->ReadFileToString("audit.log", &after));
  EXPECT_EQ(after, torn);
  // The next, unfaulted reopen cuts the tail and keeps the lines.
  AuditJournal journal(&fenv, "audit.log");
  journal.Open(/*fresh=*/false);
  EXPECT_TRUE(journal.enabled());
  MMDB_ASSERT_OK(env_->ReadFileToString("audit.log", &after));
  EXPECT_EQ(after, text);
}

// ---------------------------------------------------------------------------
// Lifecycle grammar.
// ---------------------------------------------------------------------------

class AuditGrammarTest : public testing::Test {
 protected:
  AuditGrammarTest() : env_(NewMemEnv()) {}

  // Runs `script` against a fresh journal and returns the structural
  // verdict over what it wrote.
  Status Verdict(const std::function<void(AuditJournal&)>& script) {
    AuditJournal journal(env_.get(), "audit.log");
    journal.Open(/*fresh=*/true);
    script(journal);
    std::string text;
    EXPECT_TRUE(env_->ReadFileToString("audit.log", &text).ok());
    auto entries = ParseAuditJournal(text);
    if (!entries.ok()) return entries.status();
    return VerifyAuditStructure(*entries);
  }

  std::unique_ptr<Env> env_;
};

TEST_F(AuditGrammarTest, FlushOutsideACheckpointChainIsRejected) {
  Status st = Verdict([](AuditJournal& j) {
    j.Append({TraceEventType::kCkptFlush, 1.0, 0.0, {1, 0, 1, 5, 4096}}, {});
  });
  EXPECT_TRUE(st.IsCorruption()) << st;
}

// One journal line as Append writes it: `body` (a JSON object without the
// crc member) with its CRC spliced in.
std::string SplicedLine(const std::string& body) {
  return body.substr(0, body.size() - 1) + ",\"crc\":" +
         std::to_string(crc32c::Value(body)) + "}\n";
}

TEST_F(AuditGrammarTest, MissingRequiredFieldIsRejected) {
  // Every member the event table lists for a journaled kind is required:
  // the line without it fails, whichever kind and member.
  const std::vector<SegmentLineage> lineage(2);
  const SegmentId failed[] = {0};
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    const TraceEventSpec& spec = TraceEventSpecFor(type);
    if (!spec.journaled) continue;
    AuditJournal journal(env_.get(), "audit.log");
    journal.Open(/*fresh=*/true);
    journal.Append({type, 1.0},
                   {.text = "x", .segments = failed, .lineage = &lineage});
    std::string text;
    MMDB_ASSERT_OK(env_->ReadFileToString("audit.log", &text));
    auto entries = ParseAuditJournal(text);
    MMDB_ASSERT_OK(entries);
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ(VerifyAuditStructure(*entries).message().find("missing field"),
              std::string::npos)
        << spec.name;
    for (const TraceFieldSpec& f : spec.fields) {
      if (f.name == nullptr) break;
      JsonValue line = (*entries)[0].object;
      ASSERT_TRUE(line.Erase(f.name));
      ASSERT_TRUE(line.Erase("crc"));
      auto dropped = ParseAuditJournal(SplicedLine(line.Dump()));
      MMDB_ASSERT_OK(dropped);
      Status st = VerifyAuditStructure(*dropped);
      EXPECT_TRUE(st.IsCorruption()) << spec.name << " without " << f.name;
      EXPECT_NE(st.message().find("missing field '" + std::string(f.name)),
                std::string::npos)
          << st;
    }
  }
}

TEST_F(AuditGrammarTest, UnknownEventIsRejected) {
  // Neither a name no kind has nor a ring-only kind is a journal event.
  for (const char* event : {"ckpt.telepathy", "log.append"}) {
    auto entries = ParseAuditJournal(SplicedLine(
        std::string(R"({"seq":1,"t":1,"event":")") + event + R"("})"));
    MMDB_ASSERT_OK(entries);
    Status st = VerifyAuditStructure(*entries);
    EXPECT_TRUE(st.IsCorruption()) << event;
    EXPECT_NE(st.message().find("unknown event"), std::string::npos) << st;
  }
}

// ---------------------------------------------------------------------------
// Engine-level: the cross-check `mmdb_audit verify --dump=` runs.
// ---------------------------------------------------------------------------

class AuditEngineTest : public testing::Test {
 protected:
  AuditEngineTest() : env_(NewMemEnv()) {}

  std::unique_ptr<Engine> MustOpen(const EngineOptions& opt) {
    auto engine = Engine::Open(opt, env_.get());
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(*engine);
  }

  // Scripted life: populate, checkpoint, more commits, crash, recover.
  void RunLife(Engine* engine) {
    const size_t rec_bytes = engine->db().record_bytes();
    const uint32_t rps = engine->params().db.records_per_segment();
    for (SegmentId s = 0; s < engine->db().num_segments(); ++s) {
      RecordId r = s * rps;
      MMDB_ASSERT_OK(
          engine->Apply({{r, MakeRecordImage(rec_bytes, r, 1)}}).status());
    }
    MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
    // Post-checkpoint commits in the first and the middle segment, so
    // replay has work in more than one segment.
    const RecordId mid =
        static_cast<RecordId>(engine->db().num_segments() / 2) * rps;
    MMDB_ASSERT_OK(
        engine->Apply({{0, MakeRecordImage(rec_bytes, 0, 2)}}).status());
    MMDB_ASSERT_OK(
        engine->Apply({{mid, MakeRecordImage(rec_bytes, mid, 2)}}).status());
    engine->FlushLog();
    MMDB_ASSERT_OK(engine->AdvanceTime(1.0));
    MMDB_ASSERT_OK(engine->Crash());
    MMDB_ASSERT_OK(engine->Recover());
    // Under the instant lane the lineage and recovery.end land when the
    // on-demand drain completes; blocking recovery makes this a no-op.
    MMDB_ASSERT_OK(engine->DrainRecovery());
  }

  std::string JournalText(Engine* engine) {
    std::string text;
    EXPECT_TRUE(
        env_->ReadFileToString(engine->AuditLogPath(), &text).ok());
    return text;
  }

  std::unique_ptr<Env> env_;
};

TEST_F(AuditEngineTest, FullLifeVerifiesAgainstTheEngineDump) {
  auto engine = MustOpen(TinyOptions());
  RunLife(engine.get());

  std::string text = JournalText(engine.get());
  auto entries = ParseAuditJournal(text);
  MMDB_ASSERT_OK(entries);

  // Every lifecycle stage left its event.
  for (const char* want :
       {"ckpt.begin", "ckpt.flush", "ckpt.end", "recovery.begin",
        "recovery.log", "recovery.plan", "recovery.lineage",
        "recovery.end"}) {
    bool found = false;
    for (const AuditEntry& e : *entries) {
      if (e.event == want) found = true;
    }
    EXPECT_TRUE(found) << "journal never recorded " << want;
  }

  auto dump = JsonValue::Parse(engine->DumpMetricsJson());
  MMDB_ASSERT_OK(dump);
  MMDB_EXPECT_OK(VerifyAuditJournal(text, &*dump));
}

TEST_F(AuditEngineTest, InstantOnDemandLineageRecordsFirstTouchOrder) {
  // Explicit instant-recovery restart: every segment's materialization is
  // journaled once, in first-materialization order, and the segments a
  // mid-restart transaction touches lead that order.
  EngineOptions opt = TinyOptions();
  opt.instant_recovery = true;
  auto engine = MustOpen(opt);
  ASSERT_TRUE(engine->instant_recovery_enabled());

  const size_t rec_bytes = engine->db().record_bytes();
  const uint32_t rps = engine->params().db.records_per_segment();
  const SegmentId nsegs = engine->db().num_segments();
  for (SegmentId s = 0; s < nsegs; ++s) {
    RecordId r = s * rps;
    MMDB_ASSERT_OK(
        engine->Apply({{r, MakeRecordImage(rec_bytes, r, 1)}}).status());
  }
  MMDB_ASSERT_OK(engine->RunCheckpointToCompletion());
  engine->FlushLog();
  MMDB_ASSERT_OK(engine->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine->Crash());
  MMDB_ASSERT_OK(engine->Recover());

  // Mid-restart transactions in a deliberately non-sequential order; each
  // first access stalls on the recovery latch and materializes its segment.
  const SegmentId touch_order[] = {nsegs - 1, 1, nsegs / 2};
  for (SegmentId s : touch_order) {
    RecordId r = s * rps;
    MMDB_ASSERT_OK(
        engine->Apply({{r, MakeRecordImage(rec_bytes, r, 2)}}).status());
  }
  MMDB_ASSERT_OK(engine->DrainRecovery());
  EXPECT_GT(engine->time_to_first_txn(), 0.0);
  EXPECT_LT(engine->time_to_first_txn(), engine->time_to_full_recovery());

  std::string text = JournalText(engine.get());
  auto entries = ParseAuditJournal(text);
  MMDB_ASSERT_OK(entries);

  auto num = [](const AuditEntry& e, const char* key) -> uint64_t {
    const JsonValue* v = e.object.Find(key);
    return v != nullptr && v->is_number()
               ? static_cast<uint64_t>(v->number_value())
               : ~0ull;
  };
  auto str = [](const AuditEntry& e, const char* key) -> std::string {
    const JsonValue* v = e.object.Find(key);
    return v != nullptr ? v->string_value() : std::string();
  };

  // Exactly one on-demand event per segment, the journal's own `order`
  // field counting 0..nsegs-1 in journal order, no segment repeated.
  std::vector<const AuditEntry*> loads;
  for (const AuditEntry& e : *entries) {
    if (e.event == "recovery.segment_on_demand") loads.push_back(&e);
  }
  ASSERT_EQ(loads.size(), static_cast<size_t>(nsegs));
  std::vector<bool> seen(nsegs, false);
  for (size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(num(*loads[i], "order"), i);
    const uint64_t seg = num(*loads[i], "segment");
    ASSERT_LT(seg, nsegs);
    EXPECT_FALSE(seen[seg]) << "segment " << seg << " materialized twice";
    seen[seg] = true;
  }

  // The very first materialization is the first touch: admission
  // materializes the touched segment before any background reload lands.
  EXPECT_EQ(num(*loads[0], "segment"), nsegs - 1);
  EXPECT_EQ(str(*loads[0], "trigger"), "touch");

  // Later planned touches can be pre-empted by a background reload that
  // completes during an earlier stall (then they journal as "background"),
  // but the touch-triggered events that DO exist for our touched segments
  // must appear in touch order.
  std::vector<SegmentId> touched_in_journal;
  for (const AuditEntry* e : loads) {
    if (str(*e, "trigger") != "touch") continue;
    const SegmentId seg = static_cast<SegmentId>(num(*e, "segment"));
    for (SegmentId t : touch_order) {
      if (t == seg) touched_in_journal.push_back(seg);
    }
  }
  ASSERT_FALSE(touched_in_journal.empty());
  size_t cursor = 0;
  for (SegmentId seg : touched_in_journal) {
    while (cursor < std::size(touch_order) && touch_order[cursor] != seg) {
      ++cursor;
    }
    EXPECT_LT(cursor, std::size(touch_order))
        << "touch events out of touch order at segment " << seg;
  }

  // The mid-restart story still verifies against the engine dump.
  auto dump = JsonValue::Parse(engine->DumpMetricsJson());
  MMDB_ASSERT_OK(dump);
  MMDB_EXPECT_OK(VerifyAuditJournal(text, &*dump));
}

TEST_F(AuditEngineTest, CorruptedJournalEntryFailsVerify) {
  auto engine = MustOpen(TinyOptions());
  RunLife(engine.get());

  std::string text = JournalText(engine.get());
  auto dump = JsonValue::Parse(engine->DumpMetricsJson());
  MMDB_ASSERT_OK(dump);
  MMDB_ASSERT_OK(VerifyAuditJournal(text, &*dump));

  // One flipped byte in a complete line must fail verification.
  size_t pos = text.find("\"event\":\"ckpt.");
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = text;
  tampered[pos + 9] = 'x';  // ckpt. -> xkpt.
  EXPECT_FALSE(VerifyAuditJournal(tampered, &*dump).ok());

  // So must a silently dropped tail (the engine's sequence runs past it).
  std::string truncated = text;
  truncated.resize(truncated.rfind('\n', truncated.size() - 2) + 1);
  EXPECT_FALSE(VerifyAuditJournal(truncated, &*dump).ok());

  // And a lineage whose arrays do not all hold `segments` entries, under
  // valid CRCs and with a dump that agrees with it: CORRUPTION for the
  // verifier and for ExplainSegment, never an index past an array's end.
  const std::string lineage =
      R"({"segments":3,"checkpoint":[1,1,1],"copy":[],"retried":[],)"
      R"("frames":[],"first_lsn":[],"last_lsn":[]})";
  const std::string forged =
      SplicedLine(R"({"seq":1,"t":0,"event":"recovery.begin","restart":true})") +
      SplicedLine(R"({"seq":2,"t":0,"event":"recovery.lineage","lineage":)" +
                  lineage + "}") +
      SplicedLine(R"({"seq":3,"t":0,"event":"recovery.end","checkpoint":1,)"
                  R"("copy":1,"fell_back":false,"last_lsn":0,"applies":0,)"
                  R"("txns":0})");
  auto forged_dump = JsonValue::Parse(
      R"({"audit":{"journal":{"next_seq":4},"lineage":)" + lineage +
      R"(},"recovery":{"checkpoint":1,"copy":1,"updates_applied":0,)"
      R"("txns_redone":0,"fell_back":false,"segments_retried":0}})");
  MMDB_ASSERT_OK(forged_dump);
  auto forged_entries = ParseAuditJournal(forged);
  MMDB_ASSERT_OK(forged_entries);
  Status verdict = VerifyAuditJournal(forged, &*forged_dump);
  EXPECT_TRUE(verdict.IsCorruption()) << verdict;
  auto explained = ExplainSegment(*forged_entries, 2);
  EXPECT_TRUE(explained.status().IsCorruption()) << explained.status();
}

TEST_F(AuditEngineTest, ExplainSegmentTellsTheWholeStory) {
  auto engine = MustOpen(TinyOptions());

  // Before any recovery there is nothing to explain.
  {
    auto entries = ParseAuditJournal(JournalText(engine.get()));
    MMDB_ASSERT_OK(entries);
    auto none = ExplainSegment(*entries, 0);
    EXPECT_TRUE(none.status().IsNotFound()) << none.status();
  }

  RunLife(engine.get());
  auto entries = ParseAuditJournal(JournalText(engine.get()));
  MMDB_ASSERT_OK(entries);

  // Segment 0 took a post-checkpoint commit: restored from checkpoint 1,
  // then repainted by replay, and the checkpoint's own chain is in the
  // same journal.
  auto p = ExplainSegment(*entries, 0);
  MMDB_ASSERT_OK(p);
  EXPECT_EQ(p->lineage.checkpoint_id, 1u);
  EXPECT_EQ(p->lineage.copy, 1u);
  EXPECT_FALSE(p->lineage.retried);
  EXPECT_GT(p->lineage.frames, 0u);
  EXPECT_NE(p->lineage.first_lsn, kInvalidLsn);
  EXPECT_TRUE(p->checkpoint_in_journal);
  EXPECT_EQ(p->checkpoint_aborted_attempts, 0u);
  EXPECT_FALSE(p->checkpoint_algorithm.empty());

  // A segment nothing touched after the checkpoint: same provenance, no
  // replay.
  auto quiet = ExplainSegment(*entries, engine->db().num_segments() - 1);
  MMDB_ASSERT_OK(quiet);
  EXPECT_EQ(quiet->lineage.checkpoint_id, 1u);
  EXPECT_EQ(quiet->lineage.frames, 0u);

  auto oor = ExplainSegment(*entries, engine->db().num_segments());
  EXPECT_EQ(oor.status().code(), StatusCode::kOutOfRange) << oor.status();
}

TEST_F(AuditEngineTest, AuditingNeverPerturbsModeledResults) {
  // Identical lives with the journal on and off: everything outside the
  // dump's "audit" member — metrics registry, trace, recovery stats —
  // must be equal, exactly, by the bench gate's own comparator. This is
  // the contract that lets the journal ride along in every baseline.
  auto run = [&](bool audit_on) {
    EngineOptions opt = TinyOptions();
    opt.audit_journal = audit_on;
    opt.dir = audit_on ? "with_audit" : "without_audit";
    auto engine = MustOpen(opt);
    RunLife(engine.get());
    return JsonValue::Parse(engine->DumpMetricsJson());
  };
  StatusOr<JsonValue> with = run(true);
  StatusOr<JsonValue> without = run(false);
  MMDB_ASSERT_OK(with);
  MMDB_ASSERT_OK(without);
  EXPECT_TRUE(with->Find("audit")->is_object());
  EXPECT_TRUE(with->Erase("audit"));
  EXPECT_TRUE(without->Erase("audit"));
  BenchDiffOptions exact;
  exact.rel_tol = 0;
  auto diff = DiffBenchDocs(*with, *without, exact);
  MMDB_ASSERT_OK(diff);
  EXPECT_EQ(diff->mismatches, 0u)
      << (diff->reports.empty() ? "" : diff->reports.front());
  EXPECT_GT(diff->leaves_compared, 100u);
}

// ---------------------------------------------------------------------------
// Journal bytes: fixed MemEnv engines driven through all 14 journaled
// kinds, each audit.log compared byte for byte with tests/testdata/.
// Regenerate after an intentional format change with
//   MMDB_REGENERATE_GOLDEN=1 ./audit_test --gtest_filter='AuditGoldenTest.*'
// ---------------------------------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(MMDB_TESTDATA_DIR) + "/" + name;
}

std::string ReadGolden(const std::string& name) {
  std::string text;
  if (std::FILE* f = std::fopen(GoldenPath(name).c_str(), "rb")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  return text;
}

class AuditGoldenTest : public testing::Test {
 protected:
  AuditGoldenTest() : base_(NewMemEnv()), fenv_(base_.get()) {
    // Each drive pins its own restart schedule; the instant lane's
    // override would turn the blocking restarts into on-demand ones.
    if (const char* v = std::getenv("MMDB_INSTANT_RECOVERY")) {
      saved_instant_ = v;
      had_instant_ = true;
    }
    unsetenv("MMDB_INSTANT_RECOVERY");
  }
  ~AuditGoldenTest() override {
    if (had_instant_) {
      setenv("MMDB_INSTANT_RECOVERY", saved_instant_.c_str(), 1);
    }
  }

  std::unique_ptr<Engine> MustOpen(EngineOptions opt, const char* dir) {
    opt.dir = dir;
    auto engine = Engine::Open(opt, &fenv_);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return engine.ok() ? std::move(*engine) : nullptr;
  }

  static void Put(Engine* e, SegmentId s, uint64_t marker) {
    const RecordId r = s * e->params().db.records_per_segment();
    MMDB_ASSERT_OK(
        e->Apply({{r, MakeRecordImage(e->db().record_bytes(), r, marker)}})
            .status());
  }

  static void Fill(Engine* e, uint64_t marker) {
    for (SegmentId s = 0; s < e->db().num_segments(); ++s) {
      ASSERT_NO_FATAL_FAILURE(Put(e, s, marker));
    }
  }

  static void Settle(Engine* e) {
    MMDB_ASSERT_OK(e->FlushLog());
    MMDB_ASSERT_OK(e->AdvanceTime(1.0));
  }

  // Flips one byte of segment `s` in backup copy `copy`, leaving its CRC
  // stale.
  void Corrupt(Engine* e, uint32_t copy, SegmentId s) {
    auto file = base_->NewRandomWriteFile(e->options().dir + "/backup_" +
                                          std::to_string(copy) + ".db");
    MMDB_ASSERT_OK(file);
    const uint64_t off = BackupStore::SlotOffsetFor(e->params().db, s) + 17;
    std::string byte;
    MMDB_ASSERT_OK((*file)->Read(off, 1, &byte));
    byte[0] = static_cast<char>(byte[0] ^ 0x40);
    MMDB_ASSERT_OK((*file)->WriteAt(off, byte));
    MMDB_ASSERT_OK((*file)->Close());
  }

  // The engine's journal must equal tests/testdata/<name> byte for byte.
  void ExpectGolden(Engine* e, const std::string& name) {
    std::string text;
    MMDB_ASSERT_OK(base_->ReadFileToString(e->AuditLogPath(), &text));
    auto entries = ParseAuditJournal(text);
    MMDB_ASSERT_OK(entries);
    MMDB_EXPECT_OK(VerifyAuditStructure(*entries));
    if (std::getenv("MMDB_REGENERATE_GOLDEN") != nullptr) {
      std::FILE* f = std::fopen(GoldenPath(name).c_str(), "wb");
      ASSERT_NE(f, nullptr) << GoldenPath(name);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      GTEST_SKIP() << "golden regenerated at " << GoldenPath(name);
    }
    EXPECT_EQ(text, ReadGolden(name))
        << "the journal drifted from " << GoldenPath(name)
        << "; regenerate with MMDB_REGENERATE_GOLDEN=1 only if the format "
           "change is intentional";
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv fenv_;
  std::string saved_instant_;
  bool had_instant_ = false;
};

// Checkpoint chain: a ZIGZAG sweep whose one snapshot buffer runs out
// (ckpt.degraded), log truncation after each completed checkpoint
// (ckpt.log_cut), an attempt aborted by a backup write fault and its
// retry, then a crash and a blocking restart.
TEST_F(AuditGoldenTest, CheckpointsAndBlockingRestart) {
  EngineOptions opt = TinyOptions();
  opt.algorithm = Algorithm::kZigzag;
  opt.max_snapshot_buffers = 1;
  opt.truncate_log_at_checkpoint = true;
  auto e = MustOpen(opt, "golden_checkpoints");
  ASSERT_NE(e, nullptr);
  ASSERT_NO_FATAL_FAILURE(Fill(e.get(), 1));
  MMDB_ASSERT_OK(e->StartCheckpoint());
  const SegmentId n = e->db().num_segments();
  for (SegmentId s : {n - 1, n - 2, n - 3}) {
    ASSERT_NO_FATAL_FAILURE(Put(e.get(), s, 2));
  }
  while (e->CheckpointInProgress()) MMDB_ASSERT_OK(e->StepCheckpoint());
  fenv_.InjectFault(
      {FaultKind::kWriteError, "backup_", fenv_.op_count(), /*times=*/1});
  EXPECT_TRUE(e->RunCheckpointToCompletion().IsIoError());
  MMDB_ASSERT_OK(e->RunCheckpointToCompletion());
  ASSERT_NO_FATAL_FAILURE(Put(e.get(), n / 2, 3));
  ASSERT_NO_FATAL_FAILURE(Settle(e.get()));
  MMDB_ASSERT_OK(e->Crash());
  MMDB_ASSERT_OK(e->Recover());
  ExpectGolden(e.get(), "audit_golden_checkpoints.log");
}

// An instant restart: two touch loads, background loads while the clock
// moves, then the drain.
TEST_F(AuditGoldenTest, InstantRestart) {
  EngineOptions opt = TinyOptions();
  opt.instant_recovery = true;
  auto e = MustOpen(opt, "golden_instant");
  ASSERT_NE(e, nullptr);
  ASSERT_NO_FATAL_FAILURE(Fill(e.get(), 1));
  MMDB_ASSERT_OK(e->RunCheckpointToCompletion());
  const SegmentId n = e->db().num_segments();
  ASSERT_NO_FATAL_FAILURE(Put(e.get(), 0, 2));
  ASSERT_NO_FATAL_FAILURE(Put(e.get(), n / 2, 2));
  ASSERT_NO_FATAL_FAILURE(Settle(e.get()));
  MMDB_ASSERT_OK(e->Crash());
  MMDB_ASSERT_OK(e->Recover());
  ASSERT_NO_FATAL_FAILURE(Put(e.get(), n - 1, 3));
  ASSERT_NO_FATAL_FAILURE(Put(e.get(), 1, 3));
  MMDB_ASSERT_OK(e->AdvanceTime(0.05));
  MMDB_ASSERT_OK(e->DrainRecovery());
  std::string text;
  MMDB_ASSERT_OK(base_->ReadFileToString(e->AuditLogPath(), &text));
  EXPECT_NE(text.find("\"trigger\":\"touch\""), std::string::npos);
  EXPECT_NE(text.find("\"trigger\":\"background\""), std::string::npos);
  ExpectGolden(e.get(), "audit_golden_instant.log");
}

// The newest copy rots: the blocking restart falls back to the older one.
TEST_F(AuditGoldenTest, OlderCopyFallback) {
  auto e = MustOpen(TinyOptions(), "golden_fallback");
  ASSERT_NE(e, nullptr);
  ASSERT_NO_FATAL_FAILURE(Fill(e.get(), 1));
  MMDB_ASSERT_OK(e->RunCheckpointToCompletion());  // id 1 -> copy 1
  ASSERT_NO_FATAL_FAILURE(Put(e.get(), 3, 2));
  MMDB_ASSERT_OK(e->RunCheckpointToCompletion());  // id 2 -> copy 0
  ASSERT_NO_FATAL_FAILURE(Put(e.get(), 5, 3));
  ASSERT_NO_FATAL_FAILURE(Settle(e.get()));
  MMDB_ASSERT_OK(e->Crash());
  ASSERT_NO_FATAL_FAILURE(Corrupt(e.get(), 0, 0));
  MMDB_ASSERT_OK(e->Recover());
  EXPECT_TRUE(e->last_recovery().fell_back_to_older_copy);
  ExpectGolden(e.get(), "audit_golden_fallback.log");
}

// The only complete copy rots and nothing older exists: the restart fails
// and its chain ends in recovery.error.
TEST_F(AuditGoldenTest, FailedRestart) {
  auto e = MustOpen(TinyOptions(), "golden_error");
  ASSERT_NE(e, nullptr);
  ASSERT_NO_FATAL_FAILURE(Fill(e.get(), 1));
  MMDB_ASSERT_OK(e->RunCheckpointToCompletion());  // id 1 -> copy 1
  ASSERT_NO_FATAL_FAILURE(Settle(e.get()));
  MMDB_ASSERT_OK(e->Crash());
  ASSERT_NO_FATAL_FAILURE(Corrupt(e.get(), 1, 0));
  EXPECT_TRUE(e->Recover().status().IsCorruption());
  ExpectGolden(e.get(), "audit_golden_error.log");
}

// Together the four goldens hold every journaled kind.
TEST(AuditGoldenCoverageTest, GoldensHoldEveryJournaledKind) {
  std::set<std::string> seen;
  for (const char* name :
       {"audit_golden_checkpoints.log", "audit_golden_instant.log",
        "audit_golden_fallback.log", "audit_golden_error.log"}) {
    auto entries = ParseAuditJournal(ReadGolden(name));
    MMDB_ASSERT_OK(entries);
    for (const AuditEntry& e : *entries) seen.insert(e.event);
  }
  EXPECT_EQ(seen,
            (std::set<std::string>{
                "ckpt.begin", "ckpt.flush", "ckpt.degraded", "ckpt.end",
                "ckpt.abort", "ckpt.log_cut", "recovery.begin",
                "recovery.log", "recovery.plan", "recovery.fallback",
                "recovery.segment_on_demand", "recovery.lineage",
                "recovery.end", "recovery.error"}));
}

}  // namespace
}  // namespace mmdb

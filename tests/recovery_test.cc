// RecoveryManager-focused tests: marker location, metadata cross-checks,
// REDO filtering of uncommitted transactions, timing accounting,
// corruption handling, what each restart path does with non-durable
// writes, and the instant-recovery schedule's pick order.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "recovery/recovery_manager.h"
#include "tests/test_util.h"
#include "wal/log_reader.h"

namespace mmdb {
namespace {

class RecoveryTest : public testing::Test {
 protected:
  void Open(EngineOptions opt) {
    env_ = NewMemEnv();
    auto engine = Engine::Open(opt, env_.get());
    MMDB_ASSERT_OK(engine);
    engine_ = std::move(*engine);
  }

  std::string Image(RecordId r, uint64_t marker) {
    return MakeRecordImage(engine_->db().record_bytes(), r, marker);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(RecoveryTest, ReplaysCommittedSkipsUncommitted) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  std::string durable_image = Image(1, 100);
  MMDB_ASSERT_OK(engine_->Apply({{1, durable_image}}).status());
  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));

  // A transaction whose commit record never reaches the disk.
  std::string lost_image = Image(2, 200);
  MMDB_ASSERT_OK(engine_->Apply({{2, lost_image}}).status());

  MMDB_ASSERT_OK(engine_->Crash());
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  EXPECT_EQ(engine_->ReadRecordRaw(1), std::string_view(durable_image));
  EXPECT_NE(engine_->ReadRecordRaw(2), std::string_view(lost_image));
  EXPECT_GE(stats->updates_applied, 1u);
  EXPECT_GE(stats->txns_redone, 1u);
}

TEST_F(RecoveryTest, RecoveryTimeScalesWithLogBulk) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  // Small log.
  WorkloadOptions wopt;
  wopt.duration = 0.05;
  wopt.run_checkpoints = false;
  WorkloadDriver d1(engine_.get(), wopt);
  MMDB_ASSERT_OK(d1.Run());
  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  auto small = engine_->Recover();
  MMDB_ASSERT_OK(small);

  // Much bigger log on a fresh engine (no intervening checkpoints).
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  wopt.duration = 1.0;
  WorkloadDriver d2(engine_.get(), wopt);
  MMDB_ASSERT_OK(d2.Run());
  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  auto big = engine_->Recover();
  MMDB_ASSERT_OK(big);

  EXPECT_GT(big->log_bytes_read, small->log_bytes_read * 5);
  EXPECT_GT(big->log_read_seconds, small->log_read_seconds);
  EXPECT_GT(big->total_seconds, small->total_seconds);
  // Backup read time is identical: same database size, same disks.
  EXPECT_NEAR(big->backup_read_seconds, small->backup_read_seconds, 1e-9);
}

TEST_F(RecoveryTest, UsesLatestCompleteCheckpointAfterSeveral) {
  Open(TinyOptions());
  WorkloadOptions wopt;
  wopt.duration = 4.0;
  WorkloadDriver driver(engine_.get(), wopt);
  auto r = driver.Run();
  MMDB_ASSERT_OK(r);
  ASSERT_GE(r->checkpoints_completed, 3u);

  Lsn durable = engine_->DurableLsn();
  CheckpointId last = engine_->scheduler().completed();
  MMDB_ASSERT_OK(engine_->Crash());
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  // The restored checkpoint is the last *complete* one (the in-progress
  // checkpoint, if any, is skipped).
  EXPECT_GE(stats->checkpoint_id + 1, last);
  VerifyRecovered(*engine_, driver, durable);
}

TEST_F(RecoveryTest, MetadataLogMismatchIsCorruption) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->Crash());

  // Corrupt the metadata to point at a bogus offset.
  CheckpointMeta bogus;
  bogus.checkpoint_id = 1;
  bogus.copy = 1;
  bogus.log_offset = 4;  // not a frame boundary / wrong marker
  bogus.begin_lsn = 1;
  MMDB_ASSERT_OK(engine_->backup()->CommitCheckpoint(bogus));

  auto stats = engine_->Recover();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status();
}

TEST_F(RecoveryTest, TruncatedLogTailIsTolerated) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  std::string image = Image(3, 7);
  MMDB_ASSERT_OK(engine_->Apply({{3, image}}).status());
  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());

  // Chop bytes off the end of the log file: a torn final flush.
  std::string contents;
  MMDB_ASSERT_OK(env_->ReadFileToString(engine_->LogPath(), &contents));
  contents.resize(contents.size() - 5);
  MMDB_ASSERT_OK(
      env_->WriteStringToFile(engine_->LogPath(), contents, false));

  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  // The torn transaction is simply not recovered.
  EXPECT_NE(engine_->ReadRecordRaw(3), std::string_view(image));
}

TEST_F(RecoveryTest, EngineContinuesAfterRecoveryNewCommitsWork) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());

  std::string image = Image(9, 42);
  MMDB_ASSERT_OK(engine_->Apply({{9, image}}).status());
  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  EXPECT_EQ(engine_->ReadRecordRaw(9), std::string_view(image));
}

TEST_F(RecoveryTest, RepeatedRecoveriesOnOneEngineKeepEveryCommit) {
  // Crash and recover twice on one engine: commits from before the first
  // crash, from before the second, and from between them all survive.
  Open(TinyOptions());
  std::map<RecordId, std::string> committed;
  auto commit = [&](RecordId r, uint64_t marker) {
    committed[r] = Image(r, marker);
    MMDB_ASSERT_OK(engine_->Apply({{r, committed[r]}}).status());
  };
  auto settle = [&] {
    MMDB_ASSERT_OK(engine_->FlushLog());
    MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  };
  commit(10, 1);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  commit(20, 2);
  settle();
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  commit(30, 3);
  settle();
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  MMDB_ASSERT_OK(engine_->DrainRecovery());
  for (const auto& [r, image] : committed) {
    EXPECT_EQ(engine_->ReadRecordRaw(r), std::string_view(image))
        << "record " << r;
  }
}

TEST_F(RecoveryTest, RecoveryClockAdvancesByModeledTime) {
  Open(TinyOptions());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->Crash());
  double before = engine_->now();
  auto stats = engine_->Recover();
  MMDB_ASSERT_OK(stats);
  if (engine_->instant_recovery_enabled()) {
    // Instant recovery admits transactions after the log-read phase only;
    // the backup reloads complete on the virtual timeline during the
    // drain (replay CPU is absorbed into on-demand materialization).
    EXPECT_NEAR(engine_->now() - before, stats->log_read_seconds, 1e-12);
    EXPECT_NEAR(engine_->time_to_first_txn(), stats->log_read_seconds,
                1e-12);
    MMDB_ASSERT_OK(engine_->DrainRecovery());
    EXPECT_NEAR(engine_->now() - before,
                stats->log_read_seconds + stats->backup_read_seconds, 1e-12);
    EXPECT_NEAR(engine_->time_to_full_recovery(),
                stats->log_read_seconds + stats->backup_read_seconds, 1e-12);
  } else {
    EXPECT_NEAR(engine_->now() - before, stats->total_seconds, 1e-12);
  }
  EXPECT_GT(stats->backup_read_seconds, 0.0);
}

// An in-process Crash() leaves the primary holding commits that never
// became durable. Every restart path must leave each record holding its
// last durable committed image, or zeros: a warm restart overwrites every
// segment from the backup before replaying, a cold one (no checkpoint)
// starts from a cleared primary.
TEST_F(RecoveryTest, EveryRestartPathDropsNonDurableWrites) {
  struct Path {
    const char* name;
    bool checkpoint;
    bool instant;
  };
  for (const Path& path : {Path{"warm blocking", true, false},
                           Path{"warm instant", true, true},
                           Path{"cold", false, false}}) {
    SCOPED_TRACE(path.name);
    EngineOptions opt = TinyOptions();
    opt.instant_recovery = path.instant;
    Open(opt);
    const uint32_t rps = engine_->params().db.records_per_segment();
    const SegmentId nsegs = engine_->db().num_segments();
    std::map<RecordId, std::string> durable;
    auto put = [&](RecordId r, uint64_t marker) {
      MMDB_ASSERT_OK(engine_->Apply({{r, Image(r, marker)}}).status());
    };
    for (SegmentId s = 0; s < nsegs; s += 2) {
      put(s * rps, 1);
      durable[s * rps] = Image(s * rps, 1);
    }
    if (path.checkpoint) {
      MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
    }
    for (SegmentId s = 0; s < nsegs; s += 3) {
      put(s * rps + 1, 2);
      durable[s * rps + 1] = Image(s * rps + 1, 2);
    }
    MMDB_ASSERT_OK(engine_->FlushLog());
    MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
    // Committed but never flushed: over durable records and over records
    // that were never durably written.
    for (SegmentId s = 0; s < nsegs; s += 4) {
      MMDB_ASSERT_OK(engine_->Apply({{s * rps, Image(s * rps, 3)},
                                     {s * rps + 5, Image(s * rps + 5, 3)}})
                         .status());
    }
    ASSERT_EQ(engine_->ReadRecordRaw(5), std::string_view(Image(5, 3)));

    MMDB_ASSERT_OK(engine_->Crash());
    MMDB_ASSERT_OK(engine_->Recover());
    MMDB_ASSERT_OK(engine_->DrainRecovery());
    EXPECT_FALSE(engine_->recovery_pending());
    const std::string zeros(engine_->db().record_bytes(), '\0');
    for (RecordId r = 0; r < engine_->db().num_records(); ++r) {
      auto it = durable.find(r);
      ASSERT_EQ(engine_->ReadRecordRaw(r),
                std::string_view(it != durable.end() ? it->second : zeros))
          << "record " << r;
    }
  }
}

// The instant-recovery background schedule (DESIGN.md §19) refills each
// free backup disk with the pending segment touched most often, lowest id
// first. Touch counts steer that pick only for segments materialized
// before their read was scheduled, so the script force-loads two segments
// beyond the first window of reads with raw reads, touches the higher one
// once and the lower one twice, then probes the schedule with one
// transaction per small clock step. The journaled materialization order
// is pinned: the pick may get faster, never different.
TEST_F(RecoveryTest, InstantScheduleJournalsPinnedOrder) {
  EngineOptions opt = TinyOptions();
  opt.instant_recovery = true;
  Open(opt);
  ASSERT_TRUE(engine_->instant_recovery_enabled());
  const uint32_t rps = engine_->params().db.records_per_segment();
  const SegmentId nsegs = engine_->db().num_segments();
  ASSERT_EQ(nsegs, 64u);
  for (SegmentId s = 0; s < nsegs; ++s) {
    MMDB_ASSERT_OK(engine_->Apply({{s * rps, Image(s * rps, 1)}}).status());
  }
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  for (SegmentId s = 0; s < nsegs; s += 3) {
    MMDB_ASSERT_OK(
        engine_->Apply({{s * rps + 1, Image(s * rps + 1, 2)}}).status());
  }
  MMDB_ASSERT_OK(engine_->FlushLog());
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  ASSERT_TRUE(engine_->recovery_pending());

  auto touch = [&](SegmentId s, uint64_t marker) {
    const RecordId r = s * rps + 2;
    MMDB_ASSERT_OK(engine_->Apply({{r, Image(r, marker)}}).status());
  };
  EXPECT_EQ(engine_->ReadRecordRaw(50 * rps), Image(50 * rps, 1));
  EXPECT_EQ(engine_->ReadRecordRaw(41 * rps), Image(41 * rps, 1));
  touch(50, 3);
  touch(41, 3);
  touch(41, 4);
  // A third of a segment read per step (seek + transfer of 1024 words).
  const double step = (0.03 + 1024 * 3e-6) / 3;
  for (SegmentId s : {38u, 21u, 63u, 39u, 22u, 45u, 40u, 23u, 60u, 57u}) {
    MMDB_ASSERT_OK(engine_->AdvanceTime(step));
    touch(s, 5);
  }
  MMDB_ASSERT_OK(engine_->DrainRecovery());

  std::string text;
  MMDB_ASSERT_OK(env_->ReadFileToString(engine_->AuditLogPath(), &text));
  auto entries = ParseAuditJournal(text);
  MMDB_ASSERT_OK(entries);
  std::vector<uint64_t> order;
  std::string triggers;
  for (const AuditEntry& e : *entries) {
    if (e.event != "recovery.segment_on_demand") continue;
    order.push_back(
        static_cast<uint64_t>(e.object.Find("segment")->number_value()));
    triggers += e.object.Find("trigger")->string_value()[0];
  }
  // Recorded from the original linear-scan pick. A pick that ignores the
  // touch counts schedules 41 and 50 last and journals 37, 39, 63 instead.
  std::vector<uint64_t> golden_order = {50, 41, 38};
  for (uint64_t s = 0; s <= 36; ++s) golden_order.push_back(s);
  for (uint64_t s : {63, 37, 39, 40}) golden_order.push_back(s);
  for (uint64_t s = 42; s <= 62; ++s) {
    if (s != 50) golden_order.push_back(s);
  }
  // f = force (raw read), t = touch (transaction), b = background.
  const std::string golden_triggers =
      "fft" + std::string(37, 'b') + "t" + std::string(23, 'b');
  EXPECT_EQ(order, golden_order) << testing::PrintToString(order);
  EXPECT_EQ(triggers, golden_triggers);
  VerifyAuditTrail(engine_.get());
}

}  // namespace
}  // namespace mmdb

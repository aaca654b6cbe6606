// Modern consistent-snapshot algorithm specifics (DESIGN.md section 15):
// the Zigzag / Ping-Pong / Hourglass backup must equal the database as it
// stood at Begin, without quiescing or aborting anybody; the shadow
// emulation's preservation counters and buffer lifecycle; degrade under
// buffer exhaustion; the partial-mode abort-and-retry path; and the
// Abort() trace-timestamp regression.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/modern.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace mmdb {
namespace {

constexpr Algorithm kModernAlgorithms[] = {
    Algorithm::kZigzag, Algorithm::kPingPong, Algorithm::kHourglass};

class ModernTest : public testing::TestWithParam<Algorithm> {
 protected:
  void Open(CheckpointMode mode = CheckpointMode::kFull,
            uint32_t max_buffers = 0) {
    EngineOptions opt = TinyOptions();
    opt.algorithm = GetParam();
    opt.checkpoint_mode = mode;
    opt.max_snapshot_buffers = max_buffers;
    env_ = NewMemEnv();
    auto engine = Engine::Open(opt, env_.get());
    MMDB_ASSERT_OK(engine);
    engine_ = std::move(*engine);
  }

  std::string Image(RecordId r, uint64_t m) {
    return MakeRecordImage(engine_->db().record_bytes(), r, m);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
};

// The headline property, same exercise as CouTest: updates racing the
// sweep must not leak into the backup — it equals the Begin-time image
// byte for byte.
TEST_P(ModernTest, SnapshotIsStateAtCheckpointBegin) {
  Open();
  const uint32_t rps = engine_->params().db.records_per_segment();
  for (SegmentId s = 0; s < engine_->db().num_segments(); ++s) {
    MMDB_ASSERT_OK(
        engine_->Apply({{s * rps, Image(s * rps, 100 + s)}}).status());
  }
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  std::string snapshot(engine_->db().data(), engine_->db().size_bytes());

  uint64_t marker = 1000;
  while (engine_->CheckpointInProgress()) {
    MMDB_ASSERT_OK(engine_->StepCheckpoint());
    RecordId r = (marker * 37) % engine_->db().num_records();
    MMDB_ASSERT_OK(engine_->Apply({{r, Image(r, marker)}}).status());
    ++marker;
  }

  auto meta = engine_->backup()->ReadMeta();
  MMDB_ASSERT_OK(meta);
  std::string segment;
  for (SegmentId s = 0; s < engine_->db().num_segments(); ++s) {
    MMDB_ASSERT_OK(engine_->backup()->ReadSegment(meta->copy, s, &segment));
    EXPECT_EQ(segment, snapshot.substr(s * engine_->db().segment_bytes(),
                                       engine_->db().segment_bytes()))
        << "segment " << s << " is not the begin-time image";
  }
}

// Unlike COU, Begin never quiesces: a transaction left open across
// StartCheckpoint is legal, commits land mid-sweep without aborts, and no
// quiesce stall is ever recorded.
TEST_P(ModernTest, NoQuiesceNoAborts) {
  Open();
  RecordId low = 0, high = engine_->db().num_records() - 1;
  Transaction* t = engine_->Begin();
  MMDB_ASSERT_OK(engine_->Write(t, low, Image(low, 1)));
  // COU would refuse here (FAILED_PRECONDITION: open transactions); the
  // modern algorithms must not.
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  for (int i = 0; i < 4; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
  MMDB_ASSERT_OK(engine_->Write(t, high, Image(high, 1)));
  MMDB_ASSERT_OK(engine_->Commit(t).status());

  MMDB_ASSERT_OK(engine_->Apply({{low, Image(low, 2)}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->txns().color_aborts(), 0u);
  EXPECT_DOUBLE_EQ(engine_->checkpointer().last_stats().quiesce_seconds, 0.0);
}

// Old-image preservation fires only for post-Begin updates to unswept
// segments, once per segment (Zigzag/Ping-Pong) or once per record
// (Hourglass), and everything is released by completion.
TEST_P(ModernTest, PreservationOnlyForUnsweptSegments) {
  Open();
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  for (int i = 0; i < 4; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
  ASSERT_TRUE(engine_->CheckpointInProgress());

  // Update the LAST segment (unswept): must preserve exactly once.
  RecordId last = engine_->db().num_records() - 1;
  MMDB_ASSERT_OK(engine_->Apply({{last, Image(last, 1)}}).status());
  // A second update to the same RECORD must not preserve again.
  MMDB_ASSERT_OK(engine_->Apply({{last, Image(last, 2)}}).status());
  if (GetParam() == Algorithm::kHourglass) {
    // Record-granularity: overlays live on the checkpointer's heap, the
    // segment-sized snapshot pool is never touched.
    EXPECT_EQ(engine_->buffers().allocated(), 0u);
    const auto& hourglass = dynamic_cast<const HourglassCheckpointer&>(
        engine_->checkpointer());
    EXPECT_EQ(hourglass.preserved_records(), 1u);
  } else {
    EXPECT_EQ(engine_->buffers().allocated(), 1u);
    // Nor does a second update to a DIFFERENT record of that segment.
    MMDB_ASSERT_OK(engine_->Apply({{last - 1, Image(last - 1, 3)}}).status());
    EXPECT_EQ(engine_->buffers().allocated(), 1u);
  }

  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->buffers().allocated(), 0u);
  EXPECT_GE(engine_->checkpointer().last_stats().cou_copies, 1u);

  // And an update to an already-swept segment preserves nothing.
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  for (int i = 0; i < 5; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
  ASSERT_TRUE(engine_->CheckpointInProgress());
  MMDB_ASSERT_OK(engine_->Apply({{0, Image(0, 4)}}).status());
  EXPECT_EQ(engine_->buffers().allocated(), 0u);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  EXPECT_EQ(engine_->checkpointer().last_stats().cou_copies, 0u);
}

// Segment-granularity emulation under a 1-buffer pool degrades to fuzzy
// content for the overflow segments (recovery stays exact); Hourglass
// never needs the pool at all, so its snapshot stays exact.
TEST_P(ModernTest, BufferExhaustionDegradesGracefully) {
  Open(CheckpointMode::kFull, /*max_buffers=*/1);
  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  for (int i = 0; i < 3; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
  const uint32_t rps = engine_->params().db.records_per_segment();
  uint64_t n_seg = engine_->db().num_segments();
  for (SegmentId s = n_seg - 4; s < n_seg; ++s) {
    RecordId r = s * rps;
    MMDB_ASSERT_OK(engine_->Apply({{r, Image(r, 50 + s)}}).status());
  }
  EXPECT_LE(engine_->buffers().allocated(),
            GetParam() == Algorithm::kHourglass ? 0u : 1u);
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  for (SegmentId s = n_seg - 4; s < n_seg; ++s) {
    RecordId r = s * rps;
    EXPECT_EQ(engine_->ReadRecordRaw(r), std::string_view(Image(r, 50 + s)))
        << "record " << r;
  }
}

// The cold-update invariant inherited from COU: when the sweep flushes a
// preserved PRE-update image, the post-update content must still reach
// this ping-pong copy at the next checkpoint that writes it.
TEST_P(ModernTest, OldImageFlushDoesNotLoseColdUpdates) {
  Open(CheckpointMode::kPartial);
  const uint64_t n_seg = engine_->db().num_segments();
  const uint32_t rps = engine_->params().db.records_per_segment();
  RecordId cold = (n_seg - 1) * rps;
  std::string image = Image(cold, 4242);

  for (SegmentId s = 0; s < n_seg; ++s) {
    RecordId r = s * rps;
    MMDB_ASSERT_OK(engine_->Apply({{r, Image(r, 1000 + s)}}).status());
  }

  MMDB_ASSERT_OK(engine_->StartCheckpoint());
  for (int i = 0; i < 3; ++i) MMDB_ASSERT_OK(engine_->StepCheckpoint());
  ASSERT_TRUE(engine_->CheckpointInProgress());
  MMDB_ASSERT_OK(engine_->Apply({{cold, image}}).status());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  ASSERT_GE(engine_->checkpointer().last_stats().cou_copies, 1u);

  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());
  MMDB_ASSERT_OK(engine_->RunCheckpointToCompletion());

  engine_->FlushLog();
  MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine_->Crash());
  MMDB_ASSERT_OK(engine_->Recover());
  EXPECT_EQ(engine_->ReadRecordRaw(cold), std::string_view(image))
      << "cold update lost: stale old image survived in one ping-pong copy";
}

// Partial-mode abort-and-retry: a backup device fault mid-sweep aborts the
// attempt; the retry (same id, same copy) must rewrite every segment the
// failed attempt cleared — including ones whose preserved old image was
// already flushed — and recovery must land on the durable state.
TEST_P(ModernTest, PartialModeAbortRetryRedirties) {
  EngineOptions opt = TinyOptions();
  opt.algorithm = GetParam();
  opt.checkpoint_mode = CheckpointMode::kPartial;
  std::unique_ptr<Env> base = NewMemEnv();
  FaultInjectionEnv fenv(base.get());
  auto engine_or = Engine::Open(opt, &fenv);
  MMDB_ASSERT_OK(engine_or);
  Engine& engine = **engine_or;
  auto image = [&](RecordId r, uint64_t m) {
    return MakeRecordImage(engine.db().record_bytes(), r, m);
  };

  // Dirty every segment, then fail backup writes mid-sweep.
  const uint32_t rps = engine.params().db.records_per_segment();
  const uint64_t n_seg = engine.db().num_segments();
  for (SegmentId s = 0; s < n_seg; ++s) {
    RecordId r = s * rps;
    MMDB_ASSERT_OK(engine.Apply({{r, image(r, 10 + s)}}).status());
  }
  MMDB_ASSERT_OK(engine.StartCheckpoint());
  for (int i = 0; i < 3; ++i) MMDB_ASSERT_OK(engine.StepCheckpoint());
  ASSERT_TRUE(engine.CheckpointInProgress());
  // Update an unswept segment so the attempt holds a preserved old image,
  // then let the device start failing.
  RecordId late = (n_seg - 1) * rps;
  MMDB_ASSERT_OK(engine.Apply({{late, image(late, 99)}}).status());
  fenv.InjectFault({FaultKind::kWriteError, "backup", 0, /*times=*/0});
  uint64_t aborted_before = engine.checkpointer().aborted_count();
  while (engine.CheckpointInProgress()) {
    Status st = engine.StepCheckpoint();
    if (!st.ok()) break;  // surfaced device error; Abort already ran
  }
  EXPECT_FALSE(engine.CheckpointInProgress());
  EXPECT_EQ(engine.checkpointer().aborted_count(), aborted_before + 1);
  // Preserved old images were released by the abort.
  EXPECT_EQ(engine.buffers().allocated(), 0u);

  // Clear the fault and retry: the same copy is rewritten in full.
  fenv.ClearFaults();
  MMDB_ASSERT_OK(engine.RunCheckpointToCompletion());

  engine.FlushLog();
  MMDB_ASSERT_OK(engine.AdvanceTime(1.0));
  MMDB_ASSERT_OK(engine.Crash());
  MMDB_ASSERT_OK(engine.Recover());
  for (SegmentId s = 0; s < n_seg; ++s) {
    RecordId r = s * rps;
    uint64_t m = (r == late) ? 99 : 10 + s;
    EXPECT_EQ(engine.ReadRecordRaw(r), std::string_view(image(r, m)))
        << "record " << r << " after abort-and-retry";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModern, ModernTest,
                         testing::ValuesIn(kModernAlgorithms),
                         [](const testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

// --- Abort() trace-timestamp regression ----------------------------------
// A checkpointer driven without an engine (the facade pattern) may abort
// with no clock: Abort() must fall back to the begin time and never trace
// a negative timestamp, even for a checkpoint begun at time zero.

class BareCheckpointerTest : public testing::TestWithParam<Algorithm> {
 protected:
  void Open(Algorithm a) {
    env_ = NewMemEnv();
    EngineOptions opt = TinyOptions();
    opt.stable_log_tail = a == Algorithm::kFastFuzzy;
    const SystemParams& p = opt.params;
    MMDB_ASSERT_OK(env_->CreateDirIfMissing(opt.dir));
    db_ = std::make_unique<Database>(p.db);
    segments_ = std::make_unique<SegmentTable>(p.db.num_segments());
    buffers_ = std::make_unique<BufferPool>(p.db.segment_bytes(), 0);
    log_ = std::make_unique<LogManager>(env_.get(), opt.dir + "/wal.log", p,
                                        &meter_, opt.stable_log_tail);
    MMDB_ASSERT_OK(log_->Open());
    disks_.emplace(p.disk);
    backup_ = std::make_unique<BackupStore>(env_.get(), opt.dir, p,
                                            &*disks_);
    MMDB_ASSERT_OK(backup_->Open());
    txns_ = std::make_unique<TxnManager>(db_.get(), segments_.get(),
                                         log_.get(), &timestamps_, &meter_,
                                         p);
    tracer_ = std::make_unique<Tracer>();

    Checkpointer::Context ctx;
    ctx.db = db_.get();
    ctx.segments = segments_.get();
    ctx.buffers = buffers_.get();
    ctx.log = log_.get();
    ctx.backup = backup_.get();
    ctx.txns = txns_.get();
    ctx.timestamps = &timestamps_;
    ctx.meter = &meter_;
    ctx.params = p;
    ctx.events.tracer = tracer_.get();
    auto ck = Checkpointer::Create(a, ctx, CheckpointMode::kFull);
    MMDB_ASSERT_OK(ck);
    checkpointer_ = std::move(*ck);
    txns_->set_hooks(checkpointer_.get());
  }

  std::unique_ptr<Env> env_;
  CpuMeter meter_;
  TimestampOracle timestamps_;
  std::optional<DiskArrayModel> disks_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SegmentTable> segments_;
  std::unique_ptr<BufferPool> buffers_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BackupStore> backup_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Checkpointer> checkpointer_;
};

TEST_P(BareCheckpointerTest, AbortAtTimeZeroTracesNonNegativeTimestamp) {
  Open(GetParam());
  MMDB_ASSERT_OK(checkpointer_->Begin(1, 0.0));
  ASSERT_TRUE(checkpointer_->InProgress());
  checkpointer_->Abort();  // no clock: the -1.0 "no time" sentinel
  EXPECT_FALSE(checkpointer_->InProgress());
  EXPECT_EQ(checkpointer_->aborted_count(), 1u);

  bool abort_seen = false;
  for (const TraceEvent& e : tracer_->Snapshot()) {
    EXPECT_GE(e.time, 0.0) << "negative trace timestamp, event type "
                           << static_cast<int>(e.type);
    if (e.type == TraceEventType::kCkptAbort) {
      abort_seen = true;
      EXPECT_DOUBLE_EQ(e.time, 0.0);  // begin-time fallback, clamped
    }
  }
  EXPECT_TRUE(abort_seen);
}

TEST_P(BareCheckpointerTest, BeginRejectsNegativeTime) {
  Open(GetParam());
  Status st = checkpointer_->Begin(1, -0.25);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_FALSE(checkpointer_->InProgress());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BareCheckpointerTest,
                         testing::ValuesIn(kAllAlgorithms),
                         [](const testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace mmdb

// Tests of the benchmark's own helpers: percentiles and sample-count
// support, span self time, path classification, the load generator's
// determinism, and the correctness oracle.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "load_gen.h"
#include "oracle.h"
#include "span_recorder.h"
#include "stats.h"
#include "timed_env.h"

namespace hostbench {
namespace {

TEST(StatsTest, PercentileInterpolatesBetweenOrderStatistics) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(&v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 90.0), 4.6);
  std::vector<uint32_t> even = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(&even, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{}), 0.0);
}

TEST(StatsTest, PercentileSupportNeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(20, 50.0));
  EXPECT_FALSE(PercentileSupported(19, 50.0));
}

TEST(SpanRecorderTest, SelfTimeSubtractsNestedChildren) {
  SpanRecorder r;
  r.Begin("txn.commit", 1, 0);
  r.Begin("env.wal", 1, 10);
  r.End(30);
  r.Begin("env.wal", 1, 40);
  r.Begin("inner", 1, 42);
  r.End(45);
  r.End(50);
  r.End(100);
  r.Begin("core.advance", 0, 200);
  r.End(210);

  const auto& layers = r.layers();
  EXPECT_EQ(layers.at("txn.commit").count, 1u);
  EXPECT_EQ(layers.at("txn.commit").total_ns, 100);
  EXPECT_EQ(layers.at("txn.commit").self_ns, 70);
  EXPECT_EQ(layers.at("env.wal").count, 2u);
  EXPECT_EQ(layers.at("env.wal").total_ns, 30);
  EXPECT_EQ(layers.at("env.wal").self_ns, 27);
  EXPECT_EQ(layers.at("inner").self_ns, 3);
  EXPECT_EQ(r.self_ns(), 110);  // the two top-level spans' durations
  EXPECT_EQ(r.depth(), 0u);
  EXPECT_EQ(r.spans(), 5u);
}

TEST(SpanRecorderTest, KeepsAtMostTheCapButAggregatesEverySpan) {
  SpanRecorder r(/*max_kept=*/2);
  for (int i = 0; i < 5; ++i) {
    r.Begin("x", 0, i * 10);
    r.End(i * 10 + 4);
  }
  EXPECT_EQ(r.kept(), 2u);
  EXPECT_EQ(r.dropped(), 3u);
  EXPECT_EQ(r.layers().at("x").count, 5u);
  EXPECT_EQ(r.self_ns(), 20);

  const std::string path = testing::TempDir() + "hostbench_spans.json";
  ASSERT_TRUE(r.WriteChromeTrace(path));
  std::string json;
  ASSERT_TRUE(mmdb::Env::Posix()->ReadFileToString(path, &json).ok());
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"otherData\":{\"spans\":5,\"kept\":2,\"dropped\":3}"),
            std::string::npos);
}

TEST(TimedEnvTest, ClassifiesEngineFilesByBaseName) {
  EXPECT_EQ(ClassifyPath("db/wal.log"), PathClass::kWal);
  EXPECT_EQ(ClassifyPath("db/wal.log.3"), PathClass::kWal);
  EXPECT_EQ(ClassifyPath("db/wal.log.tmp"), PathClass::kWal);
  EXPECT_EQ(ClassifyPath("db/backup_0.db"), PathClass::kBackup);
  EXPECT_EQ(ClassifyPath("backup_1.db"), PathClass::kBackup);
  EXPECT_EQ(ClassifyPath("db/audit.log"), PathClass::kAudit);
  EXPECT_EQ(ClassifyPath("db/CHECKPOINT"), PathClass::kMeta);
  EXPECT_EQ(ClassifyPath("db/CHECKPOINT.tmp"), PathClass::kMeta);
  EXPECT_EQ(ClassifyPath("a/wal.log/backup_0.db"), PathClass::kBackup);
}

TEST(TimedEnvTest, CountsOpsBytesAndNestsSpansInsideTheCaller) {
  std::unique_ptr<mmdb::Env> mem = mmdb::NewMemEnv();
  SpanRecorder spans;
  TimedEnv env(mem.get(), &spans);
  spans.Begin("txn.commit", 1);
  auto file = env.NewWritableFile("db/wal.log");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello").ok());
  ASSERT_TRUE((*file)->Append("world!").ok());
  spans.End();
  // Every Env span so far nested in the caller's.
  const int64_t commit_ns = spans.layers().at("txn.commit").total_ns;
  EXPECT_EQ(spans.self_ns(), commit_ns);
  std::string out;
  ASSERT_TRUE(env.ReadFileToString("db/wal.log", &out).ok());
  EXPECT_EQ(out, "helloworld!");
  // A read outside any caller is a top-level span of its own.
  EXPECT_GT(spans.self_ns(), commit_ns);

  const IoTally& wal = env.tally(PathClass::kWal);
  EXPECT_EQ(wal.write_ops, 2u);
  EXPECT_EQ(wal.write_bytes, 11u);
  EXPECT_GE(wal.read_ops, 1u);
  EXPECT_EQ(wal.read_bytes, 11u);
  EXPECT_EQ(env.tally(PathClass::kBackup).write_ops, 0u);
  EXPECT_EQ(spans.layers().at("env.wal").count, spans.spans() - 1);
}

std::vector<TxnPlan> Draw(uint64_t seed, mmdb::ZipfGenerator* zipf) {
  LoadSpec spec;
  spec.num_records = 4096;
  spec.read_only_fraction = 0.5;
  spec.zipf = zipf;
  LoadGen gen(spec, mmdb::TransactionParams{}, seed, 0.0);
  std::vector<TxnPlan> plans;
  for (int i = 0; i < 200; ++i) {
    TxnPlan p = gen.Next();
    if (i % 7 == 3) {
      gen.Park(p, 5);
    } else if (i % 11 == 4) {
      gen.Retry(p, p.due);
    }
    if (i % 13 == 0) gen.Release(i % 2 == 0 ? 5 : 0, p.due);
    plans.push_back(std::move(p));
  }
  return plans;
}

void ExpectSame(const std::vector<TxnPlan>& a, const std::vector<TxnPlan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].due, b[i].due);
    EXPECT_EQ(a[i].attempt, b[i].attempt);
    EXPECT_EQ(a[i].read_only, b[i].read_only);
    EXPECT_EQ(a[i].records, b[i].records);
  }
}

TEST(LoadGenTest, SameSeedSameSequenceOtherSeedDiffers) {
  mmdb::ZipfGenerator zipf(4096, 0.99);
  ExpectSame(Draw(42, nullptr), Draw(42, nullptr));
  ExpectSame(Draw(42, &zipf), Draw(42, &zipf));
  EXPECT_NE(Draw(42, nullptr)[0].records, Draw(43, nullptr)[0].records);
}

TEST(LoadGenTest, DrawsDistinctRecordsAndOrdersByDueTime) {
  LoadSpec spec;
  spec.num_records = 8;  // forces redraws of duplicates
  LoadGen gen(spec, mmdb::TransactionParams{}, 1, 0.0);
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    TxnPlan p = gen.Next();
    std::vector<mmdb::RecordId> r = p.records;
    std::sort(r.begin(), r.end());
    EXPECT_EQ(std::unique(r.begin(), r.end()), r.end());
    EXPECT_EQ(r.size(), 5u);
    EXPECT_GE(p.due, last);
    last = p.due;
  }
}

TEST(LoadGenTest, ParkedRetriesWaitForTheirCheckpoint) {
  LoadSpec spec;
  spec.num_records = 1000;
  LoadGen gen(spec, mmdb::TransactionParams{}, 9, 0.0);
  TxnPlan p = gen.Next();
  const uint64_t id = p.id;
  gen.Park(p, 3);
  EXPECT_EQ(gen.parked(), 1u);
  gen.Release(3, 1.0);  // checkpoint 3 still runs
  EXPECT_EQ(gen.parked(), 1u);
  gen.Release(0, 1.0);  // it finished
  EXPECT_EQ(gen.parked(), 0u);
  // The retry is due just after 1.0; arrivals before it come first.
  TxnPlan q;
  do {
    q = gen.Next();
  } while (q.id != id);
  EXPECT_EQ(q.attempt, 2);
  EXPECT_GT(q.due, 1.0);
}

// Drives a small two-color engine with the generator (checkpoints back to
// back, color aborts parked per checkpoint) and returns its modeled
// totals.
std::vector<double> ModeledRun(uint64_t seed) {
  std::unique_ptr<mmdb::Env> env = mmdb::NewMemEnv();
  mmdb::EngineOptions options;
  options.algorithm = mmdb::Algorithm::kTwoColorCopy;
  auto opened = mmdb::Engine::Open(options, env.get());
  EXPECT_TRUE(opened.ok());
  mmdb::Engine* e = opened->get();
  LoadSpec spec;
  spec.num_records = options.params.db.num_records();
  LoadGen gen(spec, options.params.txn, seed, e->now());
  const size_t rb = options.params.db.record_bytes();
  double committed = 0, restarts = 0;
  std::string value;
  while (gen.NextDue() < 3.0) {
    if (!e->CheckpointInProgress()) {
      EXPECT_TRUE(e->StartCheckpoint().ok());
    }
    if (gen.NextDue() > e->now()) {
      EXPECT_TRUE(e->AdvanceTime(gen.NextDue() - e->now()).ok());
    }
    gen.Release(e->CheckpointInProgress() ? e->checkpointer().current_id() : 0,
                e->now());
    TxnPlan plan = gen.Next();
    mmdb::Transaction* txn = e->Begin();
    mmdb::Status st;
    for (mmdb::RecordId r : plan.records) {
      st = e->Read(txn, r, &value);
      if (st.ok()) {
        st = e->Write(txn, r, mmdb::MakeRecordImage(rb, r, plan.marker));
      }
      if (!st.ok()) break;
    }
    if (st.ok()) {
      EXPECT_TRUE(e->Commit(txn).ok());
      ++committed;
      continue;
    }
    EXPECT_TRUE(st.IsAborted());
    e->Abort(txn, mmdb::AbortReason::kColorViolation);
    ++restarts;
    if (e->CheckpointInProgress()) {
      gen.Park(std::move(plan), e->checkpointer().current_id());
    } else {
      gen.Retry(std::move(plan), e->now());
    }
  }
  return {committed, restarts, e->meter().Total(),
          static_cast<double>(e->scheduler().completed()),
          static_cast<double>(e->db().Checksum())};
}

TEST(LoadGenTest, SameSeedGivesSameModeledCounts) {
  const std::vector<double> a = ModeledRun(5);
  EXPECT_GT(a[0], 1000);  // committed
  EXPECT_GT(a[1], 0);     // two-color restarts happened
  EXPECT_EQ(a, ModeledRun(5));
  EXPECT_NE(a, ModeledRun(6));
}

TEST(OracleTest, KeepsDurableCommitsAndOverlaysLaterOnes) {
  mmdb::DatabaseParams params;
  params.db_words = 8192 * 2;
  mmdb::Database db(params);
  const size_t rb = db.record_bytes();
  auto put = [&](mmdb::RecordId r, uint64_t marker) {
    db.WriteRecord(r, mmdb::MakeRecordImage(rb, r, marker));
  };
  Oracle oracle;
  oracle.Committed(10, {3, 7}, 1);
  oracle.Committed(11, {7}, 2);
  oracle.Committed(12, {9}, 3);  // not durable at the crash
  oracle.Crash(11);
  EXPECT_EQ(oracle.expected_records(), 2u);

  put(3, 1);
  put(7, 2);
  std::vector<uint64_t> bad;
  EXPECT_EQ(oracle.Mismatches(db, &bad), 0u);

  put(9, 3);  // a commit past the durable LSN must not survive
  EXPECT_EQ(oracle.Mismatches(db, &bad), 1u);
  EXPECT_EQ(bad, std::vector<uint64_t>{9});

  oracle.CommittedAfterRestart({9, 3}, 4);
  put(3, 4);
  put(9, 4);
  bad.clear();
  EXPECT_EQ(oracle.Mismatches(db, &bad), 0u);
  put(7, 1);  // stale image
  EXPECT_EQ(oracle.Mismatches(db, &bad), 1u);
  oracle.ClearOverlay();
  EXPECT_EQ(oracle.Mismatches(db, nullptr), 3u);
}

TEST(OracleTest, AllZero) {
  std::string buf(300, '\0');
  EXPECT_TRUE(AllZero(buf.data(), buf.size()));
  buf[299] = 1;
  EXPECT_FALSE(AllZero(buf.data(), buf.size()));
  buf[299] = 0;
  buf[64] = 1;
  EXPECT_FALSE(AllZero(buf.data(), buf.size()));
  EXPECT_TRUE(AllZero(buf.data(), 64));
}

}  // namespace
}  // namespace hostbench

// Bench regression gate (obs/bench_diff.h): identical sidecars compare
// equal, "host" members (at any depth) are the only sanctioned drift,
// timing leaves get tolerance while deterministic leaves must match
// exactly, and structural drift (missing keys, new keys, array-length or
// type changes) always fails.

#include <string>

#include "gtest/gtest.h"
#include "obs/bench_diff.h"

namespace mmdb {
namespace {

const char kSidecar[] =
    R"({"bench":"fig4a","points":[)"
    R"({"label":"FUZZYCOPY","engine":{)"
    R"("now":2.839446,"metrics":{"counters":{"txn.committed":23002},)"
    R"("timers":{"ckpt.flush":{"count":12,"mean":0.031,"p90":0.035,)"
    R"("p99":0.04,"p999":0.044}}},)"
    R"("trace":{"recorded":320,"dropped":256,"events":[)"
    R"({"seq":300,"kind":"log.flush","t":2.71,"durable_at":2.72,)"
    R"("durable_lsn":900,"bytes":4096}]},)"
    R"("audit":{"journal":{"entries":356,"bytes":48763,"syncs":3}},)"
    R"("host":{"recovery":{"backup_read_seconds":0.012}}},)"
    R"("validation":{"overhead_per_txn":{"predicted":3756.8,)"
    R"("measured":2682.7,"residual":-0.286}}},)"
    R"({"label":"BAD","error":"INTERNAL: deterministic failure"}],)"
    R"("validation_summary":{"points":1,"overhead_per_txn":)"
    R"({"mean_abs_residual":0.286,"max_abs_residual":0.286}},)"
    R"("host":{"wall_seconds":12.5}})";

std::string Mutated(const std::string& from, const std::string& to) {
  std::string doc = kSidecar;
  auto pos = doc.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  doc.replace(pos, from.size(), to);
  return doc;
}

TEST(BenchDiffTest, IdenticalDocumentsMatch) {
  auto result = DiffBenchJson(kSidecar, kSidecar);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->equal());
  EXPECT_EQ(result->mismatches, 0u);
  EXPECT_GT(result->leaves_compared, 10u);
}

// One splice of the fixture: `at` replaced by `with`.
struct Splice {
  const char* at;
  const char* with;
};

TEST(BenchDiffTest, HostMemberIsIgnored) {
  // Changed or dropped, at the top level (a sidecar without SetHost) and
  // inside an engine dump, on either side of the comparison.
  const Splice kSplices[] = {
      {R"("host":{"wall_seconds":12.5})", R"("host":{"wall_seconds":99.0})"},
      {R"(,"host":{"wall_seconds":12.5})", ""},
      {R"("backup_read_seconds":0.012)", R"("backup_read_seconds":7)"},
      {R"(,"host":{"recovery":{"backup_read_seconds":0.012}})", ""},
  };
  for (const Splice& splice : kSplices) {
    std::string other = Mutated(splice.at, splice.with);
    auto result = DiffBenchJson(kSidecar, other);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->equal()) << splice.at;
    auto reversed = DiffBenchJson(other, kSidecar);
    ASSERT_TRUE(reversed.ok());
    EXPECT_TRUE(reversed->equal()) << splice.at;
  }
}

TEST(BenchDiffTest, AuditBlockIsCompared) {
  std::string drifted = Mutated(R"("entries":356)", R"("entries":357)");
  auto result = DiffBenchJson(kSidecar, drifted);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->mismatches, 1u);
  EXPECT_NE(result->reports[0].find("points[0].engine.audit.journal.entries"),
            std::string::npos);
}

TEST(BenchDiffTest, WallKeysOutsideHostAreCompared) {
  // Only the member name "host" is skipped: a "wall" object (top level or
  // nested) and a *wall_seconds leaf are compared like any other member,
  // whether one side lacks it or both carry different values.
  struct Case {
    const char* at;
    const char* one;  // `at` with the member inserted
    const char* two;  // the same member with another value
  };
  const Case kCases[] = {
      {R"({"bench":"fig4a",)", R"({"bench":"fig4a","wall":{"n":1},)",
       R"({"bench":"fig4a","wall":{"n":2},)"},
      {R"("now":2.839446,)", R"("now":2.839446,"wall":{"n":1},)",
       R"("now":2.839446,"wall":{"n":2},)"},
      {R"("dropped":256,)", R"("dropped":256,"scan_wall_seconds":1,)",
       R"("dropped":256,"scan_wall_seconds":2,)"},
  };
  for (const Case& c : kCases) {
    std::string one = Mutated(c.at, c.one);
    auto added = DiffBenchJson(kSidecar, one);
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(added->mismatches, 1u) << c.one;
    auto changed = DiffBenchJson(one, Mutated(c.at, c.two));
    ASSERT_TRUE(changed.ok());
    EXPECT_EQ(changed->mismatches, 1u) << c.two;
  }
}

TEST(BenchDiffTest, TimingDriftWithinToleranceMatches) {
  // +2% on a timing leaf ("now") passes at the default 5% tolerance.
  std::string drifted = Mutated("\"now\":2.839446", "\"now\":2.896235");
  auto result = DiffBenchJson(kSidecar, drifted);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->equal());
}

TEST(BenchDiffTest, TailPercentileLeavesGetTolerance) {
  // p90/p999 are timing leaves: +2% drift passes, +15% fails.
  std::string small = Mutated(R"("p999":0.044)", R"("p999":0.0449)");
  auto ok = DiffBenchJson(kSidecar, small);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->equal());
  std::string large = Mutated(R"("p999":0.044)", R"("p999":0.0506)");
  auto bad = DiffBenchJson(kSidecar, large);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->equal());
}

TEST(BenchDiffTest, TimingDriftBeyondToleranceFails) {
  std::string drifted = Mutated("\"now\":2.839446", "\"now\":3.475482");
  auto result = DiffBenchJson(kSidecar, drifted);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
  ASSERT_EQ(result->reports.size(), 1u);
  EXPECT_NE(result->reports[0].find("points[0].engine.now"),
            std::string::npos);
}

TEST(BenchDiffTest, ResidualsGetToleranceToo) {
  std::string drifted =
      Mutated("\"residual\":-0.286}}}", "\"residual\":-0.290}}}");
  auto result = DiffBenchJson(kSidecar, drifted);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->equal());
}

TEST(BenchDiffTest, DeterministicLeafMustMatchExactly) {
  // A one-transaction difference in a counter is a real regression even
  // though it is far under 5% relatively.
  std::string drifted = Mutated("23002", "23003");
  auto result = DiffBenchJson(kSidecar, drifted);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
  // Same for strings (an error message or trace kind changing).
  std::string error_drift = Mutated("deterministic failure", "other failure");
  result = DiffBenchJson(kSidecar, error_drift);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
}

TEST(BenchDiffTest, StrictModeDemandsExactTimings) {
  BenchDiffOptions strict;
  strict.rel_tol = 0;
  strict.abs_tol = 0;
  std::string drifted = Mutated("\"now\":2.839446", "\"now\":2.839447");
  auto result = DiffBenchJson(kSidecar, drifted, strict);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
  auto same = DiffBenchJson(kSidecar, kSidecar, strict);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->equal());
}

TEST(BenchDiffTest, StructuralDriftFails) {
  // Missing member.
  std::string missing = Mutated(R"("dropped":256,)", "");
  auto result = DiffBenchJson(kSidecar, missing);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
  // New member only the current run has.
  std::string added = Mutated(R"("recorded":320,)",
                              R"("recorded":320,"extra":1,)");
  result = DiffBenchJson(kSidecar, added);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
  // Array length change (a point disappeared).
  std::string fewer =
      Mutated(R"(,{"label":"BAD","error":"INTERNAL: deterministic failure"})",
              "");
  result = DiffBenchJson(kSidecar, fewer);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
  // Type change.
  std::string retyped = Mutated("\"residual\":-0.286", "\"residual\":null");
  result = DiffBenchJson(kSidecar, retyped);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->equal());
}

TEST(BenchDiffTest, MismatchCountKeepsGoingPastReportCap) {
  BenchDiffOptions capped;
  capped.max_reports = 1;
  std::string drifted = Mutated("23002", "23003");
  drifted = [&] {
    std::string d = drifted;
    auto pos = d.find("\"count\":12");
    EXPECT_NE(pos, std::string::npos);
    d.replace(pos, 10, "\"count\":13");
    return d;
  }();
  auto result = DiffBenchJson(kSidecar, drifted, capped);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->mismatches, 2u);
  EXPECT_EQ(result->reports.size(), 1u);
}

TEST(BenchDiffTest, MalformedInputsAreErrorsNotMismatches) {
  EXPECT_FALSE(DiffBenchJson("{bad", kSidecar).ok());
  EXPECT_FALSE(DiffBenchJson(kSidecar, "{bad").ok());
  EXPECT_FALSE(DiffBenchJson("[1,2]", kSidecar).ok());  // non-object root
}

TEST(BenchDiffTest, TimingFieldClassification) {
  for (const char* timing :
       {"t", "done", "durable_at", "until", "now", "begin", "end", "mean",
        "min", "max", "p50", "p90", "p99", "p999", "predicted", "measured",
        "residual", "wall_seconds", "total_seconds", "lock_held_seconds",
        "mean_abs_residual", "max_abs_residual", "overhead_s"}) {
    EXPECT_TRUE(IsTimingField(timing)) << timing;
  }
  for (const char* exact :
       {"count", "jobs", "label", "bytes", "lsn", "segments_flushed",
        "recorded", "dropped", "seq", "kind", "points", "checkpoint"}) {
    EXPECT_FALSE(IsTimingField(exact)) << exact;
  }
}

}  // namespace
}  // namespace mmdb

// Unit tests for util/: Status, StatusOr, coding, CRC32C, Random,
// Histogram, string helpers.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "tests/test_util.h"

#include "gtest/gtest.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/crc32c_internal.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"

namespace mmdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = AbortedError("two-color violation");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.ToString(), "ABORTED: two-color violation");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(InvalidArgumentError("x").IsInvalidArgument());
  EXPECT_TRUE(NotFoundError("x").IsNotFound());
  EXPECT_TRUE(CorruptionError("x").IsCorruption());
  EXPECT_TRUE(IoError("x").IsIoError());
  EXPECT_TRUE(FailedPreconditionError("x").IsFailedPrecondition());
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(NotSupportedError("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> bad = NotFoundError("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
  EXPECT_EQ(bad.value_or(-1), -1);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  MMDB_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalidArgument());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefull);
  std::string_view in = buf;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,           1,          127,
                            128,         16383,      16384,
                            (1ull << 32) - 1, 1ull << 32, UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    std::string_view in = buf;
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&in, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, (1ull << 32));
  std::string_view in = buf;
  uint32_t out;
  EXPECT_FALSE(GetVarint32(&in, &out));
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  std::string_view in = buf;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&in, &out));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'x'));
  std::string_view in = buf;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(300, 'x'));
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: CRC-32C of 32 zero bytes.
  char zeros[32] = {0};
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aau);
  // "123456789" -> 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 §B.4 CRC32C test patterns (CRC bytes there are the
  // little-endian encoding of these values).
  char buf[32];
  std::memset(buf, 0, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x8a9136aau);
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x62a8ab43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x46dd794eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x113fdb5cu);
  unsigned char iscsi_read_pdu[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(crc32c::Value(reinterpret_cast<char*>(iscsi_read_pdu),
                          sizeof(iscsi_read_pdu)),
            0xd9963a56u);
}

// Each compiled kernel, called directly: Extend runs only the one this CPU
// dispatches to, so each must match the byte-at-a-time reference on its
// own — at every length around its word, lane and block boundaries, every
// alignment, and under arbitrary init_crc continuation.
class Crc32cKernelTest
    : public testing::TestWithParam<crc32c::internal::Kernel> {};

TEST_P(Crc32cKernelTest, MatchesBytewiseReference) {
  const crc32c::internal::Kernel& kernel = GetParam();
  if (!kernel.supported) {
    GTEST_SKIP() << kernel.name << " needs instructions this CPU lacks";
  }
  Random rng(301);
  std::string data((1 << 20) + 64, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  auto check = [&](size_t offset, size_t len, uint32_t init) {
    EXPECT_EQ(kernel.extend(init, data.data() + offset, len),
              crc32c::internal::ExtendBytewise(init, data.data() + offset,
                                               len))
        << kernel.name << " len=" << len << " offset=" << offset
        << " init=" << init;
  };
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  using crc32c::internal::kHwLongBlock;
  using crc32c::internal::kHwShortBlock;
  for (size_t boundary :
       {kHwShortBlock / 3, kHwShortBlock, 2 * kHwShortBlock,
        kHwLongBlock / 3, kHwLongBlock, kHwLongBlock + kHwShortBlock,
        2 * kHwLongBlock + 2 * kHwShortBlock + 8}) {
    for (size_t len = boundary - 9; len <= boundary + 9; ++len) {
      lengths.push_back(len);
    }
  }
  for (size_t len : {size_t{32768}, size_t{32768 + 13}, size_t{1} << 20}) {
    lengths.push_back(len);
  }
  for (size_t len : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) check(offset, len, 0);
  }
  for (int trial = 0; trial < 200; ++trial) {
    const size_t offset = rng.Uniform(64);
    const size_t len = rng.Uniform(3 * kHwLongBlock);
    check(offset, len, rng.Next());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, Crc32cKernelTest,
    testing::ValuesIn(crc32c::internal::Kernels()),
    [](const testing::TestParamInfo<crc32c::internal::Kernel>& info) {
      return std::string(info.param.name);
    });

TEST(Crc32cTest, ExtendRunsTheFirstSupportedKernel) {
  const crc32c::internal::Kernel& chosen = crc32c::internal::Dispatched();
  EXPECT_TRUE(chosen.supported);
  for (const crc32c::internal::Kernel& k : crc32c::internal::Kernels()) {
    if (&k == &chosen) break;
    EXPECT_FALSE(k.supported) << "skipped the faster " << k.name;
  }
  EXPECT_EQ(crc32c::Extend(7, "checkpoint", 10),
            chosen.extend(7, "checkpoint", 10));
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "hello world, checkpointing";
  uint32_t whole = crc32c::Value(data);
  uint32_t split = crc32c::Extend(crc32c::Value(data.substr(0, 10)),
                                  data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskUnmaskInverse) {
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(v)), v);
    EXPECT_NE(crc32c::Mask(v), v);
  }
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
  }
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(17));
  EXPECT_EQ(seen.size(), 17u);  // all values hit
}

TEST(RandomTest, ExponentialMeanApproximatelyCorrect) {
  Random rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.25);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_NEAR(h.StandardDeviation(), std::sqrt(2.0), 1e-9);
}

TEST(HistogramTest, PercentilesMonotone) {
  Histogram h;
  Random rng(3);
  for (int i = 0; i < 10000; ++i) h.Add(rng.NextDouble() * 1000.0);
  double last = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_NEAR(h.Percentile(50), 500.0, 60.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram h;
  h.Add(42.0);
  // A single sample is every percentile, and out-of-range p clamps to the
  // exact extremes rather than extrapolating.
  for (double p : {-5.0, 0.0, 1.0, 50.0, 99.9, 100.0, 250.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 42.0) << "p=" << p;
  }
  Histogram two;
  two.Add(1.0);
  two.Add(1000.0);
  EXPECT_DOUBLE_EQ(two.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(two.Percentile(100), 1000.0);
  double p50 = two.Percentile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 1000.0);
  // Negative samples clamp to zero (the underflow bucket) and stay the
  // minimum at every percentile below the next sample.
  Histogram neg;
  neg.Add(-3.0);
  neg.Add(5.0);
  EXPECT_DOUBLE_EQ(neg.min(), 0.0);
  EXPECT_DOUBLE_EQ(neg.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(neg.Percentile(100), 5.0);
}

TEST(HistogramTest, FinerRatioBoundsTailError) {
  // The geometric bucket ratio bounds the relative percentile error: a
  // reported percentile lies within a factor of `ratio` of the true order
  // statistic. Verify the bound for both ratios on an exact-value
  // population (every sample identical), where any reported percentile
  // must sit inside the sample's bucket.
  for (double ratio : {Histogram::kDefaultRatio, Histogram::kLatencyRatio}) {
    Histogram h(ratio);
    EXPECT_DOUBLE_EQ(h.bucket_ratio(), ratio);
    const double v = 12345.0;
    for (int i = 0; i < 1000; ++i) h.Add(v);
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
      double got = h.Percentile(p);
      EXPECT_GE(got, v / ratio) << "ratio=" << ratio << " p=" << p;
      EXPECT_LE(got, v * ratio) << "ratio=" << ratio << " p=" << p;
    }
  }
}

TEST(HistogramTest, LatencyRatioResolvesDistinctTailValues) {
  // At the coarse default ratio, 1000 and 1015 share a bucket; the latency
  // ratio (1.02) must keep p999 within ~1% even for a heavy-bodied
  // distribution with a sparse tail.
  Histogram h(Histogram::kLatencyRatio);
  for (int i = 0; i < 9990; ++i) h.Add(10.0);
  for (int i = 0; i < 10; ++i) h.Add(1000.0);
  double p999 = h.Percentile(99.9);
  EXPECT_GE(p999, 1000.0 / Histogram::kLatencyRatio);
  EXPECT_LE(p999, 1000.0 * Histogram::kLatencyRatio);
  // The body stays put.
  EXPECT_NEAR(h.Percentile(50), 10.0, 10.0 * (Histogram::kLatencyRatio - 1.0) * 2);
}

TEST(HistogramTest, RatiosCoverTheSameRange) {
  // Both resolutions must absorb the full value range without losing the
  // max to bucket clamping.
  for (double ratio : {Histogram::kDefaultRatio, Histogram::kLatencyRatio}) {
    Histogram h(ratio);
    h.Add(0.5);
    h.Add(1e15);
    EXPECT_DOUBLE_EQ(h.max(), 1e15);
    EXPECT_DOUBLE_EQ(h.Percentile(100), 1e15);
    EXPECT_DOUBLE_EQ(h.Percentile(0), 0.5);
  }
}

TEST(ZipfTest, DeterministicAcrossInstances) {
  ZipfGenerator a(1000, 0.99), b(1000, 0.99);
  Random ra(42), rb(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(&ra), b.Next(&rb));
}

TEST(ZipfTest, RanksInRange) {
  ZipfGenerator zipf(37, 0.8);
  Random rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    uint64_t r = zipf.Next(&rng);
    EXPECT_LT(r, 37u);
    seen.insert(r);
  }
  EXPECT_EQ(seen.size(), 37u);  // theta 0.8 still touches every rank
}

TEST(ZipfTest, RankFrequencyShape) {
  // P(rank k) ~ 1/(k+1)^theta: rank 0 over rank 9 should be close to
  // 10^theta ~ 9.8 at theta 0.99. Wide bounds — this is a shape sanity
  // check, not a goodness-of-fit test.
  ZipfGenerator zipf(1000, 0.99);
  Random rng(11);
  std::vector<int> freq(1000, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++freq[zipf.Next(&rng)];
  EXPECT_GT(freq[0], freq[9]);
  EXPECT_GT(freq[9], freq[99]);
  double ratio = static_cast<double>(freq[0]) / std::max(freq[9], 1);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 20.0);
  // The hot head carries a large share of all draws.
  int head = 0;
  for (int i = 0; i < 10; ++i) head += freq[i];
  EXPECT_GT(static_cast<double>(head) / draws, 0.3);
}

TEST(ZipfTest, ConsumesExactlyOneDrawPerNext) {
  // The generator must consume exactly one uniform variate per draw so
  // interleaved consumers stay replayable.
  ZipfGenerator zipf(100, 0.5);
  Random with_zipf(123), reference(123);
  for (int i = 0; i < 100; ++i) {
    zipf.Next(&with_zipf);
    reference.NextDouble();
  }
  EXPECT_EQ(with_zipf.Next(), reference.Next());
}

TEST(JsonTest, WriterEscapesAndHandlesNonFinite) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\n\t\x01");
  w.Key("inf");
  w.Double(std::numeric_limits<double>::infinity());
  w.Key("nan");
  w.Double(std::nan(""));
  w.Key("n");
  w.Int(-42);
  w.Key("b");
  w.Bool(true);
  w.EndObject();
  StatusOr<JsonValue> doc = JsonValue::Parse(w.str());
  MMDB_ASSERT_OK(doc);
  EXPECT_EQ(doc->Find("s")->string_value(), "a\"b\\c\n\t\x01");
  // The simulator's +infinity sentinels have no JSON representation.
  EXPECT_TRUE(doc->Find("inf")->is_null());
  EXPECT_TRUE(doc->Find("nan")->is_null());
  EXPECT_EQ(doc->Find("n")->number_value(), -42.0);
  EXPECT_TRUE(doc->Find("b")->bool_value());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  // Note the parser is deliberately lenient about number spellings
  // ("01", "+1" parse via strtod); structural damage must still be
  // CORRUPTION.
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "{\"a\":1} x",
        "1e", "{'a':1}"}) {
    StatusOr<JsonValue> doc = JsonValue::Parse(bad);
    EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
    if (!doc.ok()) {
      EXPECT_TRUE(doc.status().IsCorruption()) << bad;
    }
  }
}

TEST(JsonTest, DumpRoundTrips) {
  const char* text =
      "{\"a\":[1,2.5,null,true,\"x\"],\"b\":{\"c\":-3e2},\"d\":false}";
  StatusOr<JsonValue> doc = JsonValue::Parse(text);
  MMDB_ASSERT_OK(doc);
  StatusOr<JsonValue> again = JsonValue::Parse(doc->Dump());
  MMDB_ASSERT_OK(again);
  EXPECT_EQ(again->Dump(), doc->Dump());
  EXPECT_EQ(again->FindPath({"b", "c"})->number_value(), -300.0);
  EXPECT_EQ(again->Find("a")->array_items().size(), 5u);
  // FindPath degrades to nullptr on a miss anywhere along the chain.
  EXPECT_EQ(again->FindPath({"b", "missing"}), nullptr);
  EXPECT_EQ(again->FindPath({"d", "c"}), nullptr);
}

TEST(StringUtilTest, StringPrintfHandlesLongOutput) {
  std::string big(1000, 'a');
  std::string out = StringPrintf("[%s]", big.c_str());
  EXPECT_EQ(out.size(), 1002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(StringUtilTest, StrSplit) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1234567), "1,234,567");
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("backup_0.db", "backup_"));
  EXPECT_FALSE(StartsWith("db", "backup_"));
  EXPECT_TRUE(EndsWith("wal.log", ".log"));
  EXPECT_FALSE(EndsWith("wal.log", ".db"));
}

TEST(StringUtilTest, ParseNumberTakesOnlyWholeValues) {
  uint64_t u = 7;
  EXPECT_TRUE(ParseNumber("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  // Garbage, partial numbers, signs, spaces and overflow leave *out alone.
  u = 7;
  for (const char* bad : {"", "banana", "12x", "5%", "-1", "+1", " 1", "1 ",
                          "18446744073709551616", "0x10"}) {
    EXPECT_FALSE(ParseNumber(bad, &u)) << bad;
    EXPECT_EQ(u, 7u) << bad;
  }

  double d = 7;
  EXPECT_TRUE(ParseNumber("0.05", &d));
  EXPECT_DOUBLE_EQ(d, 0.05);
  EXPECT_TRUE(ParseNumber("-2.5e-3", &d));
  EXPECT_DOUBLE_EQ(d, -2.5e-3);
  d = 7;
  for (const char* bad :
       {"", "banana", "5%", "0.05x", " 1", "1 ", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << bad;
    EXPECT_EQ(d, 7.0) << bad;
  }
}

}  // namespace
}  // namespace mmdb

// Unit tests for the observability layer: MetricsRegistry instruments
// (including concurrent updates), the bounded Tracer ring, the time-series
// sampler, and the JSON round-trips that mmdb_stats and the bench sidecars
// rely on.

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/histogram.h"
#include "tests/test_util.h"
#include "util/json.h"

namespace mmdb {
namespace {

TEST(MetricsRegistryTest, InstrumentPointersAreStable) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a");
  for (int i = 0; i < 100; ++i) {
    reg.counter("pad." + std::to_string(i));
  }
  EXPECT_EQ(c, reg.counter("a"));
  EXPECT_NE(c, reg.counter("b"));
  // One namespace per instrument kind: a counter and a gauge may share a
  // name without clashing.
  EXPECT_NE(static_cast<void*>(reg.counter("x")),
            static_cast<void*>(reg.gauge("x")));
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSum) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Find-or-create races with the other threads on purpose.
      Counter* c = reg.counter("shared");
      Gauge* g = reg.gauge("level");
      Timer* h = reg.timer("lat");
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        g->Add(1.0);
        if (i % 100 == 0) h->Record(static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(reg.gauge("level")->value(),
                   static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(reg.timer("lat")->count(),
            static_cast<uint64_t>(kThreads) * (kPerThread / 100));
}

TEST(MetricsRegistryTest, JsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("ops")->Increment(7);
  reg.gauge("cap")->Set(256.0);
  Timer* t = reg.timer("dur");
  t->Record(1.0);
  t->Record(3.0);
  StatusOr<JsonValue> doc = JsonValue::Parse(reg.ToJsonString());
  MMDB_ASSERT_OK(doc);
  EXPECT_EQ(doc->FindPath({"counters", "ops"})->number_value(), 7.0);
  EXPECT_EQ(doc->FindPath({"gauges", "cap"})->number_value(), 256.0);
  EXPECT_EQ(doc->FindPath({"timers", "dur", "count"})->number_value(), 2.0);
  EXPECT_DOUBLE_EQ(doc->FindPath({"timers", "dur", "mean"})->number_value(),
                   2.0);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(TraceEventType::kLogAppend, /*time=*/i, 0.0, /*a=*/i);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].v[0], 6 + i);
  }
  tracer.Clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TracerTest, JsonCarriesSequenceAcrossDrops) {
  Tracer tracer(/*capacity=*/2);
  tracer.Record(TraceEventType::kLogAppend, 0.0, 0.0, 1);
  tracer.Record(TraceEventType::kLogAppend, 1.0, 0.0, 2);
  tracer.Record(TraceEventType::kLogAppend, 2.0, 0.0, 3);
  StatusOr<JsonValue> doc = JsonValue::Parse(tracer.ToJsonString());
  MMDB_ASSERT_OK(doc);
  EXPECT_EQ(doc->Find("recorded")->number_value(), 3.0);
  EXPECT_EQ(doc->Find("dropped")->number_value(), 1.0);
  const auto& events = doc->Find("events")->array_items();
  ASSERT_EQ(events.size(), 2u);
  // The seq of the first retained event exposes the gap.
  EXPECT_EQ(events[0].Find("seq")->number_value(), 1.0);
  EXPECT_EQ(events[1].Find("seq")->number_value(), 2.0);
}

TEST(TracerTest, EventFormatterNamesTypedFields) {
  Tracer tracer;
  tracer.Record(TraceEvent{TraceEventType::kCkptBegin, 1.5, 0.0,
                           {/*id=*/3, /*algorithm=*/0, /*mode=*/1}});
  StatusOr<JsonValue> doc = JsonValue::Parse(tracer.ToJsonString());
  MMDB_ASSERT_OK(doc);
  const JsonValue& e = doc->Find("events")->array_items()[0];
  EXPECT_EQ(e.Find("kind")->string_value(), "ckpt.begin");
  EXPECT_EQ(e.Find("algorithm")->string_value(), "FUZZYCOPY");
  EXPECT_EQ(e.Find("mode")->string_value(), "partial");
  EXPECT_EQ(e.Find("ckpt")->number_value(), 3.0);
}

TEST(TracerTest, TextAndSegmentsStayWithTheirEvent) {
  Tracer tracer(/*capacity=*/2);
  auto events = [&tracer] {
    StatusOr<JsonValue> doc = JsonValue::Parse(tracer.ToJsonString());
    return doc.ok() ? doc->Find("events")->array_items()
                    : std::vector<JsonValue>{};
  };
  const SegmentId failed[] = {4, 7};
  tracer.Record({TraceEventType::kRecoveryFallback, 1.0, 0.0, {2, 0, 1, 1, 0}},
                {.text = "CORRUPTION: rot", .segments = failed});
  ASSERT_EQ(events().size(), 1u);
  EXPECT_EQ(events()[0].Find("trigger")->string_value(), "CORRUPTION: rot");
  EXPECT_EQ(events()[0].Find("failed_segments")->Dump(), "[4,7]");
  // Once the ring wraps, each retained event still shows its own text.
  for (const char* cause : {"a", "b", "c"}) {
    tracer.Record({TraceEventType::kCkptAbort, 2.0, 0.0, {1, 0}},
                  {.text = cause});
  }
  ASSERT_EQ(events().size(), 2u);
  EXPECT_EQ(events()[0].Find("cause")->string_value(), "b");
  EXPECT_EQ(events()[1].Find("cause")->string_value(), "c");
}

TEST(TimerRatioTest, FirstCallerPinsBucketRatio) {
  MetricsRegistry reg;
  Timer* fine = reg.timer("lat", Histogram::kLatencyRatio);
  EXPECT_EQ(fine, reg.timer("lat"));  // same instrument either way
  EXPECT_DOUBLE_EQ(fine->Snapshot().bucket_ratio(), Histogram::kLatencyRatio);
  // Plain timers keep the coarse default.
  EXPECT_DOUBLE_EQ(reg.timer("other")->Snapshot().bucket_ratio(),
                   Histogram::kDefaultRatio);
}

TEST(TimeSeriesSamplerTest, SamplesOnEpochBoundaries) {
  MetricsRegistry reg;
  Counter* c = reg.counter("commits");
  TimeSeriesSampler::Options opt;
  opt.epoch = 0.1;
  TimeSeriesSampler sampler(opt);
  sampler.AddCounter("commits", c);
  double g = 0.0;
  sampler.AddGauge("depth", [&g] { return g; });

  sampler.SampleUpTo(0.05);  // before the first boundary: nothing
  EXPECT_EQ(sampler.num_samples(), 0u);
  c->Increment(3);
  g = 7.0;
  sampler.SampleUpTo(0.1);  // exactly on the boundary
  EXPECT_EQ(sampler.num_samples(), 1u);
  c->Increment(2);
  sampler.SampleUpTo(0.45);  // crosses 0.2, 0.3, 0.4 at once
  EXPECT_EQ(sampler.num_samples(), 4u);
  EXPECT_EQ(sampler.recorded(), 4u);
  EXPECT_EQ(sampler.dropped(), 0u);

  JsonWriter w;
  sampler.ToJson(&w);
  auto doc = JsonValue::Parse(w.str());
  MMDB_ASSERT_OK(doc);
  const auto& samples = doc->Find("samples")->array_items();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples[0].Find("t")->number_value(), 0.1);
  EXPECT_DOUBLE_EQ(samples[3].Find("t")->number_value(), 0.4);
  // First sample sees the values at the first clock movement past its
  // boundary; the catch-up samples repeat the then-current values.
  EXPECT_DOUBLE_EQ(samples[0].Find("v")->array_items()[0].number_value(), 3.0);
  EXPECT_DOUBLE_EQ(samples[0].Find("v")->array_items()[1].number_value(), 7.0);
  EXPECT_DOUBLE_EQ(samples[1].Find("v")->array_items()[0].number_value(), 5.0);
  const auto& series = doc->Find("series")->array_items();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].string_value(), "commits");
  EXPECT_EQ(series[1].string_value(), "depth");
}

TEST(TimeSeriesSamplerTest, RingDropsOldestBeyondCapacity) {
  MetricsRegistry reg;
  Counter* c = reg.counter("n");
  TimeSeriesSampler::Options opt;
  opt.epoch = 1.0;
  opt.capacity = 3;
  TimeSeriesSampler sampler(opt);
  sampler.AddCounter("n", c);
  for (int t = 1; t <= 5; ++t) {
    c->Increment(1);
    sampler.SampleUpTo(static_cast<double>(t));
  }
  EXPECT_EQ(sampler.num_samples(), 3u);
  EXPECT_EQ(sampler.recorded(), 5u);
  EXPECT_EQ(sampler.dropped(), 2u);
  JsonWriter w;
  sampler.ToJson(&w);
  auto doc = JsonValue::Parse(w.str());
  MMDB_ASSERT_OK(doc);
  const auto& samples = doc->Find("samples")->array_items();
  ASSERT_EQ(samples.size(), 3u);
  // Oldest first, and only the newest three boundaries survive.
  EXPECT_DOUBLE_EQ(samples[0].Find("t")->number_value(), 3.0);
  EXPECT_DOUBLE_EQ(samples[2].Find("t")->number_value(), 5.0);
  EXPECT_DOUBLE_EQ(doc->Find("dropped")->number_value(), 2.0);
}

}  // namespace
}  // namespace mmdb

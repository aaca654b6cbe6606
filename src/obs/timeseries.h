#ifndef MMDB_OBS_TIMESERIES_H_
#define MMDB_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "util/json.h"

namespace mmdb {

// Virtual-clock time series of selected instruments. The engine registers
// a fixed set of counters/gauges once at startup, then calls SampleUpTo()
// whenever the virtual clock advances; the sampler snapshots every source
// at each epoch boundary crossed into a bounded ring (oldest samples are
// dropped first, with a drop count, so a long run cannot grow the dump
// without bound).
//
// Sampling is driven by clock advancement, not by time passing "inside"
// the engine: a sample at epoch boundary t carries the instrument values
// observed at the first clock movement that reaches or passes t. Because
// the clock is virtual and every source reads deterministic state, the
// exported series is byte-identical across runs and sweep widths.
//
// Not thread-safe: owned and driven by the single engine thread.
class TimeSeriesSampler {
 public:
  struct Options {
    double epoch = 0.1;     // virtual seconds between samples; must be > 0
    size_t capacity = 512;  // max retained samples
  };

  explicit TimeSeriesSampler(const Options& options);

  // Registration order defines the export column order. Sources must
  // outlive the sampler.
  void AddCounter(std::string name, const Counter* counter);
  void AddGauge(std::string name, std::function<double()> fn);

  // Records one sample per epoch boundary in (last sampled, now].
  void SampleUpTo(double now);

  size_t num_samples() const { return ring_.size(); }
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return dropped_; }

  // {"epoch":e,"capacity":n,"series":[names...],
  //  "samples":[{"t":t,"v":[values...]}...],"recorded":n,"dropped":n}
  void ToJson(JsonWriter* writer) const;

 private:
  struct Source {
    std::string name;
    const Counter* counter = nullptr;  // exactly one of counter/fn is set
    std::function<double()> fn;
  };
  struct Sample {
    double t;
    std::vector<double> values;
  };

  void Record(double t);

  Options options_;
  std::vector<Source> sources_;
  std::vector<Sample> ring_;  // chronological; front dropped when full
  size_t head_ = 0;           // index of oldest sample once the ring wrapped
  uint64_t next_epoch_index_ = 1;  // next boundary is epoch * index
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_OBS_TIMESERIES_H_

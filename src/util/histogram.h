#ifndef MMDB_UTIL_HISTOGRAM_H_
#define MMDB_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mmdb {

// Running scalar statistics (count/mean/min/max/stddev) plus approximate
// percentiles via geometric bucketing (default ratio 1.25, starting at 1.0;
// one underflow bucket for values < 1). Used by the metrics layer to
// summarize latencies and per-transaction overheads. Values must be
// non-negative.
//
// The bucket ratio bounds the relative percentile error: a value reported
// from bucket b is within a factor of `ratio` of the true order statistic,
// so ratio 1.25 gives ~±12% at p999 while ratio 1.02 gives ~±1%. Latency
// histograms use a finer ratio (see kLatencyRatio); counters of modeled
// quantities keep the coarse default, whose memory footprint is 4x smaller.
class Histogram {
 public:
  static constexpr double kDefaultRatio = 1.25;
  // Finer ratio for tail-latency histograms (~±1% at p999, ~2 KB extra).
  static constexpr double kLatencyRatio = 1.02;

  Histogram();
  // Finer (or coarser) geometric ratio; must be > 1. All constructors cover
  // the same value range (~2.5e17); only the resolution changes.
  explicit Histogram(double ratio);

  void Add(double value);
  void Clear();

  uint64_t count() const { return count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }
  double Mean() const;
  double StandardDeviation() const;
  double bucket_ratio() const { return ratio_; }

  // Approximate p-th percentile, p in [0, 100]. Linear interpolation within
  // the containing bucket; exact at the extremes (min/max).
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  // One-line human-readable summary.
  std::string ToString() const;

 private:
  static int NumBucketsFor(double ratio);

  int BucketFor(double value) const;
  // Inclusive lower / exclusive upper value bounds of bucket b.
  double BucketLower(int b) const;
  double BucketUpper(int b) const;

  double ratio_;
  double inv_log_ratio_;
  int num_buckets_;
  uint64_t count_;
  double min_;
  double max_;
  double sum_;
  double sum_squares_;
  std::vector<uint64_t> buckets_;
};

}  // namespace mmdb

#endif  // MMDB_UTIL_HISTOGRAM_H_

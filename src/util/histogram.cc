#include "util/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mmdb {

int Histogram::NumBucketsFor(double ratio) {
  // Bucket 0 holds values < 1; bucket b >= 1 covers [ratio^(b-1), ratio^b).
  // Size the array so the top bucket reaches ~2.5e17, the ceiling of the
  // original fixed 180-bucket/1.25 layout.
  return 2 + static_cast<int>(std::ceil(std::log(2.5e17) / std::log(ratio)));
}

Histogram::Histogram() : Histogram(kDefaultRatio) {}

Histogram::Histogram(double ratio)
    : ratio_(ratio),
      inv_log_ratio_(1.0 / std::log(ratio)),
      num_buckets_(NumBucketsFor(ratio)),
      buckets_(static_cast<size_t>(num_buckets_), 0) {
  assert(ratio > 1.0);
  Clear();
}

void Histogram::Clear() {
  count_ = 0;
  min_ = std::numeric_limits<double>::max();
  max_ = 0.0;
  sum_ = 0.0;
  sum_squares_ = 0.0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

int Histogram::BucketFor(double value) const {
  if (value < 1.0) return 0;
  int b = 1 + static_cast<int>(std::log(value) * inv_log_ratio_);
  return std::min(b, num_buckets_ - 1);
}

double Histogram::BucketLower(int b) const {
  if (b <= 0) return 0.0;
  return std::pow(ratio_, b - 1);
}

double Histogram::BucketUpper(int b) const {
  if (b <= 0) return 1.0;
  return std::pow(ratio_, b);
}

void Histogram::Add(double value) {
  if (value < 0.0) value = 0.0;
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += value;
  sum_squares_ += value * value;
  ++buckets_[BucketFor(value)];
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::StandardDeviation() const {
  if (count_ == 0) return 0.0;
  double n = static_cast<double>(count_);
  double variance = (sum_squares_ - sum_ * sum_ / n) / n;
  return variance <= 0.0 ? 0.0 : std::sqrt(variance);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max_;
  double threshold = static_cast<double>(count_) * (p / 100.0);
  uint64_t seen = 0;
  for (int b = 0; b < num_buckets_; ++b) {
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(seen + buckets_[b]) >= threshold) {
      double within = (threshold - static_cast<double>(seen)) /
                      static_cast<double>(buckets_[b]);
      double lo = std::max(BucketLower(b), min());
      double hi = std::min(BucketUpper(b), max_);
      if (hi < lo) hi = lo;
      return lo + within * (hi - lo);
    }
    seen += buckets_[b];
  }
  return max_;
}

std::string Histogram::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.3f stddev=%.3f min=%.3f p50=%.3f "
                "p90=%.3f p99=%.3f p999=%.3f max=%.3f",
                static_cast<unsigned long long>(count_), Mean(),
                StandardDeviation(), min(), Percentile(50.0), Percentile(90.0),
                Percentile(99.0), Percentile(99.9), max_);
  return buf;
}

}  // namespace mmdb

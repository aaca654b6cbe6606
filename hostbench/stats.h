#ifndef HOSTBENCH_STATS_H_
#define HOSTBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hostbench {

// Percentile `p` (0..100) of `v` by linear interpolation between the two
// nearest order statistics (the numpy/`statistics` "inclusive" rule), so a
// reported value keeps all its digits instead of snapping to a bucket.
// Reorders `v`. Returns 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T>* v, double p) {
  if (v->empty()) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  std::nth_element(v->begin(), v->begin() + lo, v->end());
  const double lo_value = static_cast<double>((*v)[lo]);
  if (lo + 1 >= v->size()) return lo_value;
  const double hi_value =
      static_cast<double>(*std::min_element(v->begin() + lo + 1, v->end()));
  return lo_value + (rank - static_cast<double>(lo)) * (hi_value - lo_value);
}

template <typename T>
double Median(std::vector<T> v) {
  return Percentile(&v, 50.0);
}

// Whether a sample of `n` leaves at least `min_tail` samples beyond
// percentile `p` — the rule for the highest percentile worth reporting.
inline bool PercentileSupported(size_t n, double p, size_t min_tail = 10) {
  return static_cast<double>(n) * (100.0 - p) / 100.0 >=
         static_cast<double>(min_tail);
}

}  // namespace hostbench

#endif  // HOSTBENCH_STATS_H_

// Small statistics helpers used by the benchmark harnesses and the task
// benchmarking component of the autotuner.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "simbase/assert.hpp"

namespace han::sim {

/// Streaming mean/min/max/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
  }

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// q-quantile (q in [0,1]) with linear interpolation; does not modify input.
double quantile(std::span<const double> values, double q);

inline double median(std::span<const double> values) {
  return quantile(values, 0.5);
}

double mean(std::span<const double> values);

inline double max_of(std::span<const double> values) {
  HAN_ASSERT(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

inline double min_of(std::span<const double> values) {
  HAN_ASSERT(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

}  // namespace han::sim

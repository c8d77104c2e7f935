#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lp {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::clear() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  LP_CHECK(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  LP_CHECK(count_ > 0);
  return max_;
}

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  LP_CHECK(capacity > 0);
}

void SlidingWindow::add(double x) {
  // sum += x before sum -= evicted: every mean depends on this order.
  sum_ += x;
  if (ring_.size() < capacity_) {
    if (ring_.capacity() < capacity_) ring_.reserve(capacity_);
    ring_.push_back(x);
    return;
  }
  sum_ -= ring_[head_];
  ring_[head_] = x;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

void SlidingWindow::clear() {
  ring_.clear();
  head_ = 0;
  sum_ = 0.0;
}

double SlidingWindow::mean() const {
  LP_CHECK(!ring_.empty());
  return sum_ / static_cast<double>(ring_.size());
}

double SlidingWindow::latest() const {
  LP_CHECK(!ring_.empty());
  return ring_[head_ == 0 ? ring_.size() - 1 : head_ - 1];
}

double percentile(std::vector<double> values, double q) {
  LP_CHECK_MSG(!values.empty(), "percentile of an empty sample");
  LP_CHECK_MSG(!std::isnan(q), "percentile quantile is NaN");
  q = std::clamp(q, 0.0, 100.0);
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean_of(const std::vector<double>& values) {
  LP_CHECK(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace lp

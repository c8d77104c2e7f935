#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lp {

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

// Streaming and batch statistics used by profilers and benches.
#pragma once

#include <cstddef>
#include <vector>

namespace lp {

/// Online mean/variance/min/max accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  void clear();

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< Sample variance; 0 with fewer than 2 points.
  double stddev() const;
  double min() const;  ///< Requires count() > 0.
  double max() const;  ///< Requires count() > 0.
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-capacity sliding window of recent samples with mean queries.
///
/// Used by the bandwidth estimator and the influential-factor tracker, both
/// of which average "records in the most recent monitoring period". A ring
/// buffer that allocates on its first sample, so a window that never sees
/// one (an idle session's) costs no heap memory. A plain value: a copy
/// carries the incrementally maintained sum verbatim (replaying only the
/// surviving samples could differ in the last bit), so it reads the same
/// mean() as its source.
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void add(double x);
  void clear();
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return ring_.empty(); }
  double mean() const;  ///< Requires !empty().
  double latest() const;  ///< Requires !empty().

  /// Capacity, samples in ring order, head and sum all match.
  bool operator==(const SlidingWindow&) const = default;

 private:
  std::size_t capacity_;
  /// Samples in ring order: until the window fills they sit oldest first;
  /// once full, ring_[head_] is the oldest and add() overwrites it.
  std::vector<double> ring_;
  std::size_t head_ = 0;
  double sum_ = 0.0;
};

/// Percentile of a sample set. q is clamped to [0, 100] (NaN is a contract
/// violation). Requires non-empty input; does not modify the argument.
///
/// Convention (the repo-wide one — obs::Histogram::percentile matches it):
/// linear interpolation between closest ranks, rank = q/100 * (n - 1) on
/// the sorted sample (Hyndman–Fan type 7, numpy's default). So p50 of
/// {1, 2, 3, 4} is 2.5, not 2 or 3 — no nearest-rank rounding anywhere.
double percentile(std::vector<double> values, double q);

/// Arithmetic mean of a non-empty vector.
double mean_of(const std::vector<double>& values);

}  // namespace lp

// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// One MetricsRegistry collects every aggregate the system reports — request
// outcomes, transfer bytes, queue depths, latency distributions — behind a
// single API instead of the ad-hoc counter structs each layer used to
// maintain. Handles returned by counter()/gauge()/histogram() are stable
// for the registry's lifetime, so hot paths look up a metric once (at
// attach time) and record through the handle in O(1): counters and gauges
// are a single add/store, histograms index a uniform-width bucket directly.
//
// Recording never allocates, reads clocks, or draws randomness, so
// instrumented simulation runs stay bit-identical to uninstrumented ones.
// Snapshots export as JSON in name order, byte-identical across two runs
// of the same seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lp::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-write-wins level with a high-water mark.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (!seen_ || v > max_) max_ = v;
    seen_ = true;
  }
  double value() const { return value_; }
  double max() const { return seen_ ? max_ : 0.0; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  bool seen_ = false;
};

/// Fixed uniform-bucket histogram over [lo, hi): `buckets` equal-width
/// bins plus an underflow (x < lo) and an overflow (x >= hi) bin.
/// record() is O(1) — the bucket index is arithmetic, not a search.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void record(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Interior buckets only (underflow/overflow via the accessors below).
  std::size_t buckets() const { return bins_.size(); }
  std::size_t bucket_count(std::size_t i) const { return bins_[i]; }
  /// Lower edge of interior bucket i; bucket i spans [edge(i), edge(i+1)).
  double edge(std::size_t i) const;
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

  /// Percentile estimate from the bucket counts, linearly interpolated
  /// within the containing bucket — the same linear-interpolation
  /// convention as lp::percentile (see common/stats.h). q in [0, 100];
  /// requires count() > 0. Underflow clamps to lo, overflow to max().
  double percentile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> bins_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Create-or-get registry of named metrics. Handles stay valid for the
/// registry's lifetime; names are exported in sorted order.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get. A histogram's shape is fixed by its first creation;
  /// re-requesting an existing name returns the existing instance (the
  /// shape arguments are ignored then). Requesting an existing name as a
  /// different metric kind is a contract error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets);

  /// Lookup without creation; null when absent (or a different kind).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;

  std::size_t size() const;

  /// Snapshot as a JSON object keyed by metric name, in name order.
  std::string to_json() const;
  /// Write the snapshot to `path`; false when the file cannot be written
  /// in full.
  bool write_json(const std::string& path) const;

 private:
  // std::map iterates in name order (deterministic export) and never
  // invalidates element addresses (stable handles).
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace lp::obs

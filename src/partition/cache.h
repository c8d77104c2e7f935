// Partition cache (Section III-A).
//
// Keyed by the partition point p, it stores the partitioned computation
// graphs and auxiliary structures so repeated requests with the same p skip
// re-partitioning and runtime preparation — amortizing the overhead to ~1%
// of inference time over ~100 requests (bench/cache_overhead).
//
// The cache holds shared pointers to immutable plans: every cache of one
// model shares the profile's single plan per p, so an entry costs a pointer
// and a copy of the cache (live session migration) copies pointers, not
// graphs. A session holds a few plans, so the LRU is one small vector in
// recency order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "partition/partitioner.h"

namespace lp::partition {

class PartitionCache {
 public:
  /// LRU capacity in entries (each entry holds a full partition plan).
  explicit PartitionCache(std::size_t capacity = 16);

  /// Returns the cached plan for p, refreshing its recency; nullptr on miss.
  const PartitionPlan* find(std::size_t p);

  /// Side-effect-free lookup: no recency refresh, no hit/miss accounting.
  /// For invariant audits and tests that must observe without perturbing.
  const PartitionPlan* peek(std::size_t p) const;

  /// Inserts (or replaces) the plan for plan->p, evicting the least
  /// recently used entry if over capacity. Requires a non-null plan.
  void insert(PlanPtr plan);

  std::size_t size() const { return plans_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  double hit_rate() const;

  /// Keys in recency order (most recent first); for audits and tests.
  std::vector<std::size_t> lru_keys() const;

  /// Zeroes hits/misses/evictions without touching the entries. Called on
  /// session wipe so a re-warmed cache's hit_rate() never blends pre-crash
  /// traffic into the fresh epoch.
  void reset_stats();

  /// Drops every entry AND the statistics: a cleared cache is
  /// indistinguishable from a newly constructed one.
  void clear();

  /// Capacity, statistics, and the very same plan objects in the same
  /// recency order.
  bool operator==(const PartitionCache&) const = default;

 private:
  /// Position of p in plans_, or size() when absent.
  std::size_t index_of(std::size_t p) const;

  std::size_t capacity_;
  std::vector<PlanPtr> plans_;  // front = most recent
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace lp::partition

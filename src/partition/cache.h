// Partition cache (Section III-A).
//
// Keyed by the partition point p, it records which cuts a runtime has
// already partitioned and prepared, so repeated requests with the same p
// skip re-partitioning and runtime preparation — amortizing the overhead to
// ~1% of inference time over ~100 requests (bench/cache_overhead). The
// simulated runtime never executes a partition: what a miss costs comes
// from core::GraphCostProfile, so an entry is just its key. A session holds
// a few cuts, so the LRU is one small vector of keys in recency order, and
// a copy of the cache (live session migration) copies integers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lp::partition {

class PartitionCache {
 public:
  /// LRU capacity in entries.
  explicit PartitionCache(std::size_t capacity = 16);

  /// True when p is cached (a hit, which refreshes its recency); false on a
  /// miss.
  bool find(std::size_t p);

  /// Caches p as the most recent entry (refreshing it if present),
  /// evicting the least recently used entry if over capacity.
  void insert(std::size_t p);

  std::size_t size() const { return keys_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  double hit_rate() const;

  /// Keys in recency order (most recent first); for audits and tests.
  const std::vector<std::size_t>& lru_keys() const { return keys_; }

  /// Drops every entry AND the statistics: a cleared cache is
  /// indistinguishable from a newly constructed one.
  void clear();

  /// Capacity, statistics, and the same keys in the same recency order.
  bool operator==(const PartitionCache&) const = default;

 private:
  std::size_t capacity_;
  std::vector<std::size_t> keys_;  // front = most recent
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace lp::partition

// Reference models for differential testing.
//
// Deliberately naive re-implementations of state machines the production
// code keeps clever (in-place recency rotation, incremental sums): the
// reference does the obviously-correct thing, erase and re-insert, and the
// differential harness asserts the production structure agrees after every
// operation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lp::check {

/// Obviously-correct mirror of partition::PartitionCache: a recency vector
/// (front = most recent) of keys plus hit/miss/eviction tallies, with the
/// same semantics — find refreshes recency, insert-over-existing refreshes,
/// a full insert evicts the back, clear() forgets entries and stats.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  /// True on hit (and refreshes recency, like PartitionCache::find).
  bool find(std::size_t p) {
    auto it = std::find(keys_.begin(), keys_.end(), p);
    if (it == keys_.end()) {
      ++misses;
      return false;
    }
    ++hits;
    keys_.erase(it);
    keys_.insert(keys_.begin(), p);
    return true;
  }

  void insert(std::size_t p) {
    auto it = std::find(keys_.begin(), keys_.end(), p);
    if (it != keys_.end()) {
      keys_.erase(it);
    } else if (keys_.size() >= capacity_) {
      keys_.pop_back();
      ++evictions;
    }
    keys_.insert(keys_.begin(), p);
  }

  void clear() {
    keys_.clear();
    hits = misses = evictions = 0;
  }

  /// Keys most-recent-first — directly comparable to
  /// PartitionCache::lru_keys().
  const std::vector<std::size_t>& keys() const { return keys_; }
  std::size_t size() const { return keys_.size(); }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  std::size_t capacity_;
  std::vector<std::size_t> keys_;
};

}  // namespace lp::check

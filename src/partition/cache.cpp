#include "partition/cache.h"

#include <algorithm>

#include "common/check.h"

namespace lp::partition {

PartitionCache::PartitionCache(std::size_t capacity) : capacity_(capacity) {
  LP_CHECK(capacity > 0);
}

bool PartitionCache::find(std::size_t p) {
  const auto it = std::find(keys_.begin(), keys_.end(), p);
  if (it == keys_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  std::rotate(keys_.begin(), it, it + 1);
  return true;
}

void PartitionCache::insert(std::size_t p) {
  const auto it = std::find(keys_.begin(), keys_.end(), p);
  if (it != keys_.end()) {
    std::rotate(keys_.begin(), it, it + 1);
    return;
  }
  if (keys_.size() >= capacity_) {
    keys_.pop_back();
    ++evictions_;
  }
  keys_.insert(keys_.begin(), p);
}

double PartitionCache::hit_rate() const {
  const auto total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

void PartitionCache::clear() {
  keys_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

}  // namespace lp::partition

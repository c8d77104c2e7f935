#include "partition/cache.h"

#include <algorithm>

#include "common/check.h"

namespace lp::partition {

PartitionCache::PartitionCache(std::size_t capacity) : capacity_(capacity) {
  LP_CHECK(capacity > 0);
}

std::size_t PartitionCache::index_of(std::size_t p) const {
  std::size_t i = 0;
  while (i < plans_.size() && plans_[i]->p != p) ++i;
  return i;
}

const PartitionPlan* PartitionCache::peek(std::size_t p) const {
  const std::size_t i = index_of(p);
  return i == plans_.size() ? nullptr : plans_[i].get();
}

const PartitionPlan* PartitionCache::find(std::size_t p) {
  const std::size_t i = index_of(p);
  if (i == plans_.size()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  std::rotate(plans_.begin(), plans_.begin() + i, plans_.begin() + i + 1);
  return plans_.front().get();
}

void PartitionCache::insert(PlanPtr plan) {
  LP_CHECK(plan != nullptr);
  const std::size_t i = index_of(plan->p);
  if (i < plans_.size()) {
    plans_[i] = std::move(plan);
    std::rotate(plans_.begin(), plans_.begin() + i, plans_.begin() + i + 1);
    return;
  }
  if (plans_.size() >= capacity_) {
    plans_.pop_back();
    ++evictions_;
  }
  plans_.insert(plans_.begin(), std::move(plan));
}

double PartitionCache::hit_rate() const {
  const auto total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

std::vector<std::size_t> PartitionCache::lru_keys() const {
  std::vector<std::size_t> keys;
  keys.reserve(plans_.size());
  for (const PlanPtr& plan : plans_) keys.push_back(plan->p);
  return keys;
}

void PartitionCache::reset_stats() {
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void PartitionCache::clear() {
  plans_.clear();
  reset_stats();
}

}  // namespace lp::partition

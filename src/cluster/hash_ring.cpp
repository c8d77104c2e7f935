#include "cluster/hash_ring.h"

#include <algorithm>

#include "common/check.h"

namespace lp::cluster {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {
std::uint64_t vnode_hash(std::size_t server, std::size_t replica) {
  // Mix the server id and replica index through two rounds so the arcs of
  // one server scatter instead of clustering.
  return splitmix64(splitmix64(static_cast<std::uint64_t>(server) + 1) ^
                    (0xD6E8FEB86659FD93ull *
                     (static_cast<std::uint64_t>(replica) + 1)));
}
}  // namespace

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes) {
  LP_CHECK(vnodes > 0);
}

void HashRing::add_server(std::size_t server) {
  LP_CHECK_MSG(!contains(server), "server already on the ring");
  for (std::size_t r = 0; r < vnodes_; ++r)
    points_.push_back(Point{vnode_hash(server, r), server});
  std::sort(points_.begin(), points_.end(), [](const Point& a,
                                               const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.server < b.server;  // ties deterministic (astronomically rare)
  });
}

bool HashRing::contains(std::size_t server) const {
  return std::any_of(points_.begin(), points_.end(),
                     [server](const Point& p) { return p.server == server; });
}

std::size_t HashRing::successor(std::uint64_t hash) const {
  LP_CHECK_MSG(!points_.empty(), "placement on an empty ring");
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), hash,
      [](const Point& p, std::uint64_t h) { return p.hash < h; });
  if (it == points_.end()) return 0;  // wrap to the smallest hash
  return static_cast<std::size_t>(it - points_.begin());
}

std::size_t HashRing::place(std::uint64_t key) const {
  return points_[successor(splitmix64(key))].server;
}

}  // namespace lp::cluster

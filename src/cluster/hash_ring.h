// Consistent-hash ring for session placement across edge servers.
//
// Classic Karger ring with virtual nodes: each server contributes `vnodes`
// points on a 64-bit ring (splitmix64 of server id and replica index); a
// key maps to the first vnode clockwise from its own hash. Placement is
// therefore deterministic across runs and independent of join order, and
// adding or removing one server only remaps the keys that fall into that
// server's arcs — in expectation servers_removed/servers of the key space,
// not everything (the property cluster_test pins down).
//
// place_if() walks clockwise past vnodes whose server fails a liveness
// predicate, which is how the router keeps hashing deterministically while
// a crashed server is down: keys owned by the dead server spill to the
// next alive arc and return home on restart.
#pragma once

#include <cstdint>
#include <vector>

namespace lp::cluster {

/// SplitMix64 — the repo-standard seeding hash (common/rng.h uses the same
/// constants); good avalanche behaviour for ring points.
std::uint64_t splitmix64(std::uint64_t x);

class HashRing {
 public:
  /// `vnodes` points per server (more = smoother arcs, slower joins).
  explicit HashRing(std::size_t vnodes = 64);

  /// Adds `server`'s vnodes to the ring. Adding twice is an error.
  void add_server(std::size_t server);

  /// Removes `server`'s vnodes. Removing an absent server is an error.
  void remove_server(std::size_t server);

  bool contains(std::size_t server) const;

  /// The server owning `key`: first vnode clockwise from hash(key).
  /// Requires a non-empty ring.
  std::size_t place(std::uint64_t key) const;

  /// Like place(), but walks past vnodes of servers rejected by `alive`
  /// (crash routing). Requires at least one vnode whose server satisfies
  /// the predicate.
  template <typename AlivePred>
  std::size_t place_if(std::uint64_t key, AlivePred alive) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::size_t server;
  };

  /// Index of the first point clockwise from `hash` (wrapping).
  std::size_t successor(std::uint64_t hash) const;

  std::size_t vnodes_;
  std::vector<Point> points_;  ///< sorted by hash (ties: by server)
};

template <typename AlivePred>
std::size_t HashRing::place_if(std::uint64_t key, AlivePred alive) const {
  const std::size_t start = successor(splitmix64(key));
  for (std::size_t step = 0; step < points_.size(); ++step) {
    const Point& point = points_[(start + step) % points_.size()];
    if (alive(point.server)) return point.server;
  }
  // No alive server on the ring: the caller must not ask.
  return place(key);
}

}  // namespace lp::cluster

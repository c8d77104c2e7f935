// Suspicion-based failure detection for the cluster control plane.
//
// The router cannot read ground truth: heartbeats arrive over a lossy
// ControlLink, so "I have not heard from server 3" is ambiguous
// between a crash, a partition, and plain bad luck. The detector turns the
// heartbeat arrival stream into an explicit health state per server,
//
//     kAlive  ->  kSuspect  ->  kDead
//
// with recovery back to kAlive on any delivered heartbeat that reports the
// server up. A kSuspect server is excluded from *new* placement and from
// migration targets but keeps its sessions; only kDead triggers reroute.
// Two modes:
//   * kOracle   — trust the last delivered snapshot's alive flag verbatim
//     (the PR-6 behavior; exact when the transport is lossless, and the
//     chaos bench's naive baseline when it is not);
//   * kDeadline — a server that misses `suspect_misses` consecutive
//     heartbeat deadlines is suspected, `dead_misses` is declared dead.
// Transitions into kDead are recorded with their timestamps so the chaos
// bench can measure time-to-detect against the scripted crash schedule.
// Deterministic: pure function of the delivered heartbeat stream.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace lp::cluster {

enum class Health : std::uint8_t { kAlive, kSuspect, kDead };

struct DetectorParams {
  enum class Mode : std::uint8_t { kOracle, kDeadline };
  Mode mode = Mode::kOracle;

  /// kDeadline: consecutive missed heartbeat periods before suspicion /
  /// declared death (dead_misses >= suspect_misses).
  int suspect_misses = 2;
  int dead_misses = 4;
};

std::string detector_mode_name(DetectorParams::Mode mode);

class FailureDetector {
 public:
  FailureDetector(std::size_t servers, DetectorParams params,
                  DurationNs heartbeat_period);

  /// Baselines every server's last-seen clock (call when the heartbeat
  /// loop starts, so a server whose first heartbeats are lost accrues
  /// suspicion from the start of the run, not from time 0).
  void arm(TimeNs now);

  /// A heartbeat from `server` was *delivered* at `now` carrying the
  /// server's own alive flag (false = the server reports itself crashed,
  /// which is authoritative in every mode).
  void heartbeat(std::size_t server, TimeNs now, bool reported_alive);

  /// Re-evaluates every server's suspicion at `now` (the router calls this
  /// once per heartbeat round, after the sends).
  void tick(TimeNs now);

  Health health(std::size_t server) const;
  /// kAlive: eligible as a placement / migration / reroute target.
  bool usable(std::size_t server) const {
    return health(server) == Health::kAlive;
  }
  bool dead(std::size_t server) const {
    return health(server) == Health::kDead;
  }

  /// Transitions into kDead since construction.
  std::uint64_t deaths() const { return death_events_.size(); }

  /// Every transition into kDead as (server, time) — the chaos bench
  /// subtracts the scripted crash instants to report time-to-detect.
  const std::vector<std::pair<std::size_t, TimeNs>>& death_events() const {
    return death_events_;
  }

 private:
  struct ServerView {
    Health health = Health::kAlive;
    TimeNs last_seen = 0;
    bool reported_dead = false;  ///< last delivered snapshot said !alive
  };

  void transition(std::size_t server, Health to, TimeNs now);

  DetectorParams params_;
  DurationNs period_;
  std::vector<ServerView> views_;
  std::vector<std::pair<std::size_t, TimeNs>> death_events_;
};

}  // namespace lp::cluster

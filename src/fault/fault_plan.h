// Scriptable fault-injection plan for the simulated edge deployment.
//
// A FaultPlan is pure data: a set of time windows describing what goes
// wrong and when. The runtime wires it into the components that fail —
//   * link faults (blackouts / bandwidth degrades) are spliced into the
//     link's BandwidthTrace (net::apply_link_faults); a zero-bandwidth
//     window is a hard blackout, see net/link.h for the stall contract;
//   * packet-loss windows are sampled per transfer by net::Link, and per
//     control message (heartbeat, migration payload) through drops();
//   * server crash windows drive serve::EdgeServerFrontend::crash()/
//     restart() through its crash driver process;
//   * straggle windows multiply the server's kernel times (slow replica).
// Windows may be added in any order and may overlap; for link faults the
// last-added window wins where they do. Everything is deterministic: the
// only randomness (Gilbert-Elliott schedules, loss sampling) comes from
// explicit seeds held by the consumers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace lp::fault {

/// Half-open time window [begin, end) in simulated time.
struct FaultWindow {
  TimeNs begin = 0;
  TimeNs end = 0;

  bool contains(TimeNs t) const { return t >= begin && t < end; }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // -- builders (chainable) --

  /// Hard link outage: bandwidth 0 in [begin, end).
  FaultPlan& link_blackout(TimeNs begin, TimeNs end);

  /// Link degrade: bandwidth overridden to `bandwidth` in [begin, end).
  FaultPlan& link_degrade(TimeNs begin, TimeNs end, BitsPerSec bandwidth);

  /// Per-transfer drop probability `prob` in [begin, end).
  FaultPlan& packet_loss(TimeNs begin, TimeNs end, double prob);

  /// Fail-stop server crash at `crash`, restart at `restart`. Volatile
  /// server state (partition caches, k windows, queue) is lost.
  FaultPlan& server_crash(TimeNs crash, TimeNs restart);

  /// Straggler injection: server kernel times scale by `factor` (>= 1) in
  /// [begin, end).
  FaultPlan& straggle(TimeNs begin, TimeNs end, double factor);

  /// Gilbert-Elliott burst schedule as degrade windows: alternating
  /// good/bad dwell times drawn exponentially (starting good), with the
  /// bad state overriding the base trace to `bad_bandwidth` (0 = hard
  /// blackout bursts). Deterministic given the seed.
  static FaultPlan gilbert_elliott_link(DurationNs total,
                                        BitsPerSec bad_bandwidth,
                                        DurationNs mean_good_dwell,
                                        DurationNs mean_bad_dwell,
                                        std::uint64_t seed);

  // -- queries --

  bool empty() const {
    return link_faults_.empty() && loss_windows_.empty() &&
           server_crashes_.empty() && straggles_.empty();
  }

  /// True when a link fault window with bandwidth 0 covers t.
  bool link_down(TimeNs t) const;

  /// Drop probability at t (0 outside every loss window; last-added wins).
  double loss_prob(TimeNs t) const;

  /// Whether a control message sent at t is lost: always inside a
  /// blackout, otherwise with probability loss_prob(t). `rng` is drawn
  /// only when that probability is positive, so a plan without loss
  /// windows leaves the stream untouched.
  bool drops(TimeNs t, Rng& rng) const;

  /// True when a crash window covers t.
  bool server_down(TimeNs t) const;

  /// Kernel-time multiplier at t (1 outside every straggle window).
  double straggle_factor(TimeNs t) const;

  struct LinkFault {
    FaultWindow window;
    BitsPerSec bandwidth = 0.0;
  };

  /// Link fault windows in the order added (later entries win overlaps).
  const std::vector<LinkFault>& link_faults() const { return link_faults_; }

  /// Crash windows in the order added.
  const std::vector<FaultWindow>& server_crashes() const {
    return server_crashes_;
  }

 private:
  struct LossWindow {
    FaultWindow window;
    double prob = 0.0;
  };
  struct StraggleWindow {
    FaultWindow window;
    double factor = 1.0;
  };

  std::vector<LinkFault> link_faults_;
  std::vector<LossWindow> loss_windows_;
  std::vector<FaultWindow> server_crashes_;
  std::vector<StraggleWindow> straggles_;
};

}  // namespace lp::fault

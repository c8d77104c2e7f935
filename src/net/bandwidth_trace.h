// Piecewise-constant bandwidth schedules driving the simulated WiFi link.
#pragma once

#include <vector>

#include "common/units.h"

namespace lp::fault {
class FaultPlan;
}  // namespace lp::fault

namespace lp::net {

/// Time-indexed bandwidth schedule; bandwidth_at(t) returns the value of the
/// last step at or before t (the first step's value before that).
///
/// A step may carry bandwidth 0: that is a hard blackout segment — the link
/// is down and transfers make no progress until the trace next becomes
/// positive (see net/link.h for the stall contract). Negative bandwidths
/// are rejected.
class BandwidthTrace {
 public:
  struct Step {
    TimeNs at;
    BitsPerSec bandwidth;
  };

  /// Steps must be non-empty, time-sorted, with non-negative bandwidths.
  explicit BandwidthTrace(std::vector<Step> steps);

  static BandwidthTrace constant(BitsPerSec bandwidth);

  /// The Figure 6 schedule: upload bandwidth 8 -> 4 -> 2 -> 1 Mbps, then up
  /// through 2, 4, 8, 16, 32, 64 Mbps, one phase every `phase` of sim time.
  static BandwidthTrace fig6_sweep(DurationNs phase);

  BitsPerSec bandwidth_at(TimeNs t) const;

  /// Earliest time >= t at which the bandwidth is positive, or -1 if the
  /// trace is blacked out from t onward (the link never recovers).
  TimeNs next_positive_at(TimeNs t) const;

  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
};

/// Splices a FaultPlan's link fault windows into a base trace: inside each
/// window the bandwidth is overridden (0 = blackout), and the base schedule
/// resumes at the window's end. Windows are applied in the order they were
/// added to the plan, so a later window wins where they overlap.
BandwidthTrace apply_link_faults(const BandwidthTrace& base,
                                 const fault::FaultPlan& plan);

}  // namespace lp::net

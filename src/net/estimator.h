// Sliding-window upload-bandwidth estimator (Section IV).
//
// The device-side runtime profiler feeds it two kinds of samples: active
// probe transfers sent every period, and passive measurements of the real
// offloading uploads. Probe size adapts to the current estimate so a probe
// costs roughly a fixed (small) amount of air time. Only the device keeps
// one: the server reads the bandwidth a request reports and keeps no
// window of its own.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "common/units.h"

namespace lp::net {

class BandwidthEstimator {
 public:
  /// `window` = number of records kept (user-configurable in the paper);
  /// `initial` seeds the estimate before any measurement exists.
  explicit BandwidthEstimator(std::size_t window = 8,
                              BitsPerSec initial = mbps(8));

  /// Records a measured transfer (bytes over duration). A zero duration —
  /// the sim clock rounding a tiny probe to 0 ns — is dropped (it has no
  /// bandwidth information); negative durations are contract violations.
  void add_transfer(std::int64_t bytes, DurationNs duration);

  /// Records an explicit bandwidth sample.
  void add_sample(BitsPerSec bandwidth);

  /// Current estimate: mean of the sliding window (or the initial seed).
  BitsPerSec estimate() const;

  /// Probe payload sized so that, at the current estimate, the probe takes
  /// about `target` on the wire (clamped to [1 KiB, 256 KiB]).
  std::int64_t next_probe_bytes(DurationNs target = milliseconds(25)) const;

  std::size_t samples() const { return window_.size(); }

 private:
  SlidingWindow window_;
  BitsPerSec initial_;
};

}  // namespace lp::net

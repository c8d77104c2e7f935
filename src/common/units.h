// Unit-carrying helpers for time, data size and bandwidth.
//
// Simulated time is an integral nanosecond count (lp::TimeNs); helpers convert
// to/from seconds and milliseconds. Bandwidths are bits per second.
#pragma once

#include <cstdint>

namespace lp {

/// Simulated time in nanoseconds since simulation start.
using TimeNs = std::int64_t;

/// Duration in nanoseconds.
using DurationNs = std::int64_t;

constexpr DurationNs kNsPerUs = 1'000;
constexpr DurationNs kNsPerMs = 1'000'000;
constexpr DurationNs kNsPerSec = 1'000'000'000;

constexpr DurationNs microseconds(double us) {
  return static_cast<DurationNs>(us * static_cast<double>(kNsPerUs));
}
constexpr DurationNs milliseconds(double ms) {
  return static_cast<DurationNs>(ms * static_cast<double>(kNsPerMs));
}
constexpr DurationNs seconds(double s) {
  return static_cast<DurationNs>(s * static_cast<double>(kNsPerSec));
}

constexpr double to_seconds(DurationNs ns) {
  return static_cast<double>(ns) / static_cast<double>(kNsPerSec);
}
constexpr double to_millis(DurationNs ns) {
  return static_cast<double>(ns) / static_cast<double>(kNsPerMs);
}

/// Bandwidth in bits per second.
using BitsPerSec = double;

constexpr BitsPerSec mbps(double m) { return m * 1e6; }

/// Transfer duration for `bytes` at `bw` bits/s (no propagation delay).
constexpr DurationNs transfer_time(std::int64_t bytes, BitsPerSec bw) {
  return static_cast<DurationNs>(static_cast<double>(bytes) * 8.0 /
                                 bw * static_cast<double>(kNsPerSec));
}

}  // namespace lp

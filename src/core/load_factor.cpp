#include "core/load_factor.h"

#include <algorithm>

#include "common/check.h"

namespace lp::core {

LoadFactorTracker::LoadFactorTracker(
    std::size_t window, const predict::PredictorParams& forecaster)
    : ratios_(window),
      idle_ratios_(std::max<std::size_t>(4, window / 2)),
      predictor_(forecaster) {}

double LoadFactorTracker::record(double measured_sec, double predicted_sec,
                                 bool contended, TimeNs now) {
  LP_DCHECK(measured_sec >= 0.0);
  LP_CHECK_MSG(predicted_sec > 0.0, "predicted partition time must be > 0");
  // A non-positive measurement carries no load information (the mirror of
  // the 0 ns BandwidthEstimator::add_transfer case): a zero ratio would
  // drag the published mean below the load actually observed. Drop it.
  if (measured_sec > 0.0) {
    const double ratio = measured_sec / predicted_sec;
    ratios_.add(ratio);
    ++records_;
    if (!contended) idle_ratios_.add(ratio);
  }
  return predictor_.observe(now, k());
}

double LoadFactorTracker::k() const {
  if (ratios_.empty()) return 1.0;
  return std::max(1.0, ratios_.mean());
}

double LoadFactorTracker::idle_baseline() const {
  if (idle_ratios_.empty()) return 1.0;
  return std::max(1.0, idle_ratios_.mean());
}

LoadSignal LoadFactorTracker::signal(DurationNs horizon) const {
  if (predictor_.samples() == 0) return LoadSignal{k()};
  // Constraint 1c applies to the forecast as much as to the measurement.
  return LoadSignal{std::max(1.0, predictor_.forecast(horizon))};
}

std::int64_t LoadFactorTracker::wire_bytes() const {
  constexpr std::int64_t kSampleBytes = 8;
  return kSampleBytes *
             static_cast<std::int64_t>(ratios_.size() + idle_ratios_.size()) +
         predictor_.wire_bytes();
}

void LoadFactorTracker::reset_idle(TimeNs now) {
  ratios_.clear();
  ratios_.add(idle_baseline());
  // The monitoring period restarts with the reset: a periodic reporter
  // reading records() right after must not see the pre-reset count (the
  // re-seeded baseline is a synthetic sample, not a measurement).
  records_ = 0;
  predictor_.observe(now, k());
}

void LoadFactorTracker::reset() {
  // Fresh windows release their buffers, as a rebuilt tracker would.
  ratios_ = SlidingWindow(ratios_.capacity());
  idle_ratios_ = SlidingWindow(idle_ratios_.capacity());
  records_ = 0;
  predictor_.reset();
}

}  // namespace lp::core

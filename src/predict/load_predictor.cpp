#include "predict/load_predictor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/check.h"

namespace lp::predict {

namespace {

/// Indexed by LoadPredictor::Kind.
constexpr const char* kKindNames[] = {"ewma", "holt", "last-value"};

constexpr double kEwmaAlpha = 0.3;  ///< level smoothing (ewma)
constexpr double kHoltAlpha = 0.4;  ///< level smoothing (holt)
constexpr double kHoltBeta = 0.2;   ///< trend smoothing (holt)

}  // namespace

LoadPredictor::LoadPredictor(const PredictorParams& params) {
  const auto it = std::find(std::begin(kKindNames), std::end(kKindNames),
                            params.kind);
  LP_CHECK_MSG(it != std::end(kKindNames),
               "unknown predictor kind: " + params.kind);
  kind_ = static_cast<Kind>(it - std::begin(kKindNames));
}

const char* LoadPredictor::name() const {
  return kKindNames[static_cast<int>(kind_)];
}

double LoadPredictor::observe(TimeNs now, double value) {
  LP_CHECK_MSG(std::isfinite(value), "observed load must be finite");
  double err = std::numeric_limits<double>::quiet_NaN();
  if (samples_ > 0) {
    LP_CHECK_MSG(now >= last_observed_,
                 "load observations must not move back in time");
    const DurationNs gap = now - last_observed_;
    err = forecast(gap) - value;
    abs_err_sum_ += std::abs(err);
    err_sum_ += err;
    ++scored_;
    // Smoothed observation gap: the step size trend extrapolation uses.
    gap_sec_ = samples_ == 1 ? to_seconds(gap)
                             : 0.5 * to_seconds(gap) + 0.5 * gap_sec_;
  }
  // Absorb the value into the model; samples_ still counts only the
  // observations before this one.
  switch (kind_) {
    case Kind::kLastValue:
      break;
    case Kind::kEwma:
      level_ = samples_ == 0
                   ? value
                   : kEwmaAlpha * value + (1.0 - kEwmaAlpha) * level_;
      break;
    case Kind::kHolt:
      if (samples_ == 0) {
        level_ = value;
        trend_ = 0.0;
      } else {
        const double prev = level_;
        level_ = kHoltAlpha * value + (1.0 - kHoltAlpha) * (level_ + trend_);
        trend_ = kHoltBeta * (level_ - prev) + (1.0 - kHoltBeta) * trend_;
      }
      break;
  }
  last_observed_ = now;
  last_value_ = value;
  ++samples_;
  return err;
}

double LoadPredictor::forecast(DurationNs horizon) const {
  if (samples_ == 0) return 0.0;
  const double horizon_sec = to_seconds(std::max<DurationNs>(0, horizon));
  double f = last_value_;
  if (kind_ == Kind::kEwma) f = level_;
  if (kind_ == Kind::kHolt) f = level_ + trend_ * horizon_steps(horizon_sec);
  // A mis-extrapolating model degrades to naive, never to NaN/inf: the
  // decision path divides and compares with this value.
  if (!std::isfinite(f)) return last_value_;
  return std::clamp(f, -kMaxAbsForecast, kMaxAbsForecast);
}

double LoadPredictor::mae() const {
  if (scored_ == 0) return 0.0;
  return abs_err_sum_ / static_cast<double>(scored_);
}

double LoadPredictor::bias() const {
  if (scored_ == 0) return 0.0;
  return err_sum_ / static_cast<double>(scored_);
}

double LoadPredictor::confidence() const {
  if (samples_ == 0) return 0.0;
  const double warm = std::min(1.0, static_cast<double>(samples_) / 8.0);
  return warm / (1.0 + mae());
}

double LoadPredictor::horizon_steps(double horizon_sec) const {
  if (gap_sec_ <= 0.0) return 0.0;
  return std::min(horizon_sec / gap_sec_, kMaxTrendSteps);
}

void LoadPredictor::reset() { *this = LoadPredictor(kind_); }

std::int64_t LoadPredictor::wire_bytes() const {
  if (kind_ == Kind::kEwma) return 8;   // level
  if (kind_ == Kind::kHolt) return 16;  // level + trend
  return 0;
}

std::vector<std::string> registered_predictors() {
  return {std::begin(kKindNames), std::end(kKindNames)};
}

}  // namespace lp::predict

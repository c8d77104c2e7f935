// Load-prediction subsystem.
//
// A LoadPredictor consumes the time series of a published load quantity
// (the influential factor k of a session) one observation at a time and
// answers horizon-aware forecasts: "what will this series read `horizon`
// from now?". It is one concrete, copyable class; PredictorParams::kind
// picks its model once, at construction, so swapping reactive k for a
// forecast is a config change:
//
//   * last-value — forecast == the latest observation at any horizon. The
//     default: it reproduces today's reactive behavior bit-identically.
//   * ewma       — exponentially weighted level, flat extrapolation.
//   * holt       — double-exponential smoothing (level + trend).
//
// Two earlier kinds lost their own ablation (bench/predictor_ablation) and
// were dropped: a smoothed-first-difference model had a worse p90 than
// last-value on both workloads, and windowed linear least squares lost to
// ewma and holt on every bursty-fleet metric.
//
// Every predictor scores itself: each observation is first compared against
// what the predictor forecast for this instant, accumulating MAE/bias the
// serving layer exports as predict.* gauges. A predictor is a plain value:
// live session migration copies it, and a copy forecasts the same bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace lp::predict {

/// The forecaster choice that rides RuntimeParams: `kind` names the model.
struct PredictorParams {
  std::string kind = "last-value";
};

/// Trend extrapolation is capped at this many observation gaps: a load
/// series sampled every few hundred ms must not be extrapolated linearly
/// across a multi-second horizon.
inline constexpr double kMaxTrendSteps = 8.0;

/// Forecasts are clamped into [-kMaxAbsForecast, +kMaxAbsForecast]; a
/// non-finite projection degrades to the last observation. Keeps a
/// mis-extrapolating model from poisoning the decision path.
inline constexpr double kMaxAbsForecast = 1e6;

class LoadPredictor {
 public:
  /// The model params.kind names; throws ContractError on an unknown kind.
  explicit LoadPredictor(const PredictorParams& params);

  /// The kind's name (matches PredictorParams::kind).
  const char* name() const;

  /// Feeds one observation of the series at sim time `now` (monotone).
  /// Scores the forecast this predictor had standing for this instant
  /// *before* absorbing the value, and returns that signed error
  /// (forecast - value); NaN on the first observation, when nothing was
  /// forecast. O(1), no allocation.
  double observe(TimeNs now, double value);

  /// Forecast of the series `horizon` past the last observation (0 = the
  /// predictor's current level). Always finite; clamped to
  /// kMaxAbsForecast.
  /// With no observations yet, 0 — callers fall back to their live value.
  double forecast(DurationNs horizon) const;

  std::uint64_t samples() const { return samples_; }
  TimeNs last_observed() const { return last_observed_; }

  /// Mean absolute / signed forecast error over the scored observations.
  double mae() const;
  double bias() const;
  std::uint64_t scored() const { return scored_; }

  /// [0, 1] trust in the forecast: ramps with sample count, discounted by
  /// the observed error. 0 with no samples.
  double confidence() const;

  /// Back to a just-constructed predictor of the same kind.
  void reset();

  /// Modeled wire size in a session migration: 8 bytes per model scalar
  /// (last-value 0, ewma 8, holt 16). The observation and error fields
  /// ride the export header the serving layer already charges, so the
  /// default last-value predictor adds zero bytes.
  std::int64_t wire_bytes() const;

  /// Every field, the kind included: equal predictors forecast the same
  /// bits from here on.
  bool operator==(const LoadPredictor&) const = default;

 private:
  /// In name order, the order registered_predictors() lists.
  enum class Kind { kEwma, kHolt, kLastValue };

  explicit LoadPredictor(Kind kind) : kind_(kind) {}

  /// Horizon expressed in (smoothed) observation gaps, capped at
  /// kMaxTrendSteps; 0 before a second sample establishes a gap.
  double horizon_steps(double horizon_sec) const;

  Kind kind_ = Kind::kLastValue;
  TimeNs last_observed_ = 0;
  double last_value_ = 0.0;
  double gap_sec_ = 0.0;  ///< smoothed observation gap (trend step size)
  std::uint64_t samples_ = 0;
  double abs_err_sum_ = 0.0;
  double err_sum_ = 0.0;
  std::uint64_t scored_ = 0;
  double level_ = 0.0;  ///< ewma and holt
  double trend_ = 0.0;  ///< holt, per observation gap
};

/// The kind names in deterministic (sorted) order.
std::vector<std::string> registered_predictors();

}  // namespace lp::predict

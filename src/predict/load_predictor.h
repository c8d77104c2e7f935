// Pluggable load-prediction subsystem.
//
// A LoadPredictor consumes the time series of a published load quantity
// (the influential factor k of a session, or a frontend's predicted queue
// delay) one observation at a time and answers horizon-aware forecasts:
// "what will this series read `horizon` from now?". Consumers never touch
// a concrete forecaster — they hold the interface, built by name from a
// fixed table of built-ins, so swapping reactive k for a forecast is a
// config change:
//
//   * last-value — forecast == the latest observation at any horizon. The
//     default: it reproduces today's reactive behavior bit-identically.
//   * ewma       — exponentially weighted level, flat extrapolation.
//   * holt       — double-exponential smoothing (level + trend).
//
// A new forecaster is a new entry in that table. Two earlier built-ins
// lost their own ablation (bench/predictor_ablation) and were dropped: a
// smoothed-first-difference model had a worse p90 than last-value on both
// workloads, and windowed linear least squares lost to ewma and holt on
// every bursty-fleet metric.
//
// Every predictor scores itself: each observation is first compared against
// what the predictor forecast for this instant, accumulating MAE/bias the
// serving layer exports as predict.* gauges. State export/import is exact —
// export→import→export round-trips bit-identically, so forecasts survive
// live session migration unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace lp::predict {

/// The forecaster choice that rides RuntimeParams: `kind` selects the
/// built-in by name.
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

/// The exact serialized state of a predictor (live session migration).
/// The fixed fields are the base class's accounting; derived predictors
/// pack their model state into `scalars`. import_state into a predictor of
/// the same kind is bit-identical; a kind mismatch throws.
struct PredictorState {
  TimeNs last_observed = 0;
  double last_value = 0.0;
  double gap_sec = 0.0;  ///< smoothed observation gap (trend step size)
  std::uint64_t samples = 0;
  double abs_err_sum = 0.0;
  double err_sum = 0.0;
  std::uint64_t scored = 0;
  std::vector<double> scalars;
};

/// Modeled wire size of a state for session migration: 8 bytes per packed
/// scalar. The fixed fields ride the export header the serving layer
/// already charges, so the default last-value predictor (no scalars) adds
/// zero bytes — migration timing stays bit-identical to runs that predate
/// the predictor.
std::int64_t state_wire_bytes(const PredictorState& state);

class LoadPredictor {
 public:
  virtual ~LoadPredictor() = default;

  /// Registry name of this forecaster (matches PredictorParams::kind).
  virtual const char* name() const = 0;

  /// Feeds one observation of the series at sim time `now` (monotone).
  /// Scores the forecast this predictor had standing for this instant
  /// *before* absorbing the value, and returns that signed error
  /// (forecast - value); NaN on the first observation, when nothing was
  /// forecast. O(window) worst case, no allocation on the steady path.
  double observe(TimeNs now, double value);

  /// Forecast of the series `horizon` past the last observation (0 = the
  /// predictor's current level). Always finite; clamped to
  /// kMaxAbsForecast.
  /// With no observations yet, 0 — callers fall back to their live value.
  double forecast(DurationNs horizon) const;

  std::uint64_t samples() const { return samples_; }
  TimeNs last_observed() const { return last_observed_; }
  double last_value() const { return last_value_; }

  /// Mean absolute / signed forecast error over the scored observations.
  double mae() const;
  double bias() const;
  std::uint64_t scored() const { return scored_; }

  /// [0, 1] trust in the forecast: ramps with sample count, discounted by
  /// the observed error. 0 with no samples.
  double confidence() const;

  /// Back to the just-constructed state (LoadFactorTracker::reset, and the
  /// frontend's queue-delay forecaster on a crash).
  void reset();

  /// Exact state round-trip for live migration: export→import→export is
  /// bit-identical. import_state requires a state packed by the same kind
  /// (vector layouts must match) and replaces everything.
  PredictorState export_state() const;
  void import_state(const PredictorState& state);

 protected:
  /// Horizon expressed in (smoothed) observation gaps, capped at
  /// kMaxTrendSteps; 0 before a second sample establishes a gap.
  double horizon_steps(double horizon_sec) const;

 private:
  /// Absorbs the observation into the derived model (called after the
  /// standing forecast was scored; base fields still hold the *previous*
  /// observation while this runs).
  virtual void update(TimeNs now, double value) = 0;
  /// The derived model's raw projection `horizon_sec` ahead; the base
  /// clamps it. Only called with samples() > 0.
  virtual double project(double horizon_sec) const = 0;
  virtual void reset_model() = 0;
  virtual void pack(PredictorState* state) const = 0;
  virtual void unpack(const PredictorState& state) = 0;

  TimeNs last_observed_ = 0;
  double last_value_ = 0.0;
  double gap_sec_ = 0.0;
  std::uint64_t samples_ = 0;
  double abs_err_sum_ = 0.0;
  double err_sum_ = 0.0;
  std::uint64_t scored_ = 0;
};

/// Builds the predictor params.kind names; throws on an unknown kind.
std::unique_ptr<LoadPredictor> make_predictor(const PredictorParams& params);

/// The built-in kind names in deterministic (sorted) order.
std::vector<std::string> registered_predictors();

}  // namespace lp::predict

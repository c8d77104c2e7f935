#include "predict/load_predictor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/check.h"

namespace lp::predict {

std::int64_t state_wire_bytes(const PredictorState& state) {
  constexpr std::int64_t kSampleBytes = 8;
  return kSampleBytes * static_cast<std::int64_t>(state.scalars.size());
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
  update(now, value);
  last_observed_ = now;
  last_value_ = value;
  ++samples_;
  return err;
}

double LoadPredictor::forecast(DurationNs horizon) const {
  if (samples_ == 0) return 0.0;
  const double f = project(to_seconds(std::max<DurationNs>(0, horizon)));
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

void LoadPredictor::reset() {
  last_observed_ = 0;
  last_value_ = 0.0;
  gap_sec_ = 0.0;
  samples_ = 0;
  abs_err_sum_ = 0.0;
  err_sum_ = 0.0;
  scored_ = 0;
  reset_model();
}

PredictorState LoadPredictor::export_state() const {
  PredictorState state;
  state.last_observed = last_observed_;
  state.last_value = last_value_;
  state.gap_sec = gap_sec_;
  state.samples = samples_;
  state.abs_err_sum = abs_err_sum_;
  state.err_sum = err_sum_;
  state.scored = scored_;
  pack(&state);
  return state;
}

void LoadPredictor::import_state(const PredictorState& state) {
  last_observed_ = state.last_observed;
  last_value_ = state.last_value;
  gap_sec_ = state.gap_sec;
  samples_ = state.samples;
  abs_err_sum_ = state.abs_err_sum;
  err_sum_ = state.err_sum;
  scored_ = state.scored;
  unpack(state);
}

namespace {

constexpr double kEwmaAlpha = 0.3;  ///< level smoothing (ewma)
constexpr double kHoltAlpha = 0.4;  ///< level smoothing (holt)
constexpr double kHoltBeta = 0.2;   ///< trend smoothing (holt)

class LastValuePredictor final : public LoadPredictor {
 public:
  const char* name() const override { return "last-value"; }

 private:
  void update(TimeNs /*now*/, double /*value*/) override {}
  double project(double /*horizon_sec*/) const override {
    return last_value();
  }
  void reset_model() override {}
  void pack(PredictorState* /*state*/) const override {}
  void unpack(const PredictorState& state) override {
    LP_CHECK_MSG(state.scalars.empty(),
                 "last-value import from a different predictor kind");
  }
};

class EwmaPredictor final : public LoadPredictor {
 public:
  const char* name() const override { return "ewma"; }

 private:
  void update(TimeNs /*now*/, double value) override {
    level_ = samples() == 0
                 ? value
                 : kEwmaAlpha * value + (1.0 - kEwmaAlpha) * level_;
  }
  double project(double /*horizon_sec*/) const override { return level_; }
  void reset_model() override { level_ = 0.0; }
  void pack(PredictorState* state) const override {
    state->scalars = {level_};
  }
  void unpack(const PredictorState& state) override {
    LP_CHECK_MSG(state.scalars.size() == 1,
                 "ewma import from a different predictor kind");
    level_ = state.scalars[0];
  }

  double level_ = 0.0;
};

/// Holt double-exponential smoothing: a level and a per-step trend.
class HoltPredictor final : public LoadPredictor {
 public:
  const char* name() const override { return "holt"; }

 private:
  void update(TimeNs /*now*/, double value) override {
    if (samples() == 0) {
      level_ = value;
      trend_ = 0.0;
      return;
    }
    const double prev = level_;
    level_ = kHoltAlpha * value + (1.0 - kHoltAlpha) * (level_ + trend_);
    trend_ = kHoltBeta * (level_ - prev) + (1.0 - kHoltBeta) * trend_;
  }
  double project(double horizon_sec) const override {
    return level_ + trend_ * horizon_steps(horizon_sec);
  }
  void reset_model() override {
    level_ = 0.0;
    trend_ = 0.0;
  }
  void pack(PredictorState* state) const override {
    state->scalars = {level_, trend_};
  }
  void unpack(const PredictorState& state) override {
    LP_CHECK_MSG(state.scalars.size() == 2,
                 "holt import from a different predictor kind");
    level_ = state.scalars[0];
    trend_ = state.scalars[1];
  }

  double level_ = 0.0;
  double trend_ = 0.0;
};

template <typename P>
std::unique_ptr<LoadPredictor> construct() {
  return std::make_unique<P>();
}

/// The built-in forecasters, sorted by name.
struct Builtin {
  const char* name;
  std::unique_ptr<LoadPredictor> (*make)();
};
constexpr Builtin kBuiltins[] = {
    {"ewma", &construct<EwmaPredictor>},
    {"holt", &construct<HoltPredictor>},
    {"last-value", &construct<LastValuePredictor>},
};

}  // namespace

std::unique_ptr<LoadPredictor> make_predictor(const PredictorParams& params) {
  const auto it = std::find_if(
      std::begin(kBuiltins), std::end(kBuiltins),
      [&](const Builtin& b) { return params.kind == b.name; });
  LP_CHECK_MSG(it != std::end(kBuiltins),
               "unknown predictor kind: " + params.kind);
  return it->make();
}

std::vector<std::string> registered_predictors() {
  std::vector<std::string> names;
  for (const Builtin& b : kBuiltins) names.emplace_back(b.name);
  return names;
}

}  // namespace lp::predict

#include "predict/load_predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace lp::predict {
namespace {

PredictorParams params_of(const std::string& kind) {
  PredictorParams params;
  params.kind = kind;
  return params;
}

TEST(PredictorRegistry, ListsTheThreeBuiltinsSorted) {
  const std::vector<std::string> expected = {"ewma", "holt", "last-value"};
  EXPECT_EQ(registered_predictors(), expected);
}

TEST(PredictorRegistry, UnknownKindThrows) {
  EXPECT_THROW(LoadPredictor(params_of("oracle")), ContractError);
}

TEST(PredictorRegistry, DefaultKindIsLastValue) {
  const LoadPredictor predictor(PredictorParams{});
  EXPECT_STREQ(predictor.name(), "last-value");
}

TEST(LastValue, ForecastsItsLastObservationAtEveryHorizon) {
  LoadPredictor p(params_of("last-value"));
  EXPECT_EQ(p.forecast(seconds(1)), 0.0);  // nothing observed yet
  p.observe(milliseconds(10), 3.25);
  p.observe(milliseconds(20), 1.75);
  for (DurationNs h : {DurationNs{0}, milliseconds(50), seconds(30)})
    EXPECT_EQ(p.forecast(h), 1.75);  // exact, not approximate
}

TEST(WireBytes, EightPerModelScalarSoLastValueAddsZero) {
  const std::pair<const char*, std::int64_t> cases[] = {
      {"last-value", 0}, {"ewma", 8}, {"holt", 16}};
  for (const auto& [kind, bytes] : cases) {
    LoadPredictor p(params_of(kind));
    p.observe(milliseconds(1), 2.0);
    p.observe(milliseconds(2), 4.0);
    EXPECT_EQ(p.wire_bytes(), bytes) << kind;
  }
}

TEST(Ewma, SmoothsBetweenLevelAndObservation) {
  LoadPredictor p(params_of("ewma"));
  p.observe(seconds(1), 1.0);
  p.observe(seconds(2), 3.0);
  // alpha 0.3: level = 0.3 * 3 + 0.7 * 1 = 1.6, flat at every horizon.
  EXPECT_DOUBLE_EQ(p.forecast(0), 1.6);
  EXPECT_DOUBLE_EQ(p.forecast(seconds(10)), 1.6);
}

TEST(Holt, TracksALinearTrend) {
  LoadPredictor p(params_of("holt"));
  TimeNs now = 0;
  double v = 2.0;
  for (int i = 0; i < 60; ++i) {
    now += seconds(1);
    v += 1.0;
    p.observe(now, v);
  }
  // Converged level ~= the last value, trend ~= +1 per 1s step.
  EXPECT_NEAR(p.forecast(seconds(3)), v + 3.0, 0.2);
}

TEST(Holt, TrendExtrapolationIsCapped) {
  LoadPredictor p(params_of("holt"));
  TimeNs now = 0;
  double v = 2.0;
  for (int i = 0; i < 60; ++i) {
    now += seconds(1);
    v += 1.0;
    p.observe(now, v);
  }
  // A 100s horizon is 100 gaps, but extrapolation stops at 8 steps.
  ASSERT_EQ(kMaxTrendSteps, 8.0);
  EXPECT_NEAR(p.forecast(seconds(100)), v + 8.0, 0.2);
}

TEST(Forecast, ClampsRunawayExtrapolation) {
  LoadPredictor p(params_of("holt"));
  p.observe(milliseconds(1), 1.0);
  // Level 400000.6, trend +79999.9 per step: 8 steps out is ~1.04e6.
  p.observe(milliseconds(2), 1e6);
  ASSERT_EQ(kMaxAbsForecast, 1e6);
  EXPECT_LT(p.forecast(0), kMaxAbsForecast);
  EXPECT_EQ(p.forecast(seconds(60)), kMaxAbsForecast);
}

TEST(ErrorStats, ScoreTheStandingForecastBeforeAbsorbing) {
  LoadPredictor p(params_of("last-value"));
  EXPECT_TRUE(std::isnan(p.observe(seconds(1), 1.0)));  // nothing standing
  const double err = p.observe(seconds(2), 3.0);
  // The standing last-value forecast was 1.0; the series read 3.0.
  EXPECT_DOUBLE_EQ(err, -2.0);
  EXPECT_EQ(p.scored(), 1u);
  EXPECT_DOUBLE_EQ(p.mae(), 2.0);
  EXPECT_DOUBLE_EQ(p.bias(), -2.0);
}

TEST(Confidence, StaysInUnitIntervalAndRampsWithSamples) {
  LoadPredictor p(params_of("ewma"));
  EXPECT_EQ(p.confidence(), 0.0);
  Rng rng(7);
  TimeNs now = 0;
  double previous = 0.0;
  for (int i = 0; i < 32; ++i) {
    now += milliseconds(50);
    p.observe(now, rng.uniform(1.0, 2.0));
    const double c = p.confidence();
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    if (i == 3) previous = c;
  }
  // More samples of a bounded series never collapse the trust to zero.
  EXPECT_GT(p.confidence(), 0.0);
  EXPECT_GT(previous, 0.0);
}

TEST(ObserveContract, RejectsNonFiniteAndTimeTravel) {
  LoadPredictor p(params_of("holt"));
  EXPECT_THROW(p.observe(seconds(1), std::nan("")), ContractError);
  p.observe(seconds(2), 1.0);
  EXPECT_THROW(p.observe(seconds(1), 2.0), ContractError);
}

TEST(Copy, IsEqualAndForecastsTheSameBits) {
  for (const std::string& kind : registered_predictors()) {
    LoadPredictor original(params_of(kind));
    Rng rng(0xBEEF);
    TimeNs now = 0;
    for (int i = 0; i < 40; ++i) {
      now += milliseconds(rng.uniform_int(1, 400));
      original.observe(now, rng.uniform(1.0, 16.0));
    }
    LoadPredictor copy = original;
    EXPECT_TRUE(copy == original) << kind;
    for (int i = 0; i < 10; ++i) {
      now += milliseconds(rng.uniform_int(1, 400));
      const double v = rng.uniform(1.0, 16.0);
      EXPECT_EQ(original.observe(now, v), copy.observe(now, v)) << kind;
      EXPECT_EQ(original.forecast(seconds(2)), copy.forecast(seconds(2)))
          << kind;
    }
    EXPECT_TRUE(copy == original) << kind;
  }
}

TEST(Copy, KindsNeverCompareEqual) {
  const LoadPredictor holt(params_of("holt"));
  const LoadPredictor ewma(params_of("ewma"));
  EXPECT_FALSE(holt == ewma);  // fresh, so every other field matches
}

TEST(Reset, ReturnsToTheJustConstructedState) {
  for (const std::string& kind : registered_predictors()) {
    LoadPredictor p(params_of(kind));
    const LoadPredictor fresh = p;
    p.observe(seconds(1), 4.0);
    p.observe(seconds(2), 8.0);
    p.reset();
    EXPECT_TRUE(p == fresh) << kind;
    EXPECT_STREQ(p.name(), kind.c_str());
    EXPECT_EQ(p.forecast(seconds(1)), 0.0) << kind;
  }
}

}  // namespace
}  // namespace lp::predict

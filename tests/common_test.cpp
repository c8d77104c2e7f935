#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace lp {
namespace {

TEST(Check, ThrowsContractErrorWithLocation) {
  try {
    LP_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(Check, PassingCheckDoesNotThrow) { LP_CHECK(2 + 2 == 4); }

TEST(Units, Conversions) {
  EXPECT_EQ(seconds(1.5), 1'500'000'000);
  EXPECT_EQ(milliseconds(2.0), 2'000'000);
  EXPECT_EQ(microseconds(3.0), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(17.0)), 17.0);
}

TEST(Units, TransferTime) {
  // 1 MB at 8 Mbps = 1 second.
  EXPECT_EQ(transfer_time(1'000'000, mbps(8)), kNsPerSec);
  // 0 bytes transfer instantly.
  EXPECT_EQ(transfer_time(0, mbps(1)), 0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  std::vector<double> draws(20000);
  for (double& x : draws) x = rng.normal();
  const double mean = mean_of(draws);
  double squares = 0.0;
  for (double x : draws) squares += (x - mean) * (x - mean);
  const double variance = squares / static_cast<double>(draws.size() - 1);
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(variance), 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  std::vector<double> draws(20000);
  for (double& x : draws) x = rng.exponential(4.0);
  EXPECT_NEAR(mean_of(draws), 4.0, 0.2);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  // Streams should not be trivially identical.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++same;
  EXPECT_LT(same, 2);
}

TEST(SlidingWindow, EvictsOldest) {
  SlidingWindow w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10.0);  // evicts 1.0
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
}

TEST(SlidingWindow, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow(0), ContractError);
}

TEST(SlidingWindow, RingMatchesNaiveDequeBitForBit) {
  for (std::size_t capacity : {1u, 3u, 16u}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    Rng rng(capacity);
    SlidingWindow window(capacity);
    SlidingWindow twin(capacity);  // copied from `window` now and then
    std::deque<double> mirror;
    double mirror_sum = 0.0;
    for (int i = 0; i < 1200; ++i) {
      // Magnitudes spread over nine decades, so the running sum rounds on
      // most adds and any change in FP order would show in the last bit.
      const double scale =
          std::pow(10.0, static_cast<double>(rng.uniform_int(-3, 6)));
      const double x = rng.uniform(-1.0, 1.0) * scale;
      window.add(x);
      twin.add(x);
      mirror.push_back(x);
      mirror_sum += x;
      if (mirror.size() > capacity) {
        mirror_sum -= mirror.front();
        mirror.pop_front();
      }

      ASSERT_EQ(window.size(), mirror.size());
      ASSERT_EQ(window.mean(), mirror_sum / static_cast<double>(mirror.size()));

      ASSERT_TRUE(twin == window);
      if (i % 97 == 41) twin = window;
    }
  }
}

TEST(SlidingWindow, ClearForgetsSamplesAndSum) {
  SlidingWindow w(2);
  for (double v : {1.0, 2.0, 3.0}) w.add(v);
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_TRUE(w == SlidingWindow(2));
  w.add(5.0);
  EXPECT_EQ(w.mean(), 5.0);
}

TEST(Percentile, InterpolatesAndClamps) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

TEST(Percentile, ClampsOutOfRangeQuantiles) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -10), 1.0);    // clamped to q = 0
  EXPECT_DOUBLE_EQ(percentile(v, 250), 4.0);    // clamped to q = 100
  EXPECT_DOUBLE_EQ(percentile({7.0}, 90), 7.0); // single sample
}

TEST(Percentile, RejectsEmptyAndNan) {
  EXPECT_THROW(percentile({}, 50), ContractError);
  EXPECT_THROW(percentile({1.0, 2.0}, std::nan("")), ContractError);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const auto text = t.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace lp

#include "common/check.h"
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "check/generators.h"
#include "common/rng.h"
#include "core/algorithm.h"
#include "core/baselines.h"
#include "models/zoo.h"

namespace lp::core {
namespace {

const PredictorBundle& bundle() {
  static const PredictorBundle b = train_default_predictors(1234);
  return b;
}

TEST(Algorithm1, VerbatimFormTrivialChain) {
  // Three nodes after L0; device 10 ms each, server 1 ms each; tensors
  // shrink along the chain. At high bandwidth: offload early.
  const std::vector<double> f{0.0, 0.010, 0.010, 0.010};
  const std::vector<double> g{0.0, 0.001, 0.001, 0.001};
  const std::vector<std::int64_t> s{1000, 500, 250, 100};
  const auto high = partition_decision(f, g, s, mbps(100), 0.0);
  EXPECT_EQ(high.p, 0u);
  // At pathologically low bandwidth: local wins.
  const auto low = partition_decision(f, g, s, 10.0, 0.0);
  EXPECT_EQ(low.p, 3u);
}

TEST(Algorithm1, TieBreaksTowardLargerP) {
  // f = g = 0 and equal-size cuts: every p (including local) ties; the
  // pseudocode's `<=` keeps the last, which is local inference.
  const std::vector<double> f{0.0, 0.0, 0.0};
  const std::vector<double> g{0.0, 0.0, 0.0};
  const std::vector<std::int64_t> s{0, 0, 0};
  EXPECT_EQ(partition_decision(f, g, s, mbps(8), 0.0).p, 2u);
}

TEST(Algorithm1, InteriorTieKeepsLatestMinimizer) {
  // t_0 = g1 + g2 = 1, t_1 = f1 + g2 = 1, t_2 = f1 + f2 = 2: p = 0 and
  // p = 1 tie and local is worse; the `<=` keeps the later minimizer p = 1.
  const std::vector<double> f{0.0, 1.0, 1.0};
  const std::vector<double> g{0.0, 1.0, 0.0};
  const std::vector<std::int64_t> s{0, 0, 0};
  EXPECT_EQ(partition_decision(f, g, s, mbps(8), 0.0).p, 1u);
}

TEST(Algorithm1, AllImplementationsBreakTiesIdentically) {
  // Exact full-spectrum tie: FLOPs-proportional predictors with
  // power-of-two coefficients make f(L_i) == k * g_base(L_i) exactly at
  // k = 2 (every term is an integer FLOP count scaled by a power of two,
  // so sums are exact), and infinite bandwidth zeroes the transfer term.
  // Every t_p is then bit-identical, and all three implementations must
  // resolve the n+1-way tie the same way: the `<=` keeps p = n (local).
  const auto g = models::make_model("alexnet");
  const core::PredictorBundle synthetic = lp::check::synthetic_bundle(
      std::ldexp(1.0, -30), std::ldexp(1.0, -31));
  const GraphCostProfile profile(g, synthetic);
  const double k = 2.0;
  const double bw = std::numeric_limits<double>::infinity();

  const auto fast = decide(profile, k, bw);
  const auto slow = decide_brute_force(profile, k, bw);
  std::vector<double> fv(profile.n() + 1), gk(profile.n() + 1);
  std::vector<std::int64_t> sv(profile.n() + 1);
  for (std::size_t i = 0; i <= profile.n(); ++i) {
    fv[i] = profile.f(i);
    gk[i] = k * profile.g_base(i);
    sv[i] = profile.s(i);
  }
  const auto verbatim = partition_decision(fv, gk, sv, bw, 0.0);

  EXPECT_EQ(fast.p, g.n());
  EXPECT_EQ(slow.p, g.n());
  EXPECT_EQ(verbatim.p, g.n());
  EXPECT_EQ(fast.predicted_latency, slow.predicted_latency);
  EXPECT_EQ(fast.predicted_latency, verbatim.predicted_latency);
}

TEST(Algorithm1, DownloadTermIncludedWhenRequested) {
  const std::vector<double> f{0.0, 1.0};
  const std::vector<double> g{0.0, 0.0};
  // Offloading uploads 1 KB instantly but must download a 1 MB result; at
  // 8 Mbps that costs 1 s, equal to local compute -> tie -> local.
  const std::vector<std::int64_t> s{1000, 1'000'000};
  EXPECT_EQ(partition_decision(f, g, s, mbps(1000), mbps(8)).p, 1u);
  // Without the download term, full offloading wins.
  EXPECT_EQ(partition_decision(f, g, s, mbps(1000), 0.0).p, 0u);
}

TEST(Algorithm1, RejectsMismatchedInputs) {
  const std::vector<double> f{0.0, 1.0};
  const std::vector<double> g{0.0};
  const std::vector<std::int64_t> s{10, 10};
  EXPECT_THROW(partition_decision(f, g, s, mbps(8), 0.0), ContractError);
}

class DecideVsBruteForce
    : public ::testing::TestWithParam<std::tuple<std::string, double, double>> {
};

TEST_P(DecideVsBruteForce, IncrementalFormMatchesOracle) {
  const auto [name, k, bw_mbps] = GetParam();
  const auto g = models::make_model(name);
  const GraphCostProfile profile(g, bundle());
  const auto fast = decide(profile, k, mbps(bw_mbps));
  const auto slow = decide_brute_force(profile, k, mbps(bw_mbps));
  EXPECT_EQ(fast.p, slow.p);
  EXPECT_NEAR(fast.predicted_latency, slow.predicted_latency, 1e-9);
}

// Named model_k<load>_bw<mbps>, e.g. alexnet_k20_bw8, so the test list is
// the same in every build.
INSTANTIATE_TEST_SUITE_P(
    ModelsBandwidthsLoads, DecideVsBruteForce,
    ::testing::Combine(::testing::Values(std::string("alexnet"),
                                         std::string("squeezenet"),
                                         std::string("resnet18"),
                                         std::string("vgg16"),
                                         std::string("xception")),
                       ::testing::Values(1.0, 3.0, 20.0),
                       ::testing::Values(1.0, 8.0, 64.0)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_k" +
             std::to_string(static_cast<int>(std::get<1>(info.param))) +
             "_bw" +
             std::to_string(static_cast<int>(std::get<2>(info.param)));
    });

TEST(Decide, RandomCostVectorsMatchVerbatimForm) {
  // Property sweep: on random synthetic chains the O(n) incremental form,
  // the verbatim pseudocode and the O(n^2) oracle agree.
  Rng rng(77);
  const auto g = models::alexnet();
  const GraphCostProfile profile(g, bundle());
  for (int trial = 0; trial < 50; ++trial) {
    const double k = rng.uniform(1.0, 40.0);
    const double bw = mbps(rng.uniform(0.5, 100.0));
    const auto a = decide(profile, k, bw);
    const auto b = decide_brute_force(profile, k, bw);

    std::vector<double> f(profile.n() + 1), gk(profile.n() + 1);
    std::vector<std::int64_t> s(profile.n() + 1);
    for (std::size_t i = 0; i <= profile.n(); ++i) {
      f[i] = profile.f(i);
      gk[i] = k * profile.g_base(i);
      s[i] = profile.s(i);
    }
    const auto c = partition_decision(f, gk, s, bw, 0.0);
    EXPECT_EQ(a.p, b.p);
    EXPECT_EQ(a.p, c.p);
    EXPECT_NEAR(a.predicted_latency, c.predicted_latency, 1e-9);
  }
}

TEST(Decide, BandwidthMonotonicity) {
  // As bandwidth falls, the chosen p never moves toward the input: with a
  // slower link you never offload *more*.
  const auto g = models::alexnet();
  const GraphCostProfile profile(g, bundle());
  std::size_t prev_p = 0;
  for (double m : {64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0, 0.5}) {
    const auto d = decide(profile, 1.0, mbps(m));
    EXPECT_GE(d.p, prev_p) << m << " Mbps";
    prev_p = d.p;
  }
}

TEST(Decide, LoadMonotonicity) {
  // As k rises, the partition point never moves toward the server.
  const auto g = models::squeezenet();
  const GraphCostProfile profile(g, bundle());
  std::size_t prev_p = 0;
  for (double k : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const auto d = decide(profile, k, mbps(8));
    EXPECT_GE(d.p, prev_p) << "k=" << k;
    prev_p = d.p;
  }
}

TEST(Decide, ExtremeBandwidthLimits) {
  const auto g = models::alexnet();
  const GraphCostProfile profile(g, bundle());
  // Near-infinite bandwidth with an idle server: full offloading.
  EXPECT_EQ(decide(profile, 1.0, mbps(1e6)).p, 0u);
  // Near-zero bandwidth: local inference.
  EXPECT_EQ(decide(profile, 1.0, 1.0).p, g.n());
}

TEST(Decide, HugeKForcesLocal) {
  const auto g = models::alexnet();
  const GraphCostProfile profile(g, bundle());
  EXPECT_EQ(decide(profile, 1e9, mbps(64)).p, g.n());
}

TEST(Decide, RejectsInvalidArguments) {
  const auto g = models::alexnet();
  const GraphCostProfile profile(g, bundle());
  EXPECT_THROW(decide(profile, 0.5, mbps(8)), ContractError);  // k < 1
  EXPECT_THROW(decide(profile, 1.0, 0.0), ContractError);
}

TEST(GraphCostProfile, PrefixSuffixConsistency) {
  const auto g = models::resnet18();
  const GraphCostProfile profile(g, bundle());
  double acc = 0.0;
  for (std::size_t p = 0; p <= profile.n(); ++p) {
    acc += profile.f(p);
    EXPECT_NEAR(profile.prefix_f(p), acc, 1e-12);
  }
  EXPECT_NEAR(profile.suffix_g(profile.n()), 0.0, 1e-15);
  double suf = 0.0;
  for (std::size_t p = profile.n(); p-- > 0;) {
    suf += profile.g_base(p + 1);
    EXPECT_NEAR(profile.suffix_g(p), suf, 1e-12);
  }
  // The virtual L0 costs nothing.
  EXPECT_EQ(profile.f(0), 0.0);
  EXPECT_EQ(profile.g_base(0), 0.0);
}

TEST(GraphCostProfile, PredictedLatencyEndpoints) {
  const auto g = models::alexnet();
  const GraphCostProfile profile(g, bundle());
  // p = n: pure device sum, no transmission.
  EXPECT_NEAR(profile.predicted_latency(g.n(), 5.0, mbps(8)),
              profile.prefix_f(g.n()), 1e-12);
  // p = 0: upload of the input + k-scaled server sum.
  const double expected =
      static_cast<double>(profile.s(0)) * 8.0 / mbps(8) +
      2.0 * profile.suffix_g(0);
  EXPECT_NEAR(profile.predicted_latency(0, 2.0, mbps(8)), expected, 1e-12);
}

TEST(PredictedVsGroundTruth, IdleServerBreakdownAgreesRoughly) {
  // The trained predictors should track the simulator's ground truth well
  // enough that predicted and actual best-p coincide or nearly so.
  const auto g = models::alexnet();
  const GraphCostProfile profile(g, bundle());
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  const auto rows = latency_breakdown(g, cpu, gpu, mbps(8), mbps(8));
  const auto decision = decide(profile, 1.0, mbps(8));
  double best_truth = 1e18;
  std::size_t best_p = 0;
  for (const auto& row : rows) {
    // Ignore download as the decision does.
    const double t = row.total_sec - row.download_sec;
    if (t < best_truth) {
      best_truth = t;
      best_p = row.p;
    }
  }
  const double chosen_truth = rows[decision.p].total_sec -
                              rows[decision.p].download_sec;
  EXPECT_LT(chosen_truth, best_truth * 1.25)
      << "decision p=" << decision.p << " truth-best p=" << best_p;
}

}  // namespace
}  // namespace lp::core

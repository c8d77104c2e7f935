// Property tests over randomly generated DAGs: the structural and
// algorithmic invariants must hold for *any* well-formed computation
// graph, not just the zoo.
#include "common/check.h"
#include <gtest/gtest.h>

#include "core/algorithm.h"
#include "core/dads.h"
#include "core/offload_runtime.h"
#include "exec/interpreter.h"
#include "graph/cut.h"
#include "partition/partitioner.h"
#include "support/random_graph.h"

namespace lp {
namespace {

/// FLOPs-proportional predictors: exact for any graph, no training.
core::PredictorBundle flops_bundle() {
  profile::NodePredictor user(flops::Device::kUser);
  profile::NodePredictor edge(flops::Device::kEdge);
  for (auto kind : flops::all_model_kinds()) {
    std::vector<double> cu(
        flops::feature_names(kind, flops::Device::kUser).size(), 0.0);
    cu[0] = 3e-10;  // seconds per FLOP on the device
    user.set_model(kind, ml::LinearModel(cu));
    std::vector<double> ce(
        flops::feature_names(kind, flops::Device::kEdge).size(), 0.0);
    ce[0] = 5e-13;
    edge.set_model(kind, ml::LinearModel(ce));
  }
  return core::PredictorBundle{std::move(user), std::move(edge)};
}

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  graph::Graph g_ = test::random_graph(GetParam());
};

TEST_P(RandomGraphProperty, ValidatesAndHasConsistentCutSizes) {
  g_.validate();
  const auto s = graph::cut_sizes(g_);
  ASSERT_EQ(s.size(), g_.n() + 1);
  EXPECT_EQ(s[0], g_.input_desc().bytes());
  EXPECT_EQ(s[g_.n()], g_.output_desc().bytes());
  for (std::size_t p = 0; p <= g_.n(); ++p) {
    EXPECT_EQ(s[p], graph::cut_size_at(g_, p)) << "p=" << p;
    EXPECT_GT(s[p], 0) << "p=" << p;
  }
}

TEST_P(RandomGraphProperty, EveryPartitionExecutesEquivalently) {
  const auto input = exec::random_tensor(g_.input_desc().shape, GetParam());
  const auto& input_name = g_.node(g_.input_id()).name;
  const auto whole = exec::Interpreter(g_).run({{input_name, input}});

  for (std::size_t p = 0; p <= g_.n(); ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const auto plan = partition::partition_at(g_, p);
    std::vector<exec::Tensor> out;
    if (!plan.server_part) {
      out = exec::Interpreter(*plan.device_part).run({{input_name, input}});
    } else {
      exec::TensorMap bind;
      if (plan.device_part) {
        exec::Interpreter device(*plan.device_part);
        const auto produced = device.run({{input_name, input}});
        const auto names = device.output_names();
        ASSERT_EQ(names, plan.boundary);
        for (std::size_t i = 0; i < names.size(); ++i)
          bind.emplace(names[i], produced[i]);
      } else {
        bind.emplace(input_name, input);
      }
      out = exec::Interpreter(*plan.server_part).run(bind);
    }
    ASSERT_EQ(out.size(), whole.size());
    for (std::size_t i = 0; i < whole.size(); ++i)
      EXPECT_LE(exec::Tensor::max_abs_diff(out[i], whole[i]), 1e-5);
  }
}

TEST_P(RandomGraphProperty, PartitionBoundaryMatchesCutSizes) {
  // Random DAGs cut inside multi-branch blocks, so the device segment's
  // MakeTuple shows up here as well as in the zoo.
  const auto s = graph::cut_sizes(g_);
  const core::PredictorBundle bundle = flops_bundle();
  const core::GraphCostProfile profile(g_, bundle);
  for (std::size_t p = 0; p <= g_.n(); ++p) {
    const auto plan = partition::partition_at(g_, p);
    if (p < g_.n()) {
      EXPECT_EQ(plan.boundary_bytes, s[p]) << "p=" << p;
    }
    EXPECT_EQ(core::preparation(profile, p, core::Side::kDevice).nodes,
              plan.device_part ? plan.device_part->backbone().size() : 0)
        << "p=" << p;
    EXPECT_EQ(core::preparation(profile, p, core::Side::kServer).nodes,
              plan.server_part ? plan.server_part->backbone().size() : 0)
        << "p=" << p;
  }
}

TEST_P(RandomGraphProperty, AlgorithmOneMatchesBruteForceOnRandomCosts) {
  // Synthesize random (but valid) cost vectors over this DAG's positions
  // rather than trained predictors — the algorithm must be exact for any
  // non-negative costs.
  Rng rng(GetParam() ^ 0xabcdef);
  const auto s = graph::cut_sizes(g_);
  const std::size_t n = g_.n();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> f(n + 1, 0.0), g(n + 1, 0.0);
    for (std::size_t i = 1; i <= n; ++i) {
      f[i] = rng.uniform(0.0, 0.02);
      g[i] = rng.uniform(0.0, 0.002);
    }
    const double bw = mbps(rng.uniform(0.5, 64.0));
    const auto fast = core::partition_decision(f, g, s, bw, 0.0);

    double best = std::numeric_limits<double>::infinity();
    std::size_t best_p = 0;
    for (std::size_t p = 0; p <= n; ++p) {
      double t = 0.0;
      for (std::size_t i = 0; i <= p; ++i) t += f[i];
      if (p < n) {
        t += static_cast<double>(s[p]) * 8.0 / bw;
        for (std::size_t i = p + 1; i <= n; ++i) t += g[i];
      }
      if (t <= best) {
        best = t;
        best_p = p;
      }
    }
    EXPECT_EQ(fast.p, best_p);
    EXPECT_NEAR(fast.predicted_latency, best, 1e-12);
  }
}

TEST_P(RandomGraphProperty, MinCutNeverWorseThanTopologicalSearch) {
  // Build a cost profile directly over the graph using simple synthetic
  // predictors (FLOPs-proportional), then compare the general min cut to
  // Algorithm 1: the min cut searches a superset of cuts.
  const core::PredictorBundle bundle = flops_bundle();
  const core::GraphCostProfile profile(g_, bundle);
  for (double bw : {0.5, 8.0, 64.0}) {
    const auto linear = core::decide(profile, 1.0, mbps(bw));
    const auto cut = core::dads_min_cut(profile, 1.0, mbps(bw));
    EXPECT_LE(cut.latency_sec, linear.predicted_latency + 1e-9)
        << "bw=" << bw;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(RandomGraphChain, MinCutEqualsTopologicalSearchOnChains) {
  // On pure chains every monotone cut IS a topological-prefix cut, so the
  // two partitioners must agree exactly.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    graph::GraphBuilder b("chain_" + std::to_string(seed));
    Rng rng(seed);
    auto x = b.input({1, 4, 8, 8});
    for (int i = 0; i < 6; ++i) {
      x = b.conv2d(x, 4, 3, 1, 1, rng.bernoulli(0.5));
      if (rng.bernoulli(0.5)) x = b.relu(x);
    }
    const auto g = b.build(x);
    const core::PredictorBundle bundle = flops_bundle();
    const core::GraphCostProfile profile(g, bundle);
    for (double bw : {1.0, 16.0}) {
      const auto linear = core::decide(profile, 1.0, mbps(bw));
      const auto cut = core::dads_min_cut(profile, 1.0, mbps(bw));
      EXPECT_NEAR(cut.latency_sec, linear.predicted_latency, 1e-9)
          << "seed=" << seed << " bw=" << bw;
    }
  }
}

}  // namespace
}  // namespace lp

#include "core/predictor.h"

#include "common/check.h"
#include "flops/features.h"
#include "graph/fusion.h"
#include "hw/cpu_model.h"
#include "hw/gpu_model.h"
#include "profile/offline_profiler.h"

namespace lp::core {

PredictorBundle train_default_predictors(
    std::uint64_t seed, std::vector<profile::TrainReport>* reports) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  profile::ProfilerParams params;
  params.seed = seed;
  profile::OfflineProfiler profiler(cpu, gpu, params);
  profile::Trainer trainer(0.3, seed ^ 0x5u);
  auto user = trainer.train_all(profiler, flops::Device::kUser, reports);
  auto edge = trainer.train_all(profiler, flops::Device::kEdge, reports);
  return PredictorBundle{std::move(user), std::move(edge)};
}

GraphCostProfile::GraphCostProfile(const graph::Graph& g,
                                   const PredictorBundle& predictors)
    : graph_(&g) {
  const auto& order = g.backbone();
  const std::size_t n = g.n();
  f_.resize(n + 1);
  g_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const auto cfg = flops::config_of(g, order[i]);
    f_[i] = predictors.user.predict_seconds(cfg);
    g_[i] = predictors.edge.predict_seconds(cfg);
  }
  // L0 is virtual: f(L0) = g(L0, k) = 0 by definition.
  f_[0] = g_[0] = 0.0;

  prefix_f_.assign(n + 2, 0.0);
  suffix_g_.assign(n + 2, 0.0);
  for (std::size_t i = 1; i <= n + 1; ++i) {
    prefix_f_[i] = prefix_f_[i - 1] + f_[i - 1];
    suffix_g_[n - i + 1] = suffix_g_[n - i + 2] + g_[n - i + 1];
  }
  s_ = graph::cut_sizes(g);
  // The partitioner's device segment: p + 1 positions and a Return, plus a
  // MakeTuple when the cut severs more than one tensor.
  device_nodes_.assign(n + 1, 0);
  for (std::size_t p = 1; p <= n; ++p)
    device_nodes_[p] = p + 2 + (graph::cut_inside_block(g, p) ? 1 : 0);
}

double GraphCostProfile::predicted_latency(std::size_t p, double k,
                                           double upload_bps,
                                           double download_bps) const {
  LP_CHECK(p <= n());
  LP_CHECK(k >= 1.0 && upload_bps > 0.0);
  if (p == n()) return prefix_f(p);
  double t = prefix_f(p) +
             static_cast<double>(s_[p]) * 8.0 / upload_bps +
             k * suffix_g(p);
  if (download_bps > 0.0)
    t += static_cast<double>(s_[n()]) * 8.0 / download_bps;
  return t;
}

double fused_edge_prediction(const graph::Graph& g,
                             const profile::NodePredictor& edge,
                             std::size_t begin, std::size_t end) {
  LP_CHECK(edge.device() == flops::Device::kEdge);
  double total = 0.0;
  for (const auto& group :
       graph::fuse_segment(g, std::max<std::size_t>(begin, 1), end)) {
    total += edge.predict_seconds(flops::config_of(g, group.anchor()));
  }
  return total;
}

}  // namespace lp::core

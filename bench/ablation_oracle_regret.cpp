// Ablation: regret against the per-condition oracle.
//
// For each (model, condition) an oracle sweeps every reachable partition
// point with the FixedPoint policy and picks the best *achieved* mean
// latency — the strongest static competitor possible. LoADPart's regret
// is how far above that its dynamic decisions land, including every real
// overhead the oracle does not pay (probing, k lag, cache misses).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/table.h"
#include "models/zoo.h"
#include "serve/experiment.h"

namespace {

using namespace lp;

struct Condition {
  const char* label;
  double bw_mbps;
  hw::LoadLevel level;
};

double run_mean(const graph::Graph& model,
                const core::PredictorBundle& bundle, core::Policy policy,
                std::size_t fixed_p, const Condition& cond) {
  serve::ExperimentConfig config;
  config.policy = policy;
  config.runtime.fixed_p = fixed_p;
  config.upload = net::BandwidthTrace::constant(mbps(cond.bw_mbps));
  config.load_schedule = {{0, cond.level}};
  config.duration = seconds(20);
  config.warmup = seconds(4);
  config.seed = 37;
  return serve::run_experiment(model, bundle, config).mean_latency_sec();
}

}  // namespace

int main() {
  const auto bundle = core::train_default_predictors();
  const Condition conditions[] = {
      {"8 Mbps / idle", 8, hw::LoadLevel::k0},
      {"8 Mbps / 100%(h)", 8, hw::LoadLevel::k100h},
      {"2 Mbps / idle", 2, hw::LoadLevel::k0},
      {"32 Mbps / 100%(h)", 32, hw::LoadLevel::k100h},
  };

  std::printf(
      "Oracle regret: LoADPart vs the best fixed partition point per "
      "condition (exhaustive FixedPoint sweep)\n\n");

  for (const char* name : {"alexnet", "squeezenet"}) {
    const auto model = models::make_model(name);
    std::printf("%s\n", name);
    Table table({"condition", "LoADPart(ms)", "oracle(ms)", "oracle p",
                 "regret"});
    for (const auto& cond : conditions) {
      const double lp_ms =
          run_mean(model, bundle, core::Policy::kLoadPart, 0, cond) * 1e3;

      double best_ms = std::numeric_limits<double>::infinity();
      std::size_t best_p = 0;
      // Sweep every cut whose transmission is not larger than the input
      // (the only candidates that can ever win; "available" points in the
      // paper's wording) plus local inference.
      const core::GraphCostProfile profile(model, bundle);
      for (std::size_t p = 0; p <= model.n(); ++p) {
        if (p < model.n() && profile.s(p) > profile.s(0)) continue;
        const double ms =
            run_mean(model, bundle, core::Policy::kFixedPoint, p, cond) *
            1e3;
        if (ms < best_ms) {
          best_ms = ms;
          best_p = p;
        }
      }
      table.add_row({cond.label, Table::num(lp_ms), Table::num(best_ms),
                     std::to_string(best_p),
                     Table::num((lp_ms / best_ms - 1.0) * 100.0, 1) + "%"});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Reading: single-digit regret means the light-weight O(n) decision "
      "with probed bandwidth and windowed k tracks the per-condition "
      "optimum closely; the residual is probing overhead and the k/"
      "bandwidth reaction lag.\n");
  return 0;
}

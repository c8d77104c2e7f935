// Shared helper for Figures 7 and 8: compare LoADPart against local
// inference and full offloading across fixed upload bandwidths.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "models/zoo.h"
#include "serve/experiment.h"

namespace lp::benchutil {

inline void run_bandwidth_comparison(const std::string& model_name,
                                     const char* figure,
                                     double paper_avg_vs_full,
                                     double paper_max_vs_full,
                                     double paper_avg_vs_local,
                                     double paper_max_vs_local) {
  const auto bundle = core::train_default_predictors();
  const auto model = models::make_model(model_name);
  const std::vector<double> bandwidths{1, 2, 4, 8, 16, 32, 64};

  std::printf(
      "%s: %s end-to-end latency — LoADPart vs local inference vs full "
      "offloading (idle server)\n\n",
      figure, model_name.c_str());

  Table table({"upload", "LoADPart(ms)", "p", "local(ms)", "full(ms)",
               "speedup vs local", "speedup vs full"});
  double sum_vs_full = 0.0, max_vs_full = 0.0;
  double sum_vs_local = 0.0, max_vs_local = 0.0;
  for (double bw : bandwidths) {
    auto run = [&](core::Policy policy) {
      serve::ExperimentConfig config;
      config.policy = policy;
      config.upload = net::BandwidthTrace::constant(mbps(bw));
      config.duration = seconds(40);
      config.warmup = seconds(8);
      config.seed = 11;
      return serve::run_experiment(model, bundle, config);
    };
    const auto lp_result = run(core::Policy::kLoadPart);
    const auto local = run(core::Policy::kLocalOnly);
    const auto full = run(core::Policy::kFullOffload);

    const double lp_ms = lp_result.mean_latency_sec() * 1e3;
    const double local_ms = local.mean_latency_sec() * 1e3;
    const double full_ms = full.mean_latency_sec() * 1e3;
    const double vs_local = local_ms / lp_ms;
    const double vs_full = full_ms / lp_ms;
    sum_vs_full += vs_full;
    max_vs_full = std::max(max_vs_full, vs_full);
    sum_vs_local += vs_local;
    max_vs_local = std::max(max_vs_local, vs_local);

    table.add_row({Table::num(bw, 0) + " Mbps", Table::num(lp_ms),
                   std::to_string(lp_result.modal_p()),
                   Table::num(local_ms), Table::num(full_ms),
                   Table::num(vs_local, 2) + "x",
                   Table::num(vs_full, 2) + "x"});
  }
  table.print();

  const auto n = static_cast<double>(bandwidths.size());
  std::printf(
      "\nSpeedup vs full offloading: %.2fx avg / %.2fx max "
      "(paper: %.2fx / %.2fx)\n",
      sum_vs_full / n, max_vs_full, paper_avg_vs_full, paper_max_vs_full);
  std::printf(
      "Speedup vs local inference: %.2fx avg / %.2fx max "
      "(paper: %.2fx / %.2fx)\n",
      sum_vs_local / n, max_vs_local, paper_avg_vs_local,
      paper_max_vs_local);
}

}  // namespace lp::benchutil

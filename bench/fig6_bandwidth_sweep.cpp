// Figure 6: LoADPart's end-to-end latency and chosen partition point for
// the six evaluation DNNs while the upload bandwidth follows the paper's
// sweep 8 -> 4 -> 2 -> 1 -> 2 -> 4 -> 8 -> 16 -> 32 -> 64 Mbps.
#include <cstdio>

#include <algorithm>
#include <map>

#include "common/table.h"
#include "series_report.h"
#include "models/zoo.h"
#include "serve/experiment.h"

int main() {
  using namespace lp;
  using serve::ExperimentConfig;

  const auto bundle = core::train_default_predictors();
  const DurationNs phase = seconds(30);
  const double sweep[] = {8, 4, 2, 1, 2, 4, 8, 16, 32, 64};

  std::printf(
      "Figure 6: LoADPart under the bandwidth sweep (idle server; one row "
      "per 20 s phase; p = modal partition point in the phase, n = local)\n\n");

  for (const auto& name : models::evaluation_names()) {
    const auto model = models::make_model(name);
    ExperimentConfig config;
    config.upload = net::BandwidthTrace::fig6_sweep(phase);
    config.duration = phase * 10;
    config.warmup = 0;
    config.seed = 7;
    const auto result = serve::run_experiment(model, bundle, config);
    benchutil::maybe_dump_series("fig6_" + name, result);

    std::printf("%s (n = %zu)\n", name.c_str(), model.n());
    Table table({"upload", "p (modal)", "decision", "mean(ms)", "max(ms)",
                 "inferences"});
    for (int ph = 0; ph < 10; ++ph) {
      const TimeNs begin = ph * phase;
      const TimeNs end = begin + phase;
      std::map<std::size_t, int> counts;
      double total = 0.0, worst = 0.0;
      int count = 0;
      for (const auto& r : result.records) {
        if (r.start < begin || r.start >= end) continue;
        ++counts[r.p];
        total += r.total_sec;
        worst = std::max(worst, r.total_sec);
        ++count;
      }
      if (count == 0) {
        table.add_row({Table::num(sweep[ph], 0) + " Mbps", "-",
                       "(inference in flight)", "-", "-", "0"});
        continue;
      }
      std::size_t modal = 0;
      int best = -1;
      for (const auto& [p, c] : counts)
        if (c > best) {
          best = c;
          modal = p;
        }
      const char* decision = modal == 0
                                 ? "full offload"
                                 : (modal == model.n() ? "local" : "partial");
      table.add_row({Table::num(sweep[ph], 0) + " Mbps",
                     std::to_string(modal), decision,
                     Table::num(total / count * 1e3),
                     Table::num(worst * 1e3), std::to_string(count)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper): AlexNet p=4/8 at high bandwidth -> 19 -> "
      "local at <=2 Mbps; SqueezeNet partial at 8-32 Mbps, local at 4, "
      "full at 64; VGG16 always full offload; ResNet18/50 and Xception "
      "local-or-full switching with bandwidth.\n");
  return 0;
}

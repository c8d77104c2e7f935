// Scenario: a mobile AR client streams SqueezeNet inferences over a flaky
// WiFi link. The bandwidth swings between 16 Mbps and 1 Mbps; LoADPart's
// runtime profiler tracks it and re-partitions on the fly. Prints a
// timeline of (bandwidth estimate, partition point, latency).
#include <cstdio>

#include "models/zoo.h"
#include "serve/experiment.h"

int main() {
  using namespace lp;

  const auto model = models::squeezenet();
  const auto bundle = core::train_default_predictors();

  serve::ExperimentConfig config;
  config.upload = net::BandwidthTrace({{0, mbps(16)},
                                       {seconds(20), mbps(4)},
                                       {seconds(40), mbps(1)},
                                       {seconds(60), mbps(16)}});
  config.duration = seconds(80);
  config.warmup = 0;
  config.request_gap = milliseconds(200);
  config.profiler_period = seconds(2);
  config.seed = 2;

  std::printf(
      "Adaptive offloading of SqueezeNet over a flaky link "
      "(16 -> 4 -> 1 -> 16 Mbps)\n\n"
      "   t(s)  est(Mbps)      p  decision       latency(ms)\n");

  const auto result = serve::run_experiment(model, bundle, config);
  TimeNs next_print = 0;
  for (const auto& r : result.records) {
    if (r.start < next_print) continue;
    next_print = r.start + seconds(4);
    const char* what = r.p == 0 ? "full offload"
                       : r.p == model.n() ? "local"
                                          : "partial";
    std::printf("%7.1f  %9.1f  %5zu  %-13s %10.1f\n",
                to_seconds(r.start), r.bandwidth_est_bps / 1e6, r.p, what,
                r.total_sec * 1e3);
  }

  std::printf(
      "\nExpected: partial offloading at 16 Mbps, shifting toward (or to) "
      "local inference as the link degrades, and back once it recovers.\n");
  return 0;
}

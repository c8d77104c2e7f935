// Scenario: an edge server shared with other tenants. Background GPU load
// ramps to saturation and back while a client runs AlexNet through
// LoADPart; shows the influential factor k rising, the partition point
// retreating toward the device, and the GPU watcher restoring offloading
// after the load clears (the Figure 9 story on one model).
#include <cstdio>

#include "models/zoo.h"
#include "serve/experiment.h"

int main() {
  using namespace lp;

  const auto model = models::alexnet();
  const auto bundle = core::train_default_predictors();

  serve::ExperimentConfig config;
  config.load_schedule = {{0, hw::LoadLevel::k0},
                          {seconds(25), hw::LoadLevel::k100h},
                          {seconds(70), hw::LoadLevel::k0}};
  config.duration = seconds(110);
  config.warmup = 0;
  config.request_gap = milliseconds(100);
  config.profiler_period = seconds(2);
  config.watcher_period = seconds(5);
  config.seed = 9;

  std::printf(
      "AlexNet on a shared edge server (idle -> saturated at 25 s -> idle "
      "at 70 s), 8 Mbps uplink\n\n"
      "   t(s)      k      p  latency(ms)\n");

  const auto result = serve::run_experiment(model, bundle, config);
  TimeNs next_print = 0;
  for (const auto& r : result.records) {
    if (r.start < next_print) continue;
    next_print = r.start + seconds(5);
    std::printf("%7.1f  %5.1f  %5zu  %10.1f\n", to_seconds(r.start),
                r.k_used, r.p, r.total_sec * 1e3);
  }

  std::printf(
      "\nExpected: k ~= 1 and an early cut while idle; k rises after 25 s "
      "and the cut moves toward the device; after 70 s the GPU watcher "
      "resets k and offloading resumes.\n");
  return 0;
}

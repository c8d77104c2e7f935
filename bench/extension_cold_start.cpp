// Extension: cold-start offloading (the IONN problem, Section VI).
//
// The paper assumes every model's parameters are pre-deployed on the edge
// server. Without that, the first request at a new partition point must
// ship the suffix's weights over the uplink first — which is why IONN
// exists. This bench quantifies the gap on our testbed.
#include <cstdio>

#include "common/table.h"
#include "models/zoo.h"
#include "serve/experiment.h"

int main() {
  using namespace lp;

  const auto bundle = core::train_default_predictors();

  std::printf(
      "Cold-start offloading at 8 Mbps: first request ships the suffix "
      "weights (IONN setting) vs pre-deployed weights (the paper's "
      "setting)\n\n");
  Table table({"model", "params(MB)", "first request cold(s)",
               "weights upload(s)", "steady(ms)", "requests to amortize"});
  for (const char* name : {"squeezenet", "resnet18", "alexnet"}) {
    const auto model = models::make_model(name);
    serve::ExperimentConfig config;
    config.duration = seconds(400);
    config.warmup = 0;
    config.seed = 13;
    config.runtime.weights_preloaded = false;
    const auto cold = serve::run_experiment(model, bundle, config);

    config.runtime.weights_preloaded = true;
    const auto warm = serve::run_experiment(model, bundle, config);

    const auto& first = cold.records.front();
    const double steady_ms = warm.mean_latency_sec() * 1e3;
    const double extra = first.total_sec - steady_ms / 1e3;
    table.add_row(
        {name,
         Table::num(static_cast<double>(model.parameter_bytes()) / 1e6, 1),
         Table::num(first.total_sec, 1),
         Table::num(first.weight_upload_sec, 1), Table::num(steady_ms),
         Table::num(extra / (steady_ms / 1e3), 0)});
  }
  table.print();
  std::printf(
      "\nReading: a 8 Mbps uplink needs ~1 s per MB of weights, so "
      "weight-heavy suffixes cost hundreds of steady-state inferences "
      "before offloading pays off — the pre-deployment assumption the "
      "paper makes, and the incremental-upload scheduling IONN adds when "
      "it cannot be made.\n");
  return 0;
}

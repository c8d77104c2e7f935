// Figure 2: end-to-end full-offload inference latency of AlexNet, VGG16 and
// ResNet101 under background GPU load 0..100%(l) and 100%(h), sampled every
// 15 ms — distribution summary (mean / p10 / p90 / max) per level.
#include <cstdio>

#include "common/table.h"
#include "series_report.h"
#include "models/zoo.h"
#include "serve/experiment.h"

int main() {
  using namespace lp;
  using serve::ExperimentConfig;

  const auto bundle = core::train_default_predictors();

  std::printf(
      "Figure 2: full-offload latency under background GPU load\n"
      "(8 Mbps link; requests every 15 ms; ~20 s per level)\n\n");

  for (const char* name : {"alexnet", "vgg16", "resnet101"}) {
    const auto model = models::make_model(name);
    std::printf("%s (input %s)\n", name,
                model.input_desc().shape.to_string().c_str());
    Table table({"load", "mean(ms)", "p10(ms)", "p90(ms)", "max(ms)",
                 "samples"});
    double idle_mean = 0.0;
    for (hw::LoadLevel level : hw::all_load_levels()) {
      ExperimentConfig config;
      config.policy = core::Policy::kFullOffload;
      config.load_schedule = {{0, level}};
      config.duration = seconds(20);
      config.warmup = seconds(4);
      config.seed = 2024;
      const auto result = serve::run_experiment(model, bundle, config);
      benchutil::maybe_dump_series(
          std::string("fig2_") + name + "_" +
              std::to_string(static_cast<int>(level)),
          result);
      const double mean = result.mean_latency_sec();
      if (level == hw::LoadLevel::k0) idle_mean = mean;
      table.add_row({hw::load_level_name(level), Table::num(mean * 1e3),
                     Table::num(result.percentile_latency_sec(10) * 1e3),
                     Table::num(result.percentile_latency_sec(90) * 1e3),
                     Table::num(result.max_latency_sec() * 1e3),
                     std::to_string(result.steady().size())});
    }
    table.print();
    std::printf("idle mean %.1f ms\n\n", idle_mean * 1e3);
  }
  std::printf(
      "Expected shape (paper): ~flat means below 50%%, inflation and heavy "
      "fluctuation at 90-100%%, and 100%%(h) well above 100%%(l).\n");
  return 0;
}

// Figure 9: end-to-end latency of the six evaluation DNNs while the server
// computation load ramps 0% -> 30 -> 50 -> 70 -> 90 -> 100%(l) -> 100%(h)
// and then drops back to idle, comparing LoADPart against the Neurosurgeon
// baseline (bandwidth-aware, load-oblivious) at a fixed 8 Mbps uplink.
//
// Emits BENCH_fig9.json through obs::Report (per-phase rows + headline
// scalars); the per-inference CSV series stay gated on LP_CSV_DIR.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/table.h"
#include "load_schedule.h"
#include "models/zoo.h"
#include "obs/report.h"
#include "series_report.h"
#include "serve/experiment.h"

namespace {

using namespace lp;

struct PhaseStats {
  double mean_ms = 0.0;
  double max_ms = 0.0;
  std::size_t modal_p = 0;
  int count = 0;
};

PhaseStats stats_in(const serve::ExperimentResult& result,
                    const benchutil::LoadPhaseSpan& ph) {
  PhaseStats out;
  std::map<std::size_t, int> counts;
  double total = 0.0;
  for (const auto& r : result.records) {
    if (r.start < ph.begin || r.start >= ph.end) continue;
    total += r.total_sec;
    out.max_ms = std::max(out.max_ms, r.total_sec * 1e3);
    ++counts[r.p];
    ++out.count;
  }
  if (out.count == 0) return out;
  out.mean_ms = total / out.count * 1e3;
  int best = -1;
  for (const auto& [p, c] : counts)
    if (c > best) {
      best = c;
      out.modal_p = p;
    }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bundle = core::train_default_predictors();
  obs::Report report("fig9_load_timeseries");
  auto& section = report.section(
      "phases", {"model", "phase", "loadpart_mean_ms", "loadpart_p",
                 "baseline_mean_ms", "baseline_p", "reduction"});

  std::printf(
      "Figure 9: latency under the server-load schedule "
      "(8 Mbps uplink, 280 s; baseline = Neurosurgeon)\n\n");

  double squeezenet_avg_reduction = 0.0, squeezenet_max_reduction = 0.0;
  double overall_reduction_sum = 0.0;
  int overall_reduction_count = 0;

  for (const auto& name : models::evaluation_names()) {
    const auto model = models::make_model(name);
    auto run = [&](core::Policy policy) {
      serve::ExperimentConfig config;
      config.policy = policy;
      config.load_schedule = benchutil::fig9_schedule();
      config.duration = benchutil::kFig9Duration;
      config.warmup = 0;
      config.seed = 31;
      return serve::run_experiment(model, bundle, config);
    };
    const auto lp_result = run(core::Policy::kLoadPart);
    const auto ns_result = run(core::Policy::kNeurosurgeon);
    benchutil::maybe_dump_series("fig9_" + name + "_loadpart", lp_result);
    benchutil::maybe_dump_series("fig9_" + name + "_baseline", ns_result);

    std::printf("%s (n = %zu)\n", name.c_str(), model.n());
    Table table({"load phase", "LoADPart mean(ms)", "p", "baseline mean(ms)",
                 "p", "reduction"});
    double lp_sum = 0.0, ns_sum = 0.0;
    double best_reduction = 0.0;
    int phase_count = 0;
    for (const auto& ph : benchutil::fig9_phases()) {
      const auto lp_stats = stats_in(lp_result, ph);
      const auto ns_stats = stats_in(ns_result, ph);
      std::string reduction = "-";
      double red = 0.0;
      if (lp_stats.count > 0 && ns_stats.count > 0) {
        red = 1.0 - lp_stats.mean_ms / ns_stats.mean_ms;
        reduction = Table::num(red * 100.0, 1) + "%";
        lp_sum += lp_stats.mean_ms;
        ns_sum += ns_stats.mean_ms;
        best_reduction = std::max(best_reduction, red);
        ++phase_count;
      }
      table.add_row({ph.label,
                     lp_stats.count ? Table::num(lp_stats.mean_ms) : "-",
                     lp_stats.count ? std::to_string(lp_stats.modal_p) : "-",
                     ns_stats.count ? Table::num(ns_stats.mean_ms) : "-",
                     ns_stats.count ? std::to_string(ns_stats.modal_p) : "-",
                     reduction});
      section.add_row({name, ph.label, lp_stats.mean_ms,
                       static_cast<std::size_t>(lp_stats.modal_p),
                       ns_stats.mean_ms,
                       static_cast<std::size_t>(ns_stats.modal_p), red});
    }
    table.print();
    const double avg_reduction =
        phase_count > 0 ? (1.0 - lp_sum / ns_sum) : 0.0;
    std::printf("average reduction %.1f%%, best phase %.1f%%\n\n",
                avg_reduction * 100.0, best_reduction * 100.0);
    report.set(name + "_avg_reduction", avg_reduction);
    report.set(name + "_best_reduction", best_reduction);
    if (name == "squeezenet") {
      squeezenet_avg_reduction = avg_reduction;
      squeezenet_max_reduction = best_reduction;
    }
    overall_reduction_sum += avg_reduction;
    ++overall_reduction_count;
  }

  std::printf(
      "SqueezeNet: %.1f%% average / %.1f%% best-phase reduction "
      "(paper: 14.2%% average, 32.3%% max)\n",
      squeezenet_avg_reduction * 100.0, squeezenet_max_reduction * 100.0);
  const double mean_reduction =
      overall_reduction_sum / overall_reduction_count;
  std::printf(
      "Mean reduction across the six DNNs: %.1f%% (several models are "
      "local-only or full-offload-only, matching the paper's flat "
      "curves)\n",
      mean_reduction * 100.0);
  report.set("mean_reduction", mean_reduction);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fig9.json";
  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  report.maybe_write_csv_env();
  return 0;
}

// Forecast-driven k ablation: the reactive default (last-value, exactly the
// paper's behavior) against every registered load forecaster, on two
// workloads where they can differ:
//
//   * fig9  — the paper's single-client SqueezeNet run under the Figure 9
//     server-load ramp (shared schedule: load_schedule.h). Load moves in
//     30-40 s regimes, so one-gap-ahead forecasts have visible structure.
//   * bursty — a fleet of LoADPart clients whose arrival processes are
//     Markov-modulated (calm <-> burst), producing load swings faster than
//     the clients' k-refresh period. A forecaster that extrapolates the
//     ramp sheds earlier and partitions more conservatively than reactive
//     k, which always acts on the load of the *previous* refresh.
//
// Each arm reports its latency profile plus the predictor's self-scored
// forecast MAE/bias. A determinism section re-runs the reactive arm twice
// (same seed) to show the record streams stay bit-identical. --smoke
// shrinks the runs for CI; the JSON (BENCH_predictor.json) carries the
// headline claim: at least one forecaster beats reactive k on bursty p90
// latency AND SLO-miss rate.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "load_schedule.h"
#include "models/zoo.h"
#include "obs/report.h"
#include "predict/load_predictor.h"
#include "serve/experiment.h"
#include "serve/fleet.h"

namespace {

using namespace lp;

std::string arm_label(const std::string& kind) {
  return kind == "last-value" ? "reactive (last-value)" : kind;
}

// ------------------------------------------------------------- fig9 --

struct Fig9Stats {
  double mean_ms = 0.0;
  double p90_ms = 0.0;
  double max_ms = 0.0;
  double mae = 0.0;
  double bias = 0.0;
  std::uint64_t scored = 0;
};

Fig9Stats run_fig9_arm(const core::PredictorBundle& bundle,
                       const std::string& kind, bool smoke) {
  static const graph::Graph model = models::make_model("squeezenet");
  serve::ExperimentConfig config;
  config.policy = core::Policy::kLoadPart;
  config.load_schedule = benchutil::fig9_schedule();
  config.duration = smoke ? seconds(90) : benchutil::kFig9Duration;
  config.warmup = seconds(1);
  config.seed = 31;
  config.runtime.predictor.kind = kind;
  const auto result = serve::run_experiment(model, bundle, config);
  Fig9Stats out;
  out.mean_ms = result.mean_latency_sec() * 1e3;
  out.p90_ms = result.percentile_latency_sec(90) * 1e3;
  out.max_ms = result.max_latency_sec() * 1e3;
  out.mae = result.predict_mae;
  out.bias = result.predict_bias;
  out.scored = result.predict_scored;
  return out;
}

// ------------------------------------------------------------ bursty --

struct BurstyStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double slo_miss_rate = 0.0;
  double shed_rate = 0.0;
  double mae = 0.0;
  double bias = 0.0;
  std::uint64_t scored = 0;
};

/// Markov-modulated fleet: every client flips between a calm state (mean
/// gap 50 ms) and a burst state (mean gap 3 ms) with sticky transition
/// probabilities, so the offered load swings on a multi-second timescale —
/// faster than the 2 s k-refresh the clients run, which is exactly the
/// regime where a forecast differs from the last published value.
serve::FleetConfig bursty_config(const std::string& kind, bool smoke) {
  serve::FleetConfig config;
  config.duration = smoke ? seconds(24) : seconds(90);
  config.warmup = smoke ? seconds(6) : seconds(15);
  config.seed = 11;
  config.profiler_period = seconds(2);
  config.frontend.policy = serve::QueuePolicy::kEdf;
  config.frontend.admission_control = true;
  config.frontend.delay_budget_sec = 0.5;
  config.runtime.predictor.kind = kind;
  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 32;
  spec.policy = core::Policy::kLoadPart;
  spec.upload = net::BandwidthTrace::constant(mbps(100));
  spec.download = net::BandwidthTrace::constant(mbps(100));
  spec.request_gap = milliseconds(50);
  spec.poisson_arrivals = true;
  spec.burst_gap = milliseconds(3);
  spec.burst_enter_prob = 0.01;  // calm lasts ~5 s of requests
  spec.burst_exit_prob = 0.002;  // bursts last ~1.5 s of requests
  spec.slo_sec = 0.325;
  config.tenants.push_back(spec);
  return config;
}

BurstyStats bursty_stats(const serve::FleetResult& result) {
  BurstyStats out;
  std::vector<double> ms;
  for (const auto* rec : result.steady()) ms.push_back(rec->total_sec * 1e3);
  if (!ms.empty()) {
    out.p50_ms = percentile(ms, 50);
    out.p90_ms = percentile(ms, 90);
  }
  const auto s = result.summarize();
  out.slo_miss_rate = s.slo_miss_rate;
  out.shed_rate = s.shed_rate;
  out.mae = result.frontend.predict_mae;
  out.bias = result.frontend.predict_bias;
  out.scored = result.frontend.predict_scored;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_predictor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[i];
  }

  const auto bundle = core::train_default_predictors();
  const auto kinds = predict::registered_predictors();
  obs::Report report("predictor_ablation");

  // --- Scenario A: the paper's load ramp, one client. -----------------
  std::printf(
      "Predictor ablation A: SqueezeNet under the Figure 9 load ramp "
      "(%s)\n\n",
      smoke ? "smoke: 90 s" : "280 s");
  auto& fig9_section = report.section(
      "fig9", {"predictor", "mean_ms", "p90_ms", "max_ms", "forecast_mae",
               "forecast_bias", "forecasts_scored"});
  Table fig9_table({"predictor", "mean(ms)", "p90(ms)", "max(ms)", "MAE",
                    "bias", "scored"});
  for (const auto& kind : kinds) {
    const Fig9Stats s = run_fig9_arm(bundle, kind, smoke);
    fig9_table.add_row({arm_label(kind), Table::num(s.mean_ms),
                        Table::num(s.p90_ms), Table::num(s.max_ms),
                        Table::num(s.mae, 3), Table::num(s.bias, 3),
                        std::to_string(s.scored)});
    fig9_section.add_row({arm_label(kind), s.mean_ms, s.p90_ms, s.max_ms,
                          s.mae, s.bias, s.scored});
  }
  fig9_table.print();
  std::printf("\n");

  // --- Scenario B: the bursty Markov-modulated fleet. -----------------
  std::printf(
      "Predictor ablation B: 32 LoADPart AlexNet clients, "
      "Markov-modulated arrivals (calm 50 ms <-> burst 3 ms), SLO 325 ms, "
      "EDF + admission (500 ms budget)\n\n");
  auto& bursty_section = report.section(
      "bursty", {"predictor", "p50_ms", "p90_ms", "slo_miss_rate",
                 "shed_rate", "forecast_mae", "forecast_bias",
                 "forecasts_scored"});
  Table bursty_table({"predictor", "p50(ms)", "p90(ms)", "SLO miss", "shed",
                      "MAE", "bias", "scored"});
  BurstyStats reactive;
  std::vector<std::pair<std::string, BurstyStats>> forecasters;
  for (const auto& kind : kinds) {
    const auto result = serve::run_fleet(bursty_config(kind, smoke), bundle);
    const BurstyStats s = bursty_stats(result);
    bursty_table.add_row(
        {arm_label(kind), Table::num(s.p50_ms), Table::num(s.p90_ms),
         Table::num(s.slo_miss_rate * 100.0, 1) + "%",
         Table::num(s.shed_rate * 100.0, 1) + "%", Table::num(s.mae, 3),
         Table::num(s.bias, 3), std::to_string(s.scored)});
    bursty_section.add_row({arm_label(kind), s.p50_ms, s.p90_ms,
                            s.slo_miss_rate, s.shed_rate, s.mae, s.bias,
                            s.scored});
    if (kind == "last-value")
      reactive = s;
    else
      forecasters.emplace_back(kind, s);
  }
  bursty_table.print();

  int p90_wins = 0, slo_wins = 0, both_wins = 0;
  std::string best_predictor = "none";
  double best_p90 = 0.0;
  for (const auto& [kind, s] : forecasters) {
    const bool p90_win = s.p90_ms < reactive.p90_ms;
    const bool slo_win = s.slo_miss_rate < reactive.slo_miss_rate;
    p90_wins += p90_win;
    slo_wins += slo_win;
    if (p90_win && slo_win) {
      ++both_wins;
      if (best_predictor == "none" || s.p90_ms < best_p90) {
        best_predictor = kind;
        best_p90 = s.p90_ms;
      }
    }
  }
  std::printf(
      "\nvs reactive: %d/%zu forecasters win p90, %d/%zu win SLO miss, "
      "%d win both (best: %s)\n\n",
      p90_wins, forecasters.size(), slo_wins, forecasters.size(), both_wins,
      best_predictor.c_str());

  // --- Determinism: the default arm re-run bit-identically. -----------
  const auto det_a =
      serve::run_fleet(bursty_config("last-value", true), bundle);
  const auto det_b =
      serve::run_fleet(bursty_config("last-value", true), bundle);
  const bool deterministic = det_a.clients == det_b.clients;
  std::printf("Determinism: reactive arm re-run with seed 11 -> %s\n",
              deterministic ? "bit-identical" : "DIVERGED");

  report.set("predictors", static_cast<std::int64_t>(kinds.size()));
  report.set("bursty_p90_wins", p90_wins);
  report.set("bursty_slo_wins", slo_wins);
  report.set("bursty_both_wins", both_wins);
  report.set("forecast_beats_reactive", both_wins > 0);
  report.set("best_predictor", best_predictor);
  report.set("reactive_p90_ms", reactive.p90_ms);
  report.set("reactive_slo_miss_rate", reactive.slo_miss_rate);
  report.set("deterministic", deterministic);
  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  report.maybe_write_csv_env();
  return 0;
}

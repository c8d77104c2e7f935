// Serving-layer claims: under overload, deadline-aware queueing plus
// admission control beats FIFO-without-admission on tail latency for the
// requests it serves, and suffix batching raises served throughput.
//
// Both comparisons hold the offered load fixed (same tenants, same arrival
// processes, same seeds) and vary only the frontend configuration. A final
// section re-runs one configuration twice to show the record streams are
// bit-identical given the seed.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/report.h"
#include "serve/fleet.h"

namespace {

using namespace lp;

void print_config_row(Table& table, obs::Report::Section& section,
                      const std::string& name,
                      const serve::FleetResult& result) {
  const auto s = result.summarize();
  const double steady_sec = to_seconds(result.duration - result.warmup);
  const double served_per_sec =
      static_cast<double>(s.admitted()) / steady_sec;
  table.add_row(
      {name, std::to_string(s.requests()), Table::num(s.admitted_p90_ms),
       Table::num(s.admitted_mean_ms), Table::num(s.p90_ms),
       Table::num(s.shed_rate * 100.0, 1) + "%",
       Table::num(s.slo_miss_rate * 100.0, 1) + "%",
       Table::num(served_per_sec, 1)});
  section.add_row({name, s.requests(), s.admitted_p90_ms, s.admitted_mean_ms,
                   s.p90_ms, s.shed_rate, s.slo_miss_rate, served_per_sec});
}

/// Overloaded fleet of load-oblivious clients: 32 AlexNet devices that keep
/// offloading no matter what (Neurosurgeon), so the offered load is the
/// same under every frontend policy.
serve::FleetConfig overload_config() {
  serve::FleetConfig config;
  config.duration = seconds(60);
  config.warmup = seconds(20);
  config.seed = 7;
  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 32;
  spec.policy = core::Policy::kNeurosurgeon;
  // Fast links so queueing (not transfer time) dominates the latency.
  spec.upload = net::BandwidthTrace::constant(mbps(100));
  spec.download = net::BandwidthTrace::constant(mbps(100));
  spec.request_gap = milliseconds(5);
  spec.poisson_arrivals = true;
  spec.slo_sec = 0.25;
  config.tenants.push_back(spec);
  return config;
}

void scheduling_comparison(const core::PredictorBundle& bundle,
                           obs::Report& report) {
  auto& section = report.section(
      "scheduling", {"frontend", "requests", "admitted_p90_ms",
                     "admitted_mean_ms", "p90_all_ms", "shed_rate",
                     "slo_miss_rate", "served_per_sec"});
  std::printf(
      "Overload scheduling: 32 load-oblivious AlexNet clients (Poisson "
      "arrivals, mean gap 5 ms, SLO 250 ms) vs frontend policy\n\n");
  Table table({"frontend", "requests", "admitted p90(ms)", "admitted mean",
               "p90 all(ms)", "shed", "SLO miss", "served/s"});

  {
    serve::FleetConfig config = overload_config();
    config.frontend.policy = serve::QueuePolicy::kFifo;
    config.frontend.admission_control = false;
    print_config_row(table, section, "FIFO, no admission",
                     serve::run_fleet(config, bundle));
  }
  {
    serve::FleetConfig config = overload_config();
    config.frontend.policy = serve::QueuePolicy::kEdf;
    config.frontend.admission_control = true;
    config.frontend.delay_budget_sec = 0.15;
    print_config_row(table, section, "EDF + admission (150 ms budget)",
                     serve::run_fleet(config, bundle));
  }
  {
    serve::FleetConfig config = overload_config();
    config.frontend.policy = serve::QueuePolicy::kSpjf;
    config.frontend.admission_control = true;
    config.frontend.delay_budget_sec = 0.15;
    print_config_row(table, section, "SPJF + admission (150 ms budget)",
                     serve::run_fleet(config, bundle));
  }
  table.print();
  std::printf(
      "Reading: FIFO without admission serves everything and lets the "
      "queue absorb the overload, so every admitted request pays the "
      "backlog. Admission sheds the excess at arrival (the shed requests "
      "degrade to on-device execution) and EDF orders what remains by "
      "deadline, cutting the admitted p90 severalfold at equal offered "
      "load.\n\n");
}

/// Homogeneous ResNet fleet pinned to one partition point so every suffix
/// job is batch-compatible; only the batching knobs vary.
serve::FleetConfig batching_config(std::size_t fixed_p) {
  serve::FleetConfig config;
  config.duration = seconds(60);
  config.warmup = seconds(20);
  config.seed = 21;
  config.runtime.fixed_p = fixed_p;
  serve::TenantSpec spec;
  spec.model = "resnet18";
  spec.clients = 16;
  spec.policy = core::Policy::kFixedPoint;
  spec.upload = net::BandwidthTrace::constant(mbps(100));
  spec.download = net::BandwidthTrace::constant(mbps(100));
  spec.request_gap = milliseconds(2);
  config.tenants.push_back(spec);
  return config;
}

void batching_comparison(const core::PredictorBundle& bundle,
                         obs::Report& report) {
  auto& section = report.section(
      "batching", {"frontend", "served_per_sec", "admitted_p90_ms",
                   "batched_share", "dispatches"});
  // Full offload (p = 0): every client streams the input frame and the GPU
  // runs the whole dispatch-dominated graph, so the GPU is the bottleneck
  // and coalescing identical suffixes is where the win is.
  const std::size_t fixed_p = 0;
  std::printf(
      "Suffix batching: 16 ResNet18 clients pinned at p = 0 (full "
      "offload, 100 Mbps links, request every 2 ms)\n\n");
  Table table({"frontend", "served/s", "admitted p90(ms)", "batched share",
               "dispatches"});
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
    serve::FleetConfig config = batching_config(fixed_p);
    config.frontend.max_batch = max_batch;
    config.frontend.batch_window =
        max_batch > 1 ? milliseconds(2) : DurationNs{0};
    const auto result = serve::run_fleet(config, bundle);
    const auto s = result.summarize();
    const double steady_sec = to_seconds(result.duration - result.warmup);
    const double batched_share =
        result.frontend.served > 0
            ? 100.0 * static_cast<double>(result.frontend.batched_jobs) /
                  static_cast<double>(result.frontend.served)
            : 0.0;
    const std::string label =
        max_batch == 1 ? std::string("no batching")
                       : "batch <= " + std::to_string(max_batch) + ", 2 ms";
    const double served_per_sec =
        static_cast<double>(s.admitted()) / steady_sec;
    table.add_row({label, Table::num(served_per_sec, 1),
                   Table::num(s.admitted_p90_ms),
                   Table::num(batched_share, 1) + "%",
                   std::to_string(result.frontend.dispatches)});
    section.add_row({label, served_per_sec, s.admitted_p90_ms,
                     batched_share / 100.0,
                     static_cast<std::size_t>(result.frontend.dispatches)});
  }
  table.print();
  std::printf(
      "Reading: each coalesced dispatch pays the per-op framework dispatch "
      "once for the whole batch, so the GPU serves several suffixes in "
      "little more than the time of one — served/s rises with the batch "
      "bound while the per-request latency also drops because the queue "
      "drains faster.\n\n");
}

void determinism_check(const core::PredictorBundle& bundle,
                       obs::Report& report) {
  serve::FleetConfig config = overload_config();
  config.frontend.policy = serve::QueuePolicy::kEdf;
  config.frontend.admission_control = true;
  config.duration = seconds(20);
  config.warmup = seconds(5);
  const auto a = serve::run_fleet(config, bundle);
  const auto b = serve::run_fleet(config, bundle);
  const bool identical = a.clients == b.clients;
  std::size_t records = 0;
  for (const serve::ClientTrace& trace : a.clients)
    records += trace.records.size();
  std::printf("Determinism: two runs with seed %llu -> %zu records, %s\n",
              static_cast<unsigned long long>(config.seed), records,
              identical ? "bit-identical" : "DIVERGED");
  report.set("determinism_records", records);
  report.set("deterministic", identical);
}

}  // namespace

int main(int argc, char** argv) {
  const auto bundle = core::train_default_predictors();
  lp::obs::Report report("fleet_scheduling");
  scheduling_comparison(bundle, report);
  batching_comparison(bundle, report);
  determinism_check(bundle, report);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fleet.json";
  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  report.maybe_write_csv_env();
  return 0;
}

// Ablations of LoADPart's runtime knobs (the design choices DESIGN.md
// calls out): the runtime-profiler period, the GPU-watcher period, the
// partition-cache capacity, and the k sliding-window size.
#include <algorithm>
#include <cstdio>

#include "common/table.h"
#include "models/zoo.h"
#include "serve/experiment.h"

namespace {

using namespace lp;
using serve::ExperimentConfig;

/// First time after `after` at which the chosen p left `from`.
double switch_time_sec(const serve::ExperimentResult& result, TimeNs after,
                       std::size_t from) {
  for (const auto& rec : result.records) {
    if (rec.start >= after && rec.p != from)
      return to_seconds(rec.start - after);
  }
  return -1.0;
}

}  // namespace

int main() {
  const auto bundle = core::train_default_predictors();

  // ------------------------------------------------------------------
  // 1. Runtime-profiler period: how fast the device notices a bandwidth
  //    collapse (8 -> 1 Mbps at t=30 s) and goes local. Shorter periods
  //    adapt faster but probe more.
  {
    std::printf(
        "Ablation 1: runtime-profiler period vs bandwidth adaptation "
        "(SqueezeNet, 8 -> 1 Mbps at t=30 s)\n\n");
    Table table({"period", "adapt lag(s)", "mean after drop(ms)"});
    const auto model = models::squeezenet();
    for (double period_s : {1.0, 2.0, 5.0, 10.0, 20.0}) {
      ExperimentConfig config;
      config.upload = net::BandwidthTrace(
          {{0, mbps(8)}, {seconds(30), mbps(1)}});
      config.duration = seconds(90);
      config.warmup = 0;
      config.profiler_period = seconds(period_s);
      config.seed = 21;
      const auto result = serve::run_experiment(model, bundle, config);
      double after_total = 0.0;
      int after_count = 0;
      std::size_t p_before = 0;
      for (const auto& rec : result.records) {
        if (rec.start < seconds(30)) {
          p_before = rec.p;
        } else if (rec.start > seconds(45)) {
          after_total += rec.total_sec;
          ++after_count;
        }
      }
      const double lag = switch_time_sec(result, seconds(30), p_before);
      table.add_row({Table::num(period_s, 0) + " s",
                     lag < 0 ? "-" : Table::num(lag, 1),
                     after_count ? Table::num(after_total / after_count * 1e3)
                                 : "-"});
    }
    table.print();
  }

  // ------------------------------------------------------------------
  // 2. GPU-watcher period: recovery lag after the server load vanishes
  //    while the device is inferring locally (the SqueezeNet Fig. 9
  //    recovery around 220 s).
  {
    std::printf(
        "\nAblation 2: GPU-watcher period vs offloading recovery "
        "(SqueezeNet, 100%%(h) until t=60 s, idle after)\n\n");
    Table table({"watcher period", "recovery lag(s)"});
    const auto model = models::squeezenet();
    for (double period_s : {2.0, 5.0, 10.0, 30.0}) {
      ExperimentConfig config;
      config.load_schedule = {{0, hw::LoadLevel::k100h},
                              {seconds(60), hw::LoadLevel::k0}};
      config.duration = seconds(160);
      config.warmup = 0;
      config.watcher_period = seconds(period_s);
      config.seed = 22;
      const auto result = serve::run_experiment(model, bundle, config);
      const double lag =
          switch_time_sec(result, seconds(60), model.n());
      table.add_row({Table::num(period_s, 0) + " s",
                     lag < 0 ? "never" : Table::num(lag, 1)});
    }
    table.print();
  }

  // ------------------------------------------------------------------
  // 3. Partition-cache capacity: a bandwidth square wave makes the
  //    decision alternate, so capacity 1 thrashes (re-partition on every
  //    flip) while a small LRU absorbs it.
  {
    std::printf(
        "\nAblation 3: partition-cache capacity under an alternating "
        "decision (AlexNet, 8 <-> 2 Mbps square wave)\n\n");
    Table table({"capacity", "overhead share", "device cache hit rate"});
    const auto model = models::alexnet();
    std::vector<net::BandwidthTrace::Step> wave;
    for (int i = 0; i < 12; ++i)
      wave.push_back({seconds(10) * i, i % 2 == 0 ? mbps(8) : mbps(2)});
    for (std::size_t capacity : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}, std::size_t{16}}) {
      ExperimentConfig config;
      config.upload = net::BandwidthTrace(wave);
      config.duration = seconds(120);
      config.warmup = 0;
      config.runtime.cache_capacity = capacity;
      config.seed = 23;
      const auto result = serve::run_experiment(model, bundle, config);
      double overhead = 0.0, total = 0.0;
      for (const auto& rec : result.records) {
        overhead += rec.overhead_sec;
        total += rec.total_sec;
      }
      table.add_row({std::to_string(capacity),
                     Table::num(overhead / total * 100.0, 2) + "%", "-"});
    }
    table.print();
  }

  // ------------------------------------------------------------------
  // 4. k window: small windows chase noise (decision flapping under
  //    fluctuating load), large windows react slowly.
  {
    std::printf(
        "\nAblation 4: k sliding-window size vs decision stability "
        "(AlexNet, load alternating 100%%(h) <-> 50%% every 20 s)\n\n");
    Table table({"k window", "p switches", "mean(ms)"});
    const auto model = models::alexnet();
    std::vector<serve::LoadPhase> schedule;
    for (int i = 0; i < 8; ++i)
      schedule.push_back({seconds(20) * i, i % 2 == 0
                                               ? hw::LoadLevel::k100h
                                               : hw::LoadLevel::k50});
    for (std::size_t window : {std::size_t{2}, std::size_t{8},
                               std::size_t{16}, std::size_t{64}}) {
      ExperimentConfig config;
      config.load_schedule = schedule;
      config.duration = seconds(160);
      config.warmup = seconds(10);
      config.runtime.k_window = window;
      config.seed = 24;
      const auto result = serve::run_experiment(model, bundle, config);
      int switches = 0;
      for (std::size_t i = 1; i < result.records.size(); ++i)
        if (result.records[i].p != result.records[i - 1].p) ++switches;
      table.add_row({std::to_string(window), std::to_string(switches),
                     Table::num(result.mean_latency_sec() * 1e3)});
    }
    table.print();
  }
  return 0;
}

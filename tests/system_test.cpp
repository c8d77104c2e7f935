#include "common/check.h"
#include <gtest/gtest.h>

#include <algorithm>

#include "core/baselines.h"
#include "models/zoo.h"
#include "serve/experiment.h"

namespace lp::core {
namespace {

using serve::ExperimentConfig;
using serve::ExperimentResult;
using serve::run_experiment;

const PredictorBundle& bundle() {
  static const PredictorBundle b = train_default_predictors(1234);
  return b;
}

TEST(Experiment, ProducesRecordsAndIsDeterministic) {
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.duration = seconds(10);
  config.seed = 3;
  const auto a = run_experiment(model, bundle(), config);
  const auto b = run_experiment(model, bundle(), config);
  ASSERT_FALSE(a.records.empty());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].total_sec, b.records[i].total_sec);
    EXPECT_EQ(a.records[i].p, b.records[i].p);
  }
}

TEST(Experiment, SeedChangesJitterNotDecision) {
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.duration = seconds(10);
  config.seed = 3;
  auto a = run_experiment(model, bundle(), config);
  config.seed = 4;
  auto b = run_experiment(model, bundle(), config);
  EXPECT_EQ(a.modal_p(), b.modal_p());
}

TEST(Experiment, LoadPartBeatsOrMatchesStaticPoliciesIdle) {
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.duration = seconds(15);
  auto make = [&](Policy policy) {
    ExperimentConfig c = config;
    c.policy = policy;
    return run_experiment(model, bundle(), c).mean_latency_sec();
  };
  const double lp = make(Policy::kLoadPart);
  const double local = make(Policy::kLocalOnly);
  const double full = make(Policy::kFullOffload);
  // Figure 1: partial offloading beats both extremes for AlexNet at 8 Mbps.
  EXPECT_LT(lp, local);
  EXPECT_LT(lp, full);
  // And by roughly the paper's margins (4x vs full, ~30% vs local).
  EXPECT_GT(full / lp, 2.0);
  EXPECT_GT(local / lp, 1.15);
}

TEST(Experiment, VGG16AlwaysFullOffloadEvenAt1Mbps) {
  // Section V-B: the device is so slow for VGG16 that every bandwidth in
  // the sweep keeps the whole network on the server.
  const auto model = models::vgg16();
  for (double bw : {1.0, 8.0, 64.0}) {
    ExperimentConfig config;
    config.upload = net::BandwidthTrace::constant(mbps(bw));
    config.duration = seconds(40);
    config.warmup = seconds(8);
    const auto result = run_experiment(model, bundle(), config);
    EXPECT_EQ(result.modal_p(), 0u) << bw << " Mbps";
  }
}

TEST(Experiment, ResNet18LocalAt8Mbps) {
  // Section V-B/V-C: ResNet18 stays local at 8 Mbps.
  const auto model = models::resnet18();
  ExperimentConfig config;
  config.duration = seconds(30);
  config.warmup = seconds(5);
  const auto result = run_experiment(model, bundle(), config);
  EXPECT_EQ(result.modal_p(), model.n());
}

TEST(Experiment, HeavyLoadInflatesFullOffloadLatency) {
  // Figure 2's effect, end to end: a 100%(h) server slows full offloading
  // well beyond idle, and fluctuation (max/mean) grows.
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.policy = Policy::kFullOffload;
  config.duration = seconds(25);
  config.warmup = seconds(5);
  const auto idle = run_experiment(model, bundle(), config);
  config.load_schedule = {{0, hw::LoadLevel::k100h}};
  const auto heavy = run_experiment(model, bundle(), config);
  EXPECT_GT(heavy.mean_latency_sec(), idle.mean_latency_sec() * 1.05);
  // Fluctuation: the server-side (queueing) component spreads out far more
  // than jitter alone explains.
  auto server_spread = [](const ExperimentResult& r) {
    double lo = 1e18, hi = 0.0;
    for (const auto* rec : r.steady()) {
      lo = std::min(lo, rec->server_sec);
      hi = std::max(hi, rec->server_sec);
    }
    return hi - lo;
  };
  EXPECT_GT(server_spread(heavy), 4.0 * server_spread(idle));
}

TEST(Experiment, ModerateLoadBarelyHurts) {
  // Below 50% utilization the mean barely moves (Figure 2).
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.policy = Policy::kFullOffload;
  config.duration = seconds(25);
  config.warmup = seconds(5);
  const auto idle = run_experiment(model, bundle(), config);
  config.load_schedule = {{0, hw::LoadLevel::k30}};
  const auto light = run_experiment(model, bundle(), config);
  EXPECT_LT(light.mean_latency_sec(), idle.mean_latency_sec() * 1.15);
}

TEST(Experiment, BandwidthSweepMovesPartitionPoint) {
  // Figure 6 for AlexNet: high bandwidth -> early p; starvation -> local.
  const auto model = models::alexnet();
  auto modal_at = [&](double bw) {
    ExperimentConfig config;
    config.upload = net::BandwidthTrace::constant(mbps(bw));
    config.duration = seconds(30);
    config.warmup = seconds(8);
    return run_experiment(model, bundle(), config).modal_p();
  };
  const auto p64 = modal_at(64.0);
  const auto p8 = modal_at(8.0);
  const auto p1 = modal_at(1.0);
  EXPECT_LE(p64, p8);
  EXPECT_LE(p8, p1);
  EXPECT_EQ(p1, model.n());   // 1 Mbps: local (p=27 in the paper)
  EXPECT_LT(p64, model.n());  // 64 Mbps: offloads
}

TEST(ExperimentResult, SteadyFallsBackWhenWarmupSwallowsEverything) {
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.duration = seconds(5);
  config.warmup = seconds(60);  // longer than the run
  const auto result = run_experiment(model, bundle(), config);
  EXPECT_FALSE(result.steady().empty());
  EXPECT_GT(result.mean_latency_sec(), 0.0);
}

TEST(Experiment, LoadScheduleSwitchesDuringRun) {
  // The schedule driver applies phases at their timestamps; the recorded
  // latency series shows the idle -> loaded step.
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.policy = Policy::kFullOffload;
  config.load_schedule = {{0, hw::LoadLevel::k0},
                          {seconds(12), hw::LoadLevel::k100h}};
  config.duration = seconds(24);
  config.warmup = 0;
  const auto result = run_experiment(model, bundle(), config);
  double early = 0.0, late = 0.0;
  int early_n = 0, late_n = 0;
  for (const auto& rec : result.records) {
    if (rec.start < seconds(10)) {
      early += rec.server_sec;
      ++early_n;
    } else if (rec.start > seconds(15)) {
      late += rec.server_sec;
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 0);
  ASSERT_GT(late_n, 0);
  EXPECT_GT(late / late_n, 2.0 * early / early_n);
}

TEST(ExperimentResult, SummaryHelpers) {
  const auto model = models::alexnet();
  ExperimentConfig config;
  config.duration = seconds(10);
  const auto result = run_experiment(model, bundle(), config);
  EXPECT_GT(result.mean_latency_sec(), 0.0);
  EXPECT_GE(result.max_latency_sec(), result.mean_latency_sec());
  EXPECT_GE(result.percentile_latency_sec(90),
            result.percentile_latency_sec(10));
}

TEST(Baselines, BreakdownRowsConsistent) {
  const auto model = models::alexnet();
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  const auto rows = latency_breakdown(model, cpu, gpu, mbps(8), mbps(8));
  ASSERT_EQ(rows.size(), model.n() + 1);
  // p = n row is pure device time == local latency.
  EXPECT_NEAR(rows.back().total_sec, local_latency_sec(model, cpu), 1e-9);
  EXPECT_EQ(rows.back().upload_sec, 0.0);
  // p = 0 row equals the full-offload closed form.
  EXPECT_NEAR(rows.front().total_sec,
              full_offload_latency_sec(model, gpu, mbps(8), mbps(8)), 1e-9);
  // Device time is non-decreasing in p.
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GE(rows[i].device_sec, rows[i - 1].device_sec);
}

TEST(Baselines, Figure1ShapeForAlexNet) {
  // The Fig. 1 narrative: best cut is right after MaxPool-2 (p=8), ~4x
  // better than full offloading and tangibly better than local.
  const auto model = models::alexnet();
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  const auto rows = latency_breakdown(model, cpu, gpu, mbps(8), mbps(8));
  std::size_t best = 0;
  for (std::size_t p = 0; p < rows.size(); ++p)
    if (rows[p].total_sec < rows[best].total_sec) best = p;
  EXPECT_TRUE(best == 4 || best == 8) << "best=" << best;
  // The paper reports "up to 4x" vs full offloading; with our calibrated
  // device the transmission floor caps it around 2-2.5x (EXPERIMENTS.md).
  EXPECT_GT(rows.front().total_sec / rows[best].total_sec, 2.0);
  EXPECT_GT(rows.back().total_sec / rows[best].total_sec, 1.2);
}

}  // namespace
}  // namespace lp::core

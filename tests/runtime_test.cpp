#include "common/check.h"
#include <gtest/gtest.h>

#include "core/load_factor.h"
#include "core/offload_runtime.h"
#include "graph/cut.h"
#include "hw/load_generator.h"
#include "serve/frontend.h"

#include "models/zoo.h"
#include "partition/partitioner.h"
#include "support/hw_reference.h"

namespace lp::core {
namespace {

const PredictorBundle& bundle() {
  static const PredictorBundle b = train_default_predictors(1234);
  return b;
}

TEST(LoadFactorTracker, StartsAtOneAndClamps) {
  LoadFactorTracker k(4);
  EXPECT_DOUBLE_EQ(k.k(), 1.0);
  k.record(0.5, 1.0, false, 0);  // measured faster than predicted
  EXPECT_DOUBLE_EQ(k.k(), 1.0);  // clamped to >= 1 (constraint 1c)
  k.record(6.0, 1.0, false, 0);
  EXPECT_GT(k.k(), 1.0);
}

TEST(LoadFactorTracker, AveragesRecentWindow) {
  LoadFactorTracker k(2);
  k.record(10.0, 1.0, false, 0);
  k.record(2.0, 1.0, false, 0);
  EXPECT_DOUBLE_EQ(k.k(), 6.0);
  k.record(2.0, 1.0, false, 0);  // evicts the 10x record
  EXPECT_DOUBLE_EQ(k.k(), 2.0);
}

TEST(LoadFactorTracker, ResetIdleForgetsContendedHistory) {
  LoadFactorTracker k(4);
  k.record(50.0, 1.0, /*contended=*/true, 0);
  EXPECT_GT(k.k(), 10.0);
  // No idle measurement exists yet: the baseline is 1 (cold start).
  EXPECT_DOUBLE_EQ(k.idle_baseline(), 1.0);
  k.reset_idle(0);
  EXPECT_DOUBLE_EQ(k.k(), 1.0);
}

TEST(LoadFactorTracker, IdleBaselineAbsorbsModelBias) {
  // Uncontended executions calibrate the baseline: the watcher reset
  // returns k to the prediction-bias floor, not to literal 1.
  LoadFactorTracker k(4);
  k.record(9.0, 1.0, /*contended=*/false, 0);
  k.record(11.0, 1.0, /*contended=*/false, 0);
  k.record(80.0, 1.0, /*contended=*/true, 0);  // load spike
  EXPECT_GT(k.k(), 20.0);
  EXPECT_DOUBLE_EQ(k.idle_baseline(), 10.0);
  k.reset_idle(0);
  EXPECT_DOUBLE_EQ(k.k(), 10.0);
}

TEST(LoadFactorTracker, ColdStartUnderLoadRecovers) {
  // Only contended measurements so far; reset hands back k = 1, which
  // makes the device probe the server once and recalibrate.
  LoadFactorTracker k(8);
  for (int i = 0; i < 8; ++i) k.record(60.0, 1.0, /*contended=*/true, 0);
  k.reset_idle(0);
  EXPECT_DOUBLE_EQ(k.k(), 1.0);
  k.record(9.5, 1.0, /*contended=*/false, 0);
  EXPECT_DOUBLE_EQ(k.idle_baseline(), 9.5);
}

TEST(LoadFactorTracker, RejectsNonPositivePrediction) {
  LoadFactorTracker k(4);
  EXPECT_THROW(k.record(1.0, 0.0, false, 0), ContractError);
}

TEST(LoadFactorTracker, DropsNonPositiveMeasurements) {
  LoadFactorTracker k(4);
  k.record(2.0, 1.0, false, 0);
  const double before = k.k();
  // Carries no load information; must not drag k down.
  k.record(0.0, 1.0, false, 0);
  EXPECT_DOUBLE_EQ(k.k(), before);
  EXPECT_EQ(k.window_size(), 1u);
  EXPECT_EQ(k.records(), 1u);
}

TEST(LoadFactorTracker, LastValueForecastIsKAfterEveryMutation) {
  // The reactive equivalence holds by construction: under the default
  // forecaster, the published forecast is k bit for bit at any horizon.
  LoadFactorTracker k(4);
  auto expect_forecast_is_k = [&] {
    for (DurationNs horizon : {DurationNs{0}, seconds(1)})
      EXPECT_EQ(k.signal(horizon).k_forecast, k.k());
  };
  k.record(0.031, 0.01, /*contended=*/true, milliseconds(10));
  expect_forecast_is_k();
  k.record(0.0, 0.01, false, milliseconds(20));  // dropped, still observed
  EXPECT_EQ(k.predictor().samples(), 2u);
  expect_forecast_is_k();
  k.record(0.017, 0.01, false, milliseconds(30));
  k.reset_idle(milliseconds(40));
  EXPECT_EQ(k.predictor().last_observed(), milliseconds(40));
  expect_forecast_is_k();
  EXPECT_EQ(milliseconds(50) - k.predictor().last_observed(), milliseconds(10));
  k.reset();
  expect_forecast_is_k();
}

TEST(LoadFactorTracker, ResetEqualsAFreshTracker) {
  predict::PredictorParams holt;
  holt.kind = "holt";
  LoadFactorTracker k(4, holt);
  for (int i = 1; i <= 6; ++i)
    k.record(0.01 * i, 0.01, i % 2 == 0, milliseconds(10 * i));
  k.reset_idle(milliseconds(70));
  k.reset();
  const LoadFactorTracker fresh(4, holt);
  EXPECT_TRUE(k == fresh);
  EXPECT_EQ(k.predictor().confidence(), 0.0);
}

TEST(LoadFactorTracker, EwmaForecastLagsAStep) {
  predict::PredictorParams ewma;
  ewma.kind = "ewma";
  LoadFactorTracker k(4, ewma);
  k.record(0.01, 0.01, false, milliseconds(10));
  EXPECT_EQ(k.signal(0).k_forecast, k.k());
  k.record(0.05, 0.01, true, milliseconds(20));  // k steps up
  const LoadSignal sig = k.signal(seconds(1));
  EXPECT_NE(sig.k_forecast, k.k());
  EXPECT_LT(sig.k_forecast, k.k());
  EXPECT_GE(sig.k_forecast, 1.0);
}

struct Harness {
  sim::Simulator sim;
  hw::CpuModel cpu;
  hw::GpuModel gpu;
  hw::GpuScheduler scheduler{sim};
  hw::LoadGenerator load{sim, scheduler, gpu, 91};
  net::Link link{sim, net::BandwidthTrace::constant(mbps(8)),
                 net::BandwidthTrace::constant(mbps(8)), milliseconds(2),
                 19};
  graph::Graph model;
  GraphCostProfile profile;
  /// The paper's server: one session behind a FIFO queue with batch 1.
  serve::EdgeServerFrontend server;
  std::uint64_t session;
  OffloadClient client;

  explicit Harness(const std::string& name,
                   Policy policy = Policy::kLoadPart,
                   RuntimeParams params = {})
      : model(models::make_model(name)),
        profile(model, bundle()),
        server(sim, scheduler, gpu, serve::FrontendParams{}, params, 5),
        session(server.open_session(profile)),
        client(sim, cpu, profile, link, server, policy, params, 6, session) {}

  const partition::PartitionCache& server_cache() const {
    return server.session_cache(session);
  }
  const LoadFactorTracker& server_k() const {
    return server.session_tracker(session);
  }
};

sim::Task run_inferences(OffloadClient& client, int count,
                         std::vector<InferenceRecord>& out) {
  for (int i = 0; i < count; ++i) {
    InferenceRecord rec;
    co_await client.infer(&rec);
    out.push_back(rec);
  }
}

TEST(OffloadRuntime, AlexNetIdleServerPicksMidCutAt8Mbps) {
  Harness h("alexnet");
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 5, records));
  h.sim.run_until(seconds(30));
  ASSERT_EQ(records.size(), 5u);
  // Figure 1 / Figure 6: at 8 Mbps and no load, AlexNet partitions in the
  // pool region (p = 4 or 8), not local, not full offload.
  const auto p = records.back().p;
  EXPECT_GT(p, 0u);
  EXPECT_LT(p, h.model.n());
  EXPECT_TRUE(p == 4 || p == 8) << "p=" << p;
}

TEST(OffloadRuntime, RecordBreakdownSumsToTotal) {
  Harness h("alexnet");
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 3, records));
  h.sim.run_until(seconds(30));
  for (const auto& r : records) {
    const double parts = r.device_sec + r.upload_sec + r.server_sec +
                         r.download_sec + r.overhead_sec +
                         r.weight_upload_sec;
    EXPECT_NEAR(r.total_sec, parts, 1e-6);
  }
}

TEST(OffloadRuntime, CacheAmortizesPartitionOverhead) {
  Harness h("squeezenet");
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 10, records));
  h.sim.run_until(seconds(60));
  ASSERT_GE(records.size(), 10u);
  EXPECT_GT(records.front().overhead_sec, 0.0);
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_DOUBLE_EQ(records[i].overhead_sec, 0.0) << i;
  EXPECT_GT(h.client.cache().hits(), 0u);
}

TEST(OffloadRuntime, OneRequestCountsOneCacheLookupPerSide) {
  // Each side looks its cut up once per request, so a cold request is one
  // miss and no hit on the device and on the server alike.
  Harness h("alexnet");
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 1, records));
  h.sim.run_until(seconds(30));
  ASSERT_EQ(records.size(), 1u);
  ASSERT_LT(records[0].p, h.model.n());  // the suffix ran on the server
  EXPECT_EQ(h.client.cache().hits(), 0u);
  EXPECT_EQ(h.client.cache().misses(), 1u);
  EXPECT_EQ(h.server_cache().hits(), 0u);
  EXPECT_EQ(h.server_cache().misses(), 1u);
  // Both caches now hold the cut the request used.
  const std::vector<std::size_t> cut{records[0].p};
  EXPECT_EQ(h.client.cache().lru_keys(), cut);
  EXPECT_EQ(h.server_cache().lru_keys(), cut);
}

TEST(GraphCostProfile, PricesEveryCutLikeTheSegmentsPartitionAtBuilds) {
  // The runtime never builds a partition: a cache miss prepares the node
  // count the profile precomputed, and an upload ships s(p). Both must
  // match the plan partition_at would have built, at every cut. The
  // device time of each side must equal hw::CpuModel::segment_time.
  for (const std::string& name : models::evaluation_names()) {
    SCOPED_TRACE(name);
    const graph::Graph g = models::make_model(name);
    const GraphCostProfile profile(g, bundle());
    for (std::size_t p = 0; p <= g.n(); ++p) {
      SCOPED_TRACE("p=" + std::to_string(p));
      const partition::PartitionPlan plan = partition::partition_at(g, p);
      EXPECT_EQ(preparation(profile, p, Side::kDevice).nodes,
                plan.device_part ? plan.device_part->backbone().size() : 0);
      EXPECT_EQ(preparation(profile, p, Side::kServer).nodes,
                plan.server_part ? plan.server_part->backbone().size() : 0);
      if (p < g.n()) {
        EXPECT_EQ(profile.s(p), plan.boundary_bytes);
      }
      test::expect_device_times_match(g, profile, p);
    }
    EXPECT_THROW(preparation(profile, g.n() + 1, Side::kDevice), ContractError);
  }
}

TEST(GraphCostProfile, SuffixKernelsMatchTheGpuModelAtEveryCutAndBatch) {
  // Both servers build every dispatch from the profile's kernel table; it
  // must give the kernels and jitter draws the GPU model gives layer by
  // layer, unbatched and coalesced, with and without a straggle window.
  for (const std::string& name : models::evaluation_names()) {
    SCOPED_TRACE(name);
    const graph::Graph g = models::make_model(name);
    const GraphCostProfile profile(g, bundle());
    for (std::size_t p = 0; p < g.n(); ++p) {
      SCOPED_TRACE("p=" + std::to_string(p));
      test::expect_suffix_kernels_match(g, profile, p);
    }
    Rng rng(1);
    EXPECT_THROW(suffix_kernels(hw::GpuModel{}, profile, g.n(), 1, 1.0, rng),
                 ContractError);
  }
}

TEST(OffloadRuntime, LocalPolicyNeverTouchesNetworkOrGpu) {
  Harness h("alexnet", Policy::kLocalOnly);
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 3, records));
  h.sim.run_until(seconds(30));
  for (const auto& r : records) {
    EXPECT_EQ(r.p, h.model.n());
    EXPECT_EQ(r.upload_sec, 0.0);
    EXPECT_EQ(r.server_sec, 0.0);
  }
  EXPECT_EQ(h.scheduler.completed_jobs(), 0u);
}

TEST(OffloadRuntime, FullOffloadUploadsWholeInput) {
  Harness h("alexnet", Policy::kFullOffload);
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 2, records));
  h.sim.run_until(seconds(30));
  for (const auto& r : records) {
    EXPECT_EQ(r.p, 0u);
    EXPECT_EQ(r.device_sec, 0.0);
    // 588 KB at 8 Mbps is ~0.6 s.
    EXPECT_NEAR(r.upload_sec, 0.6, 0.15);
  }
}

TEST(OffloadRuntime, UploadShipsTheProfilesCutSizePlusHeader) {
  // The client sizes an upload from the profile: s(p) bytes of boundary
  // tensors plus the header, also at a cut inside a SqueezeNet fire module
  // where several tensors cross.
  const graph::Graph g = models::make_model("squeezenet");
  std::size_t interior = 1;
  while (interior < g.n() && !graph::cut_inside_block(g, interior))
    ++interior;
  ASSERT_LT(interior, g.n());
  RuntimeParams params;
  params.fixed_p = interior;
  Harness h("squeezenet", Policy::kFixedPoint, params);
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 2, records));
  h.sim.run_until(seconds(30));
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    EXPECT_EQ(r.p, interior);
    EXPECT_EQ(r.upload_bytes, h.profile.s(interior) + kHeaderBytes);
  }
}

TEST(OffloadRuntime, ServerKRisesUnderLoadAndProfilerDeliversIt) {
  Harness h("alexnet", Policy::kFullOffload);
  h.load.set_level(hw::LoadLevel::k100h);
  h.load.start();
  h.client.start_runtime_profiler(seconds(1));
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 40, records));
  h.sim.run_until(seconds(60));
  EXPECT_GT(h.server_k().k(), 2.0);
  EXPECT_GT(h.client.cached_k(), 2.0);  // fetched by the profiler
}

TEST(OffloadRuntime, GpuWatcherResetsKWhenLoadVanishes) {
  Harness h("alexnet", Policy::kFullOffload);
  h.server.start_gpu_watcher(seconds(10));
  h.load.start();  // starts at 0%: calibrates the idle baseline
  std::vector<InferenceRecord> warm;
  h.sim.spawn(run_inferences(h.client, 60, warm));
  h.sim.run_until(seconds(20));
  const double idle_k = h.server_k().k();
  h.load.set_level(hw::LoadLevel::k100h);
  h.sim.run_until(seconds(50));
  const double loaded_k = h.server_k().k();
  ASSERT_GT(loaded_k, idle_k * 1.5);
  // Load disappears; no more foreground inferences update k, but the
  // watcher notices utilization < 90% and resets it toward the idle
  // baseline (Section IV).
  h.load.set_level(hw::LoadLevel::k0);
  h.sim.run_for(seconds(25));
  EXPECT_LT(h.server_k().k(), loaded_k * 0.6);
  EXPECT_LE(h.server_k().k(), h.server_k().idle_baseline() + 1e-9);
}

TEST(OffloadRuntime, EstimatorTracksBandwidthCollapse) {
  // Failure injection: the link drops from 8 Mbps to 0.5 Mbps mid-run; the
  // probing profiler must converge to the new bandwidth.
  sim::Simulator sim;
  hw::CpuModel cpu;
  hw::GpuModel gpu;
  hw::GpuScheduler scheduler(sim);
  net::Link link(sim,
                 net::BandwidthTrace({{0, mbps(8)},
                                      {seconds(30), mbps(0.5)}}),
                 net::BandwidthTrace::constant(mbps(8)), milliseconds(2),
                 19);
  const auto model = models::alexnet();
  const GraphCostProfile profile(model, bundle());
  RuntimeParams params;
  serve::EdgeServerFrontend server(sim, scheduler, gpu,
                                   serve::FrontendParams{}, params, 5);
  OffloadClient client(sim, cpu, profile, link, server, Policy::kLoadPart,
                       params, 6, server.open_session(profile));
  client.start_runtime_profiler(seconds(2));
  sim.run_until(seconds(70));
  EXPECT_NEAR(client.estimator().estimate(), mbps(0.5), mbps(0.15));
  // With a collapsed link, the decision moves to local inference.
  EXPECT_EQ(client.current_decision().p, model.n());
}

TEST(OffloadRuntime, NeurosurgeonIgnoresK) {
  RuntimeParams params;
  Harness lp_h("alexnet", Policy::kLoadPart, params);
  Harness ns_h("alexnet", Policy::kNeurosurgeon, params);
  // Force a high cached k via a loaded server.
  for (auto* h : {&lp_h, &ns_h}) {
    h->load.set_level(hw::LoadLevel::k100h);
    h->load.start();
    h->client.start_runtime_profiler(seconds(1));
    std::vector<InferenceRecord> recs;
    h->sim.spawn(run_inferences(h->client, 30, recs));
    h->sim.run_until(seconds(60));
  }
  // Same conditions: LoADPart's decision moved at least as far toward the
  // device as Neurosurgeon's (which still assumes an idle server).
  EXPECT_GE(lp_h.client.current_decision().p,
            ns_h.client.current_decision().p);
  EXPECT_GT(lp_h.client.cached_k(), 1.5);
}

TEST(OffloadRuntime, ColdStartShipsWeightsOnceApiece) {
  RuntimeParams params;
  params.weights_preloaded = false;
  Harness h("squeezenet", Policy::kFullOffload, params);
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 4, records));
  h.sim.run_until(seconds(60));
  ASSERT_GE(records.size(), 4u);
  // First request pays the full parameter upload (~5 MB at 8 Mbps ~ 5 s);
  // later requests at the same p ship nothing.
  EXPECT_GT(records.front().weight_upload_sec, 2.0);
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_DOUBLE_EQ(records[i].weight_upload_sec, 0.0) << i;
  // Total shipped weight bytes equal the model's parameter bytes.
  EXPECT_GE(records.front().upload_bytes, h.model.parameter_bytes());
}

TEST(OffloadRuntime, PreloadedWeightsNeverShip) {
  Harness h("squeezenet", Policy::kFullOffload);
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 3, records));
  h.sim.run_until(seconds(30));
  for (const auto& r : records)
    EXPECT_DOUBLE_EQ(r.weight_upload_sec, 0.0);
}

TEST(OffloadRuntime, ConcurrentInferCallsSerializeOnTheDevice) {
  // Two overlapping infer() calls on one client must not interleave their
  // device execution: the second runs after the first completes.
  Harness h("alexnet", Policy::kLocalOnly);
  InferenceRecord a, b;
  auto one = [](OffloadClient& c, InferenceRecord& out) -> sim::Task {
    co_await c.infer(&out);
  };
  h.sim.spawn(one(h.client, a));
  h.sim.spawn(one(h.client, b));
  h.sim.run_until(seconds(30));
  ASSERT_GT(a.total_sec, 0.0);
  ASSERT_GT(b.total_sec, 0.0);
  // Second inference started no earlier than the first one finished.
  EXPECT_GE(b.start, a.start + seconds(a.total_sec));
}

TEST(OffloadRuntime, FixedPointPolicyHoldsItsCut) {
  RuntimeParams params;
  params.fixed_p = 19;
  Harness h("alexnet", Policy::kFixedPoint, params);
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 4, records));
  h.sim.run_until(seconds(30));
  ASSERT_EQ(records.size(), 4u);
  for (const auto& r : records) EXPECT_EQ(r.p, 19u);
}

TEST(OffloadRuntime, FixedPointClampsToLocal) {
  RuntimeParams params;
  params.fixed_p = 9999;
  Harness h("alexnet", Policy::kFixedPoint, params);
  EXPECT_EQ(h.client.current_decision().p, h.model.n());
}

TEST(OffloadRuntime, StaleKWithoutProfilerBehavesLikeNeurosurgeon) {
  // Failure injection: the runtime profiler never runs (k reports lost).
  // The client's cached k stays at 1 and its decisions match the
  // load-oblivious baseline even under 100%(h).
  Harness lp_h("alexnet", Policy::kLoadPart);
  Harness ns_h("alexnet", Policy::kNeurosurgeon);
  for (auto* h : {&lp_h, &ns_h}) {
    h->load.set_level(hw::LoadLevel::k100h);
    h->load.start();
    // Note: no start_runtime_profiler().
    std::vector<InferenceRecord> recs;
    h->sim.spawn(run_inferences(h->client, 20, recs));
    h->sim.run_until(seconds(30));
  }
  EXPECT_DOUBLE_EQ(lp_h.client.cached_k(), 1.0);
  EXPECT_EQ(lp_h.client.current_decision().p,
            ns_h.client.current_decision().p);
}

TEST(OffloadRuntime, CacheCapacityOneThrashesUnderAlternatingDecisions) {
  RuntimeParams tiny;
  tiny.cache_capacity = 1;
  Harness h("alexnet", Policy::kLoadPart, tiny);
  // Alternate the decision by hand via bandwidth flips (estimator window
  // is fed passively by the inference uploads).
  std::vector<InferenceRecord> records;
  h.sim.spawn(run_inferences(h.client, 6, records));
  h.sim.run_until(seconds(30));
  // All inferences at one p: only the first misses even with capacity 1.
  int misses = 0;
  for (const auto& r : records)
    if (r.overhead_sec > 0.0) ++misses;
  EXPECT_EQ(misses, 1);
  // Now force a different p and come back: the original entry was evicted,
  // so it must be re-partitioned (the thrash ablation measures the cost).
  EXPECT_EQ(h.client.cache().size(), 1u);
}

}  // namespace
}  // namespace lp::core

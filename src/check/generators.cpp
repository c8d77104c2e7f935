#include "check/generators.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "flops/features.h"
#include "ml/linreg.h"
#include "net/bandwidth_trace.h"

namespace lp::check {

std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index) {
  // SplitMix64 finalizer over seed ^ golden-ratio-striped index.
  std::uint64_t z = seed ^ (0x9E3779B97F4A7C15ull * (index + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

GraphGenOptions GraphGenOptions::shrunk(int level) const {
  GraphGenOptions o = *this;
  if (level >= 1) o.max_blocks = std::min(o.max_blocks, 3);
  if (level >= 2) {
    o.max_blocks = std::min(o.max_blocks, 2);
    o.spatial = std::min<std::int64_t>(o.spatial, 4);
  }
  if (level >= 3) {
    o.min_blocks = 1;
    o.max_blocks = 1;
    o.channels = std::min<std::int64_t>(o.channels, 2);
  }
  o.min_blocks = std::min(o.min_blocks, o.max_blocks);
  return o;
}

graph::Graph random_graph(std::uint64_t seed, GraphGenOptions options) {
  Rng rng(seed);
  graph::GraphBuilder b("random_" + std::to_string(seed));
  auto x = b.input({1, options.channels, options.spatial, options.spatial});

  auto activation = [&](graph::NodeId id) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        return b.relu(id);
      case 1:
        return b.sigmoid(id);
      case 2:
        return b.tanh(id);
      default:
        return id;  // no activation
    }
  };

  const int blocks = static_cast<int>(
      rng.uniform_int(options.min_blocks, options.max_blocks));
  for (int i = 0; i < blocks; ++i) {
    const auto c = b.desc(x).shape.c();
    const std::int64_t kind =
        options.chain_only ? (rng.bernoulli(0.7) ? 0 : 3)
                           : rng.uniform_int(0, 3);
    switch (kind) {
      case 0: {  // plain conv chain
        x = b.conv2d(x, c, 3, 1, 1, rng.bernoulli(0.5));
        x = activation(x);
        break;
      }
      case 1: {  // residual fork
        auto y = b.conv2d(x, c, 3, 1, 1, false);
        y = b.batchnorm(y);
        y = activation(y);
        x = b.add(y, x);
        break;
      }
      case 2: {  // concat fork (doubles channels)
        auto l = b.conv2d(x, c, 1, 1, 0, true);
        auto r = b.conv2d(x, c, 3, 1, 1, true);
        x = b.concat({activation(l), activation(r)});
        break;
      }
      default: {  // pool (only while the map is big enough)
        if (b.desc(x).shape.h() >= 4) {
          x = rng.bernoulli(0.5) ? b.maxpool(x, 2, 2) : b.avgpool(x, 2, 2);
        } else {
          x = b.relu(x);
        }
        break;
      }
    }
  }
  if (rng.bernoulli(0.5)) {
    x = b.flatten(x);
    x = b.fc(x, 1 + static_cast<std::int64_t>(rng.uniform_int(1, 8)));
  }
  return b.build(x);
}

core::PredictorBundle synthetic_bundle(double user_sec_per_flop,
                                       double edge_sec_per_flop) {
  profile::NodePredictor user(flops::Device::kUser);
  profile::NodePredictor edge(flops::Device::kEdge);
  for (auto kind : flops::all_model_kinds()) {
    std::vector<double> cu(
        flops::feature_names(kind, flops::Device::kUser).size(), 0.0);
    cu[0] = user_sec_per_flop;
    user.set_model(kind, ml::LinearModel(cu));
    std::vector<double> ce(
        flops::feature_names(kind, flops::Device::kEdge).size(), 0.0);
    ce[0] = edge_sec_per_flop;
    edge.set_model(kind, ml::LinearModel(ce));
  }
  return core::PredictorBundle{std::move(user), std::move(edge)};
}

fault::FaultPlan random_fault_plan(std::uint64_t seed, DurationNs horizon) {
  Rng rng(seed);
  fault::FaultPlan plan;
  if (rng.bernoulli(0.4)) return plan;  // the no-failure universe

  auto window = [&](double max_frac) {
    const TimeNs begin = static_cast<TimeNs>(
        rng.uniform(0.1, 0.6) * static_cast<double>(horizon));
    const TimeNs end =
        begin + std::max<DurationNs>(
                    milliseconds(20),
                    static_cast<DurationNs>(rng.uniform(0.05, max_frac) *
                                            static_cast<double>(horizon)));
    return fault::FaultWindow{begin, std::min(end, horizon)};
  };

  if (rng.bernoulli(0.5)) {
    const auto w = window(0.25);
    plan.server_crash(w.begin, w.end);
  }
  if (rng.bernoulli(0.4)) {
    const auto w = window(0.2);
    if (rng.bernoulli(0.5)) {
      plan.link_blackout(w.begin, w.end);
    } else {
      plan.link_degrade(w.begin, w.end, mbps(rng.uniform(0.25, 2.0)));
    }
  }
  if (rng.bernoulli(0.3)) {
    const auto w = window(0.3);
    plan.straggle(w.begin, w.end, rng.uniform(1.5, 6.0));
  }
  if (rng.bernoulli(0.25)) {
    const auto w = window(0.3);
    plan.packet_loss(w.begin, w.end, rng.uniform(0.05, 0.4));
  }
  return plan;
}

serve::FleetConfig random_fleet_config(std::uint64_t seed, int level) {
  Rng rng(seed);
  serve::FleetConfig config;
  config.seed = seed;

  const double base_sec = level >= 2 ? 1.5 : (level == 1 ? 2.5 : 4.0);
  config.duration = seconds(rng.uniform(base_sec, base_sec * 1.5));
  config.warmup = config.duration / 4;
  config.profiler_period = milliseconds(rng.uniform_int(200, 800));
  config.watcher_period = milliseconds(rng.uniform_int(500, 2000));

  const serve::QueuePolicy policies[] = {
      serve::QueuePolicy::kFifo, serve::QueuePolicy::kEdf,
      serve::QueuePolicy::kSpjf, serve::QueuePolicy::kLeastSlack};
  config.frontend.policy =
      policies[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  config.frontend.queue_capacity =
      static_cast<std::size_t>(rng.uniform_int(2, 32));
  config.frontend.admission_control = rng.bernoulli(0.5);
  config.frontend.delay_budget_sec = rng.uniform(0.02, 0.3);
  // Deadline-centric arms: admission against the request's own deadline
  // and dispatch-time will-miss shedding (both only bite for tenants that
  // draw an SLO below).
  config.frontend.deadline_admission = rng.bernoulli(0.3);
  config.frontend.shed_will_miss = rng.bernoulli(0.3);
  config.frontend.max_batch = static_cast<std::size_t>(rng.uniform_int(1, 4));
  if (config.frontend.max_batch > 1 && rng.bernoulli(0.5))
    config.frontend.batch_window = milliseconds(rng.uniform_int(1, 10));

  // Small caches and windows on purpose: evictions and window wrap-around
  // are where the bookkeeping bugs live.
  config.runtime.cache_capacity =
      static_cast<std::size_t>(rng.uniform_int(1, 8));
  config.runtime.k_window = static_cast<std::size_t>(rng.uniform_int(2, 16));
  if (rng.bernoulli(0.5)) {
    config.runtime.fault.rpc_timeout_sec = rng.uniform(0.05, 0.4);
    config.runtime.fault.max_retries = static_cast<int>(rng.uniform_int(0, 2));
    config.runtime.fault.local_fallback = rng.bernoulli(0.7);
    if (rng.bernoulli(0.3)) config.runtime.fault.breaker_failures = 3;
  }

  const int tenants = level >= 2 ? 1 : static_cast<int>(rng.uniform_int(1, 2));
  for (int t = 0; t < tenants; ++t) {
    serve::TenantSpec spec;
    spec.model = rng.bernoulli(0.5) ? "alexnet" : "squeezenet";
    spec.clients = level >= 1 ? 1 : static_cast<int>(rng.uniform_int(1, 3));
    spec.policy = rng.bernoulli(0.75) ? core::Policy::kLoadPart
                                      : core::Policy::kNeurosurgeon;
    const double up = rng.uniform(2.0, 32.0);
    spec.download = net::BandwidthTrace::constant(mbps(up));
    spec.upload = spec.download;
    if (rng.bernoulli(0.3)) {
      // Bursty WiFi: Gilbert-Elliott dwell schedule, sometimes with hard
      // blackout bursts (bad bandwidth 0).
      const double bad = rng.bernoulli(0.3) ? 0.0 : mbps(up / 8.0);
      const fault::FaultPlan bursts = fault::FaultPlan::gilbert_elliott_link(
          config.duration, bad, milliseconds(400), milliseconds(80), rng());
      spec.upload = net::apply_link_faults(spec.upload, bursts);
    }
    spec.rtt = milliseconds(rng.uniform_int(1, 8));
    spec.request_gap = milliseconds(rng.uniform_int(2, 40));
    spec.poisson_arrivals = rng.bernoulli(0.5);
    if (rng.bernoulli(0.4)) spec.slo_sec = rng.uniform(0.05, 0.5);
    config.tenants.push_back(spec);
  }

  config.faults = random_fault_plan(case_seed(seed, 0xfau), config.duration);
  return config;
}

fault::FaultPlan random_control_plan(std::uint64_t seed, DurationNs horizon) {
  Rng rng(seed);
  fault::FaultPlan plan;
  if (rng.bernoulli(0.25)) return plan;  // a quiet control plane

  const int windows = static_cast<int>(rng.uniform_int(1, 3));
  for (int w = 0; w < windows; ++w) {
    const TimeNs begin = static_cast<TimeNs>(
        rng.uniform(0.0, 0.7) * static_cast<double>(horizon));
    const TimeNs end =
        begin + std::max<DurationNs>(
                    milliseconds(50),
                    static_cast<DurationNs>(rng.uniform(0.05, 0.4) *
                                            static_cast<double>(horizon)));
    plan.packet_loss(begin, std::min(end, horizon),
                     rng.uniform(0.1, 0.8));
  }
  if (rng.bernoulli(0.3)) {
    // A hard blackout: every heartbeat in the window vanishes, which is
    // what drives the detector through kSuspect into kDead — and, when
    // the window covers a majority of channels, into quorum degradation.
    const TimeNs begin = static_cast<TimeNs>(
        rng.uniform(0.2, 0.6) * static_cast<double>(horizon));
    plan.link_blackout(
        begin, std::min<TimeNs>(
                   begin + static_cast<DurationNs>(
                               rng.uniform(0.1, 0.3) *
                               static_cast<double>(horizon)),
                   horizon));
  }
  return plan;
}

cluster::ClusterConfig random_cluster_config(std::uint64_t seed, int level) {
  Rng rng(seed);
  cluster::ClusterConfig config;
  config.seed = seed;
  config.servers =
      level >= 2 ? 2 : static_cast<std::size_t>(rng.uniform_int(2, 4));

  const double base_sec = level >= 2 ? 2.0 : (level == 1 ? 3.0 : 5.0);
  config.duration = seconds(rng.uniform(base_sec, base_sec * 1.5));
  config.warmup = config.duration / 4;
  config.profiler_period = milliseconds(500);
  config.watcher_period = seconds(1);
  config.zipf_alpha = rng.bernoulli(0.5) ? rng.uniform(0.5, 1.5) : 0.0;

  // Clients must survive reroutes and degradation on their own: timeouts,
  // retries and local fallback always armed (the robust client posture).
  config.runtime.fault.rpc_timeout_sec = rng.uniform(0.2, 0.5);
  config.runtime.fault.max_retries = 2;
  config.runtime.fault.local_fallback = true;

  config.frontend.queue_capacity =
      static_cast<std::size_t>(rng.uniform_int(8, 32));
  const serve::QueuePolicy cluster_policies[] = {
      serve::QueuePolicy::kFifo, serve::QueuePolicy::kEdf,
      serve::QueuePolicy::kSpjf, serve::QueuePolicy::kLeastSlack};
  config.frontend.policy =
      cluster_policies[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  config.frontend.deadline_admission = rng.bernoulli(0.25);
  config.frontend.shed_will_miss = rng.bernoulli(0.25);

  cluster::RouterParams& router = config.router;
  router.placement = rng.bernoulli(0.5)
                         ? cluster::Placement::kLeastLoaded
                         : cluster::Placement::kConsistentHash;
  router.heartbeat_period = milliseconds(rng.uniform_int(100, 400));
  router.rebalance = rng.bernoulli(0.6);
  router.skew_threshold_sec = rng.uniform(0.05, 0.3);
  router.min_dwell = milliseconds(rng.uniform_int(200, 1000));

  // Non-oracle detection: the family's whole point is deciding off a
  // lossy heartbeat stream.
  router.detector.mode = cluster::DetectorParams::Mode::kDeadline;
  router.detector.suspect_misses = 2;
  router.detector.dead_misses =
      static_cast<int>(rng.uniform_int(3, 6));

  // Robust migration machinery, always on: lost transfers are discovered
  // by timeout, retried, and finally aborted back to the source.
  router.migration_timeout = milliseconds(rng.uniform_int(50, 200));
  router.migration_max_retries = static_cast<int>(rng.uniform_int(1, 2));
  router.migration_backoff.base_sec = 0.02;
  router.migration_backoff.max_sec = 0.2;
  router.return_to_source = true;

  serve::TenantSpec spec;
  spec.model = rng.bernoulli(0.5) ? "alexnet" : "squeezenet";
  spec.clients =
      level >= 1 ? 2 : static_cast<int>(rng.uniform_int(2, 4));
  spec.upload = net::BandwidthTrace::constant(mbps(rng.uniform(8.0, 32.0)));
  spec.download = spec.upload;
  spec.rtt = milliseconds(rng.uniform_int(1, 5));
  spec.request_gap = milliseconds(rng.uniform_int(5, 30));
  spec.poisson_arrivals = rng.bernoulli(0.5);
  // An SLO arms the deadline machinery (EDF/least-slack keys, deadline
  // admission, will-miss shedding) for this tenant's requests.
  if (rng.bernoulli(0.4)) spec.slo_sec = rng.uniform(0.1, 0.5);
  config.tenants.push_back(spec);

  // Chaos: lossy heartbeat channels per server, a lossy interconnect, and
  // possibly real crash windows for the detector to actually catch.
  for (std::size_t i = 0; i < config.servers; ++i)
    config.heartbeat_faults.push_back(
        random_control_plan(case_seed(seed, 0x4b00 + i), config.duration));
  config.interconnect_faults =
      random_control_plan(case_seed(seed, 0x1c00), config.duration);
  if (rng.bernoulli(0.6)) {
    fault::FaultPlan crash;
    const TimeNs begin = static_cast<TimeNs>(
        rng.uniform(0.2, 0.5) * static_cast<double>(config.duration));
    const TimeNs end =
        begin + static_cast<DurationNs>(
                    rng.uniform(0.1, 0.3) *
                    static_cast<double>(config.duration));
    crash.server_crash(begin, std::min<TimeNs>(end, config.duration));
    config.server_faults.push_back(std::move(crash));
  }
  config.degrade_to_local = true;
  return config;
}

}  // namespace lp::check

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "cluster/fleet.h"
#include "cluster/hash_ring.h"
#include "cluster/router.h"
#include "common/check.h"
#include "core/offload_runtime.h"

namespace lp::cluster {
namespace {

const core::PredictorBundle& bundle() {
  static const core::PredictorBundle b = core::train_default_predictors(1234);
  return b;
}

// --------------------------------------------------------- hash ring --

TEST(HashRing, PlacementIsDeterministicAcrossInstances) {
  HashRing a(64), b(64);
  for (std::size_t s = 0; s < 4; ++s) {
    a.add_server(s);
    b.add_server(s);
  }
  for (std::uint64_t key = 0; key < 500; ++key)
    EXPECT_EQ(a.place(key), b.place(key));
}

TEST(HashRing, PlacementIsIndependentOfJoinOrder) {
  HashRing forward(64), backward(64);
  for (std::size_t s = 0; s < 4; ++s) forward.add_server(s);
  for (std::size_t s = 4; s-- > 0;) backward.add_server(s);
  for (std::uint64_t key = 0; key < 500; ++key)
    EXPECT_EQ(forward.place(key), backward.place(key));
}

TEST(HashRing, JoinRemapsABoundedFractionOfKeys) {
  constexpr std::uint64_t kKeys = 2000;
  HashRing ring(64);
  for (std::size_t s = 0; s < 4; ++s) ring.add_server(s);
  std::vector<std::size_t> before(kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key)
    before[key] = ring.place(key);

  ring.add_server(4);
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::size_t now = ring.place(key);
    if (now != before[key]) {
      // A join only pulls keys toward the new server: nothing reshuffles
      // between the old ones.
      EXPECT_EQ(now, 4u);
      ++moved;
    }
  }
  // Expected movement is 1/5 of the key space; allow 2x for vnode
  // variance, and require the join moved *something*.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys * 2 / 5);
}

TEST(HashRing, PlaceIfWalksPastDeadServers) {
  HashRing ring(64);
  for (std::size_t s = 0; s < 3; ++s) ring.add_server(s);
  for (std::uint64_t key = 0; key < 200; ++key) {
    const std::size_t home = ring.place(key);
    const std::size_t fallback =
        ring.place_if(key, [home](std::size_t s) { return s != home; });
    EXPECT_NE(fallback, home);
    // With every server alive, place_if agrees with place.
    EXPECT_EQ(ring.place_if(key, [](std::size_t) { return true; }), home);
  }
}

// ------------------------------------------------- migration harness --

struct PendingRequest {
  std::shared_ptr<core::SuffixReply> reply;

  explicit PendingRequest(sim::Simulator& sim)
      : reply(std::make_shared<core::SuffixReply>(sim)) {}

  core::SuffixRequest request(std::uint64_t session, std::size_t p) {
    core::SuffixRequest r;
    r.p = p;
    r.reply = reply;
    r.session = session;
    r.predicted_sec = 0.01;
    return r;
  }
};

/// Two frontends on one sim clock plus a router over them.
struct ClusterHarness {
  sim::Simulator sim;
  hw::GpuModel gpu;
  hw::GpuScheduler sched_a, sched_b;
  graph::Graph model;
  core::GraphCostProfile profile;
  serve::EdgeServerFrontend a, b;
  ClusterRouter router;

  explicit ClusterHarness(RouterParams params = {},
                          core::RuntimeParams runtime = {})
      : sched_a(sim),
        sched_b(sim),
        model(models::make_model("alexnet")),
        profile(model, bundle()),
        a(sim, sched_a, gpu, serve::FrontendParams{}, runtime, 99),
        b(sim, sched_b, gpu, serve::FrontendParams{}, runtime, 100),
        router(sim, {&a, &b}, params) {}
};

TEST(SessionMigration, RoundTripStateIsBitIdentical) {
  ClusterHarness h;
  const std::uint64_t s = h.router.open_session(h.profile);

  // Warm the session on A: several served requests populate the k window,
  // the partition cache, and (via record bookkeeping) the counters.
  std::vector<std::unique_ptr<PendingRequest>> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.a.submit(reqs.back()->request(s, 5)),
              core::SubmitStatus::kAccepted);
  }
  h.sim.run_until(seconds(30));
  ASSERT_EQ(h.a.counters().served, 6u);
  ASSERT_GT(h.a.session_tracker(s).window_size(), 0u);
  ASSERT_GT(h.a.session_cache(s).size(), 0u);

  const serve::SessionState before{h.a.session_tracker(s),
                                   h.a.session_cache(s)};
  serve::SessionExport ex = h.a.export_session(s);
  EXPECT_TRUE(ex.jobs.empty());  // everything already served
  EXPECT_GT(ex.bytes, 0);
  const serve::SessionState original = ex.state;
  EXPECT_TRUE(original == before);

  // The source session reset to fresh, its forecaster with it.
  EXPECT_EQ(h.a.session_tracker(s).window_size(), 0u);
  EXPECT_EQ(h.a.session_cache(s).size(), 0u);
  EXPECT_DOUBLE_EQ(h.a.session_tracker(s).k(), 1.0);
  EXPECT_EQ(h.a.session_tracker(s).predictor().samples(), 0u);

  h.b.import_session(s, std::move(ex));
  // The forecaster arrived inside the tracker.
  ASSERT_GT(original.k.predictor().samples(), 0u);
  EXPECT_TRUE(h.b.session_tracker(s) == original.k);
  // The cache migrates as its keys: B holds the one cut A served.
  EXPECT_TRUE(h.b.session_cache(s) == original.cache);
  EXPECT_EQ(original.cache.lru_keys(), std::vector<std::size_t>{5});

  // Export again from B: identical to what left A, ring order and
  // incrementally maintained sums included.
  serve::SessionExport back = h.b.export_session(s);
  EXPECT_TRUE(back.state == original);
}

TEST(SessionMigration, PredictorStateRoundTripsBitIdentical) {
  // A stateful forecaster (holt carries level + trend) must survive a live
  // migration exactly: the destination forecasts the same bits the source
  // would have.
  core::RuntimeParams runtime;
  runtime.predictor.kind = "holt";
  ClusterHarness h({}, runtime);
  const std::uint64_t s = h.router.open_session(h.profile);

  std::vector<std::unique_ptr<PendingRequest>> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.a.submit(reqs.back()->request(s, 5)),
              core::SubmitStatus::kAccepted);
  }
  h.sim.run_until(seconds(30));
  ASSERT_GT(h.a.session_tracker(s).predictor().samples(), 0u);
  const double forecast_before =
      h.a.session_tracker(s).predictor().forecast(seconds(1));

  serve::SessionExport ex = h.a.export_session(s);
  const serve::SessionState original = ex.state;
  // Holt carries level + trend; the payload is charged to the wire.
  EXPECT_EQ(original.k.predictor().wire_bytes(), 16);
  ASSERT_TRUE(ex.jobs.empty());
  EXPECT_EQ(ex.bytes, 256 + original.k.wire_bytes() +
                          4096 * static_cast<std::int64_t>(
                                     original.cache.size()));
  // The source forecaster reset with the tracker that owns it.
  EXPECT_EQ(h.a.session_tracker(s).predictor().samples(), 0u);

  h.b.import_session(s, std::move(ex));
  EXPECT_TRUE(h.b.session_tracker(s).predictor() ==
              original.k.predictor());
  EXPECT_EQ(h.b.session_tracker(s).predictor().forecast(seconds(1)),
            forecast_before);

  serve::SessionExport back = h.b.export_session(s);
  EXPECT_TRUE(back.state == original);
}

TEST(SessionMigration, MovesQueuedJobsWithoutLosingAny) {
  ClusterHarness h;
  const std::uint64_t s = h.router.open_session(h.profile);
  const std::uint64_t other = h.router.open_session(h.profile);

  // Fill A's queue: one job dispatches, the rest wait. A second session's
  // job interleaves to prove take_session only moves its own.
  std::vector<std::unique_ptr<PendingRequest>> reqs;
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.a.submit(reqs.back()->request(s, 5)),
              core::SubmitStatus::kAccepted);
  }
  PendingRequest other_req(h.sim);
  ASSERT_EQ(h.a.submit(other_req.request(other, 5)),
            core::SubmitStatus::kAccepted);

  h.sim.spawn(h.router.migrate(s, 1));
  h.sim.run_until(seconds(60));

  // Every request completed as served — none dropped, none hung.
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->reply->done.triggered());
    EXPECT_EQ(r->reply->status, core::SuffixStatus::kServed);
  }
  EXPECT_TRUE(other_req.reply->done.triggered());

  // The binding moved, jobs were counted through the migration ledgers,
  // and the cluster conserves: nothing in transit after the run.
  const RouterCounters counts = h.router.counters();
  EXPECT_EQ(h.router.binding(s).server, 1u);
  EXPECT_EQ(counts.migrations, 1u);
  EXPECT_GT(counts.migrated_jobs, 0u);
  EXPECT_EQ(h.router.in_transit_jobs(), 0u);
  EXPECT_EQ(h.a.counters().migrated_out, counts.migrated_jobs);
  EXPECT_EQ(h.b.counters().migrated_in, counts.migrated_jobs);
  EXPECT_GT(h.b.counters().served, 0u);
  EXPECT_EQ(h.a.counters().served + h.b.counters().served, 6u);
  check::audit(h.router);
}

TEST(SessionMigration, ImportIntoCrashedServerFailsJobsInsteadOfHanging) {
  ClusterHarness h;
  const std::uint64_t s = h.router.open_session(h.profile);

  std::vector<std::unique_ptr<PendingRequest>> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.a.submit(reqs.back()->request(s, 5)),
              core::SubmitStatus::kAccepted);
  }
  // The target dies while the payload is on the wire.
  h.sim.call_after(0, [&] { h.b.crash(); });
  h.sim.spawn(h.router.migrate(s, 1));
  h.sim.run_until(seconds(60));

  for (const auto& r : reqs) EXPECT_TRUE(r->reply->done.triggered());
  // The in-flight job finished on A; the queued ones died typed, not hung.
  std::size_t failed = 0;
  for (const auto& r : reqs)
    if (r->reply->status == core::SuffixStatus::kServerDown) ++failed;
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(h.router.in_transit_jobs(), 0u);
  check::audit(h.router);
}

TEST(SessionMigration, CrashTargetMidTransferRehomesAndSettles) {
  // Regression: the reroute loop used to skip every `migrating` session,
  // so a migration whose *target* crashed mid-transfer waited out the full
  // wire time and dumped its jobs into the corpse. The router must cancel
  // the transfer (epoch bump) and abort it back to the source instead.
  RouterParams params;
  params.heartbeat_period = milliseconds(100);
  params.migration_bandwidth = mbps(0.01);  // slow wire: ~1 s in transfer
  ClusterHarness h(params);
  const std::uint64_t s = h.router.open_session(h.profile);

  std::vector<std::unique_ptr<PendingRequest>> reqs;
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.a.submit(reqs.back()->request(s, 5)),
              core::SubmitStatus::kAccepted);
  }
  h.router.start();
  h.sim.spawn(h.router.migrate(s, 1));
  // The target dies while the payload is on the wire; the next heartbeat
  // sees it and must cancel the in-flight transfer.
  h.sim.call_after(milliseconds(50), [&] { h.b.crash(); });
  h.sim.run_until(seconds(60));

  // Every job settled — served at the source, none stranded in transit,
  // none dumped into the crashed target.
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->reply->done.triggered());
    EXPECT_EQ(r->reply->status, core::SuffixStatus::kServed);
  }
  EXPECT_EQ(h.router.binding(s).server, 0u);
  EXPECT_FALSE(h.router.binding(s).migrating);
  EXPECT_EQ(h.router.in_transit_jobs(), 0u);
  EXPECT_EQ(h.router.counters().aborted_migrations, 1u);
  EXPECT_EQ(h.b.counters().served, 0u);
  check::audit(h.router);
}

TEST(Placement, LeastLoadedPlacesOnTheSmallerForecastDelay) {
  RouterParams params;
  params.placement = Placement::kLeastLoaded;
  ClusterHarness h(params);
  // Cold start: round-robin, so each server homes one session.
  const std::uint64_t first = h.router.open_session(h.profile);
  EXPECT_EQ(h.router.binding(first).server, 0u);
  EXPECT_EQ(h.router.binding(h.router.open_session(h.profile)).server, 1u);

  // Queue work on server 0. The tie-break (fewer homes, then the lower
  // index) would pick server 0, so only the predicted delay can move the
  // next session to server 1.
  std::vector<std::unique_ptr<PendingRequest>> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.a.submit(reqs.back()->request(first, 5)),
              core::SubmitStatus::kAccepted);
  }
  ASSERT_GT(h.a.load_snapshot().predicted_delay_sec,
            h.b.load_snapshot().predicted_delay_sec);
  EXPECT_EQ(h.router.binding(h.router.open_session(h.profile)).server, 1u);

  // Once server 0 drains, the tie-break is back in charge.
  h.sim.run_until(seconds(30));
  ASSERT_EQ(h.a.load_snapshot().predicted_delay_sec, 0.0);
  EXPECT_EQ(h.router.binding(h.router.open_session(h.profile)).server, 0u);
  check::audit(h.router);
}

sim::Task oscillating_load(ClusterHarness& h, std::uint64_t session,
                           std::vector<std::unique_ptr<PendingRequest>>& reqs,
                           DurationNs period) {
  // Follow the binding: the burst always lands on the *current* home, so
  // whichever server holds the session is hot and the other cold — the
  // adversarial schedule that makes an undamped rebalancer ping-pong.
  for (;;) {
    const std::size_t home = h.router.binding(session).server;
    for (int i = 0; i < 3; ++i) {
      reqs.push_back(std::make_unique<PendingRequest>(h.sim));
      h.router.server(home).submit(reqs.back()->request(session, 5));
    }
    co_await h.sim.delay(period);
  }
}

TEST(Rebalancer, MinDwellBoundsMigrationsUnderOscillatingLoad) {
  RouterParams params;
  params.heartbeat_period = milliseconds(100);
  params.rebalance = true;
  params.skew_threshold_sec = 0.01;
  params.min_dwell = seconds(2);
  ClusterHarness h(params);
  const std::uint64_t s = h.router.open_session(h.profile);

  std::vector<std::unique_ptr<PendingRequest>> reqs;
  h.sim.spawn(oscillating_load(h, s, reqs, params.heartbeat_period));
  h.router.start();
  h.sim.run_until(seconds(10));  // 100 heartbeats

  // The skew flips back every time the session moves, so an undamped
  // rebalancer would migrate nearly every heartbeat (~100 moves). The
  // dwell pin bounds it to duration / min_dwell plus the first move.
  EXPECT_GE(h.router.counters().migrations, 2u);
  EXPECT_LE(h.router.counters().migrations, 6u);
  check::audit(h.router);
}

// ------------------------------------------------------- run_cluster --

ClusterConfig base_config(std::uint64_t seed) {
  ClusterConfig config;
  config.servers = 2;
  config.duration = seconds(20);
  config.warmup = seconds(5);
  config.seed = seed;
  config.router.heartbeat_period = milliseconds(250);
  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 6;
  spec.policy = core::Policy::kNeurosurgeon;
  spec.upload = net::BandwidthTrace::constant(mbps(20));
  spec.download = net::BandwidthTrace::constant(mbps(20));
  spec.request_gap = milliseconds(3);
  config.tenants.push_back(spec);
  return config;
}

TEST(RunCluster, LeastLoadedColdStartRoundRobins) {
  ClusterConfig config = base_config(7);
  config.servers = 3;
  config.router.placement = Placement::kLeastLoaded;
  config.duration = seconds(2);
  config.warmup = seconds(0);
  const auto result = run_cluster(config, bundle());
  ASSERT_EQ(result.servers.size(), 3u);
  // 6 clients over 3 cold servers: every server admitted work (the cold
  // start spread 2-2-2 rather than piling onto server 0).
  for (const auto& s : result.servers) EXPECT_GT(s.admitted, 0u);
}

TEST(RunCluster, SameSeedRunsAreIdentical) {
  const ClusterConfig config = base_config(21);
  const auto a = run_cluster(config, bundle());
  const auto b = run_cluster(config, bundle());
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    const auto& ra = a.clients[i].records;
    const auto& rb = b.clients[i].records;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].start, rb[j].start);
      EXPECT_EQ(ra[j].p, rb[j].p);
      EXPECT_DOUBLE_EQ(ra[j].total_sec, rb[j].total_sec);
      EXPECT_EQ(ra[j].outcome, rb[j].outcome);
    }
  }
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i) {
    EXPECT_EQ(a.servers[i].admitted, b.servers[i].admitted);
    EXPECT_EQ(a.servers[i].served, b.servers[i].served);
    EXPECT_EQ(a.servers[i].migrated_in, b.servers[i].migrated_in);
    EXPECT_EQ(a.servers[i].migrated_out, b.servers[i].migrated_out);
  }
  EXPECT_EQ(a.heartbeats, b.heartbeats);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migrated_jobs, b.migrated_jobs);
}

TEST(RunCluster, RebalancerMigratesUnderSkewAndConserves) {
  // Static hash placement lands the Zipf-hot clients unevenly; the
  // rebalancer must fire and the conservation audit must hold at every
  // beat (including mid-transfer).
  ClusterConfig config = base_config(3);
  config.router.placement = Placement::kConsistentHash;
  config.router.rebalance = true;
  config.router.skew_threshold_sec = 0.02;
  config.router.min_dwell = seconds(1);
  config.zipf_alpha = 1.2;
  config.tenants[0].clients = 8;
  config.tenants[0].request_gap = milliseconds(2);

  check::ClusterAuditor auditor;
  config.on_audit = std::ref(auditor);
  config.audit_period = milliseconds(200);

  const auto result = run_cluster(config, bundle());
  EXPECT_GT(auditor.audits(), 50u);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_GT(result.migrated_jobs, 0u);

  // Zero loss across every move: no client request failed, and the
  // final snapshots still satisfy the cluster equation.
  EXPECT_EQ(result.summarize().failed(), 0u);
  std::uint64_t admitted = 0, settled = 0;
  for (const auto& s : result.servers) {
    admitted += s.admitted;
    settled += s.served + s.failed_jobs + s.queue_depth + s.inflight_jobs;
  }
  EXPECT_EQ(admitted, settled);
}

TEST(RunCluster, PublishesServeCountersSummedOverServers) {
  obs::Telemetry telemetry(/*tracing=*/false);
  ClusterConfig config = base_config(5);
  config.telemetry = &telemetry;
  const auto result = run_cluster(config, bundle());
  std::uint64_t submitted = 0, served = 0;
  for (const auto& s : result.servers) {
    submitted += s.submitted;
    served += s.served;
  }
  const auto& reg = telemetry.metrics();
  ASSERT_NE(reg.find_counter("serve.submitted"), nullptr);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(reg.find_counter("serve.submitted")->value(),
            std::int64_t(submitted));
  EXPECT_EQ(reg.find_counter("serve.served")->value(), std::int64_t(served));
  EXPECT_NE(reg.find_counter("cluster.t0.alexnet.requests"), nullptr);

  // Every router count is exported once, as cluster.<field>.
  const std::pair<const char*, std::uint64_t> router_counts[] = {
      {"heartbeats", result.heartbeats},
      {"migrations", result.migrations},
      {"migrated_jobs", result.migrated_jobs},
      {"reroutes", result.reroutes},
      {"aborted_migrations", result.aborted_migrations},
      {"migration_retries", result.migration_retries},
      {"late_imports_rejected", result.late_imports_rejected},
      {"zombie_imports", result.zombie_imports},
      {"stranded_jobs", result.stranded_jobs},
      {"false_reroutes", result.false_reroutes},
      {"degrade_transitions", result.degrade_transitions},
  };
  EXPECT_GT(result.heartbeats, 0u);
  for (const auto& [name, count] : router_counts) {
    const obs::Counter* counter =
        reg.find_counter(std::string("cluster.") + name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_EQ(counter->value(), std::int64_t(count)) << name;
  }
}

TEST(RunCluster, HonoursMarkovBurstsLikeRunFleet) {
  // One testbed under both entry points: a bursty tenant issues more
  // requests than the same tenant with bursts off, in a cluster too.
  ClusterConfig calm = base_config(9);
  calm.tenants[0].request_gap = milliseconds(200);
  ClusterConfig bursty = calm;
  bursty.tenants[0].burst_gap = milliseconds(5);
  bursty.tenants[0].burst_enter_prob = 0.5;
  const auto a = run_cluster(calm, bundle());
  const auto b = run_cluster(bursty, bundle());
  EXPECT_GT(b.summarize().requests(), a.summarize().requests());
}

TEST(RunCluster, CrashRerouteKeepsSessionsServedElsewhere) {
  ClusterConfig config = base_config(13);
  config.router.placement = Placement::kLeastLoaded;
  config.duration = seconds(24);
  config.warmup = seconds(4);
  // Server 0 dies mid-run and comes back late; its sessions must fail
  // over to server 1 and keep completing requests (local_fallback rides
  // out the detection window without dropping anything).
  config.server_faults.resize(1);
  config.server_faults[0].server_crash(seconds(8), seconds(20));
  config.runtime.fault.rpc_timeout_sec = 0.5;
  config.runtime.fault.max_retries = 1;
  config.runtime.fault.local_fallback = true;

  check::ClusterAuditor auditor;
  config.on_audit = std::ref(auditor);

  const auto result = run_cluster(config, bundle());
  EXPECT_GT(auditor.audits(), 0u);
  EXPECT_GT(result.reroutes, 0u);
  const auto summary = result.summarize();
  EXPECT_EQ(summary.failed(), 0u);  // every request served or recovered
  // After the reroute, the surviving server carries new admissions.
  EXPECT_GT(result.servers[1].admitted, 0u);
}

}  // namespace
}  // namespace lp::cluster

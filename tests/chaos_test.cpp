// Partition-tolerant control plane: failure detection, epoch fencing,
// exactly-once migration, and chaos-schedule survival.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/generators.h"
#include "check/invariants.h"
#include "cluster/failure_detector.h"
#include "cluster/fleet.h"
#include "common/check.h"
#include "models/zoo.h"

namespace lp::cluster {
namespace {

const core::PredictorBundle& bundle() {
  static const core::PredictorBundle b = core::train_default_predictors(1234);
  return b;
}

// ------------------------------------------------- failure detector --

TEST(FailureDetector, DeadlineModeWalksAliveSuspectDead) {
  DetectorParams params;
  params.mode = DetectorParams::Mode::kDeadline;
  params.suspect_misses = 2;
  params.dead_misses = 4;
  FailureDetector detector(2, params, milliseconds(100));
  detector.arm(0);

  // Server 1 heartbeats on schedule; server 0 goes silent from the start.
  detector.heartbeat(1, milliseconds(100), true);
  detector.tick(milliseconds(150));
  EXPECT_EQ(detector.health(0), Health::kAlive);  // one miss: benign
  detector.tick(milliseconds(250));
  EXPECT_EQ(detector.health(0), Health::kSuspect);
  EXPECT_FALSE(detector.usable(0));
  EXPECT_FALSE(detector.dead(0));
  detector.tick(milliseconds(450));
  EXPECT_EQ(detector.health(0), Health::kDead);
  EXPECT_EQ(detector.health(1), Health::kSuspect);  // silent since 100ms
  EXPECT_EQ(detector.deaths(), 1u);
  ASSERT_EQ(detector.death_events().size(), 1u);
  EXPECT_EQ(detector.death_events()[0].first, 0u);

  // A delivered heartbeat resurrects instantly — suspicion was only ever
  // about lost messages, not a verdict.
  detector.heartbeat(0, milliseconds(500), true);
  EXPECT_EQ(detector.health(0), Health::kAlive);
}

TEST(FailureDetector, SelfReportedDeathIsAuthoritativeInEveryMode) {
  for (auto mode :
       {DetectorParams::Mode::kOracle, DetectorParams::Mode::kDeadline}) {
    DetectorParams params;
    params.mode = mode;
    FailureDetector detector(1, params, milliseconds(100));
    detector.arm(0);
    detector.heartbeat(0, milliseconds(100), false);
    EXPECT_EQ(detector.health(0), Health::kDead)
        << detector_mode_name(mode);
    detector.tick(milliseconds(200));
    EXPECT_EQ(detector.health(0), Health::kDead);  // ticks cannot revive
    detector.heartbeat(0, milliseconds(300), true);
    EXPECT_EQ(detector.health(0), Health::kAlive);
  }
}

// -------------------------------------------------- fencing harness --

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
struct ChaosHarness {
  sim::Simulator sim;
  hw::GpuModel gpu;
  hw::GpuScheduler sched_a, sched_b;
  graph::Graph model;
  core::GraphCostProfile profile;
  serve::EdgeServerFrontend a, b;
  ClusterRouter router;

  explicit ChaosHarness(RouterParams params = {})
      : sched_a(sim),
        sched_b(sim),
        model(models::make_model("alexnet")),
        profile(model, bundle()),
        a(sim, sched_a, gpu, serve::FrontendParams{}, {}, 99),
        b(sim, sched_b, gpu, serve::FrontendParams{}, {}, 100),
        router(sim, {&a, &b}, params) {}

  std::vector<std::unique_ptr<PendingRequest>> submit(std::uint64_t session,
                                                      int count) {
    std::vector<std::unique_ptr<PendingRequest>> reqs;
    for (int i = 0; i < count; ++i) {
      reqs.push_back(std::make_unique<PendingRequest>(sim));
      LP_CHECK(a.submit(reqs.back()->request(session, 5)) ==
               core::SubmitStatus::kAccepted);
    }
    return reqs;
  }
};

TEST(EpochFencing, FenceDropsQueuedJobsAndZombieCompletionsTyped) {
  ChaosHarness h;
  const std::uint64_t s = h.router.open_session(h.profile);
  auto reqs = h.submit(s, 5);

  // Fence at t=0, after the dispatcher has taken the first job: the four
  // still queued die immediately, the one on the GPU becomes a zombie.
  std::size_t dropped = 0;
  h.sim.call_after(0, [&] { dropped = h.a.fence_session(s, 1); });
  h.sim.run_until(seconds(30));

  EXPECT_EQ(dropped, 4u);  // the queued jobs died immediately, typed
  EXPECT_EQ(h.a.session_fence(s), 1u);

  // The in-flight dispatch finished *after* the fence rose: its epoch is
  // stale, so its completion is rejected too — the zombie-completion path.
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->reply->done.triggered());
    EXPECT_EQ(r->reply->status, core::SuffixStatus::kFenced);
  }
  EXPECT_EQ(h.a.counters().served, 0u);
  EXPECT_EQ(h.a.counters().fenced_jobs, 5u);
  EXPECT_EQ(h.a.counters().failed_jobs, 5u);
  check::audit(h.a);

  // Fences only rise; a stale fence call is a no-op.
  EXPECT_EQ(h.a.fence_session(s, 1), 0u);
  EXPECT_EQ(h.a.session_fence(s), 1u);
}

TEST(EpochFencing, StaleImportIsRejectedWithoutTouchingCounters) {
  ChaosHarness h;
  const std::uint64_t s = h.router.open_session(h.profile);
  auto reqs = h.submit(s, 3);

  serve::SessionExport ex = h.a.export_session(s);
  serve::SessionExport copy = ex;  // a rejected import consumes its payload
  ex.epoch = 1;
  h.b.fence_session(s, 2);
  EXPECT_FALSE(h.b.import_session(s, std::move(ex)));
  EXPECT_EQ(h.b.counters().rejected_imports, 1u);
  EXPECT_EQ(h.b.counters().migrated_in, 0u);
  EXPECT_EQ(h.b.queue().size(), 0u);

  // At the fence itself the same payload is current, not a zombie.
  copy.epoch = 2;
  const std::size_t jobs = copy.jobs.size();
  EXPECT_TRUE(h.b.import_session(s, std::move(copy)));
  EXPECT_EQ(h.b.counters().migrated_in, jobs);
  h.sim.run_until(seconds(30));
  for (const auto& r : reqs) EXPECT_TRUE(r->reply->done.triggered());
}

// ------------------------------------------- exactly-once migration --

TEST(MigrationLedger, TimeoutRetriesThenCommits) {
  RouterParams params;
  params.migration_timeout = milliseconds(200);
  params.migration_max_retries = 2;
  params.migration_backoff.base_sec = 0.02;
  params.migration_backoff.max_sec = 0.1;
  ChaosHarness h(params);
  // The interconnect eats everything for 300 ms: attempts one and two are
  // lost and time out; the third sails through.
  fault::FaultPlan plan;
  plan.packet_loss(0, milliseconds(300), 1.0);
  h.router.attach_interconnect_faults(&plan);

  const std::uint64_t s = h.router.open_session(h.profile);
  auto reqs = h.submit(s, 5);
  h.sim.spawn(h.router.migrate(s, 1));
  h.sim.run_until(seconds(60));

  for (const auto& r : reqs) {
    EXPECT_TRUE(r->reply->done.triggered());
    EXPECT_EQ(r->reply->status, core::SuffixStatus::kServed);
  }
  EXPECT_EQ(h.router.binding(s).server, 1u);
  EXPECT_EQ(h.router.counters().migration_retries, 2u);
  EXPECT_EQ(h.router.counters().aborted_migrations, 0u);
  ASSERT_EQ(h.router.ledger().size(), 1u);
  EXPECT_EQ(h.router.ledger()[0].state, MigrationRecord::State::kCommitted);
  EXPECT_EQ(h.router.ledger()[0].attempts, 3);
  EXPECT_GT(h.b.counters().served, 0u);
  check::audit(h.router);
}

TEST(MigrationLedger, SpentRetryBudgetAbortsBackToTheSource) {
  RouterParams params;
  params.migration_timeout = milliseconds(100);
  params.migration_max_retries = 1;
  ChaosHarness h(params);
  fault::FaultPlan plan;
  plan.packet_loss(0, seconds(60), 1.0);  // the interconnect never works
  h.router.attach_interconnect_faults(&plan);

  const std::uint64_t s = h.router.open_session(h.profile);
  auto reqs = h.submit(s, 5);
  h.sim.spawn(h.router.migrate(s, 1));
  h.sim.run_until(seconds(60));

  // Nothing stranded: the payload came home and its jobs settled on the
  // source as if the migration had never been attempted.
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->reply->done.triggered());
    EXPECT_EQ(r->reply->status, core::SuffixStatus::kServed);
  }
  EXPECT_EQ(h.router.binding(s).server, 0u);
  EXPECT_EQ(h.router.counters().aborted_migrations, 1u);
  EXPECT_EQ(h.router.counters().stranded_jobs, 0u);
  EXPECT_EQ(h.router.in_transit_jobs(), 0u);
  ASSERT_EQ(h.router.ledger().size(), 1u);
  EXPECT_EQ(h.router.ledger()[0].state, MigrationRecord::State::kAborted);
  EXPECT_EQ(h.b.counters().served, 0u);
  check::audit(h.router);
}

TEST(MigrationLedger, LateZombieCopyBouncesOffTheFence) {
  RouterParams params;
  params.migration_timeout = milliseconds(100);
  params.migration_max_retries = 0;
  params.migration_bandwidth = mbps(0.01);  // ~1 s wire, far past the timeout
  ChaosHarness h(params);

  const std::uint64_t s = h.router.open_session(h.profile);
  auto reqs = h.submit(s, 5);
  h.sim.spawn(h.router.migrate(s, 1));
  h.sim.run_until(seconds(60));

  // The transfer was written off and aborted home; when the slow copy
  // finally landed, the target's fence rejected it — exactly once, no
  // double execution.
  const RouterCounters counts = h.router.counters();
  EXPECT_EQ(counts.aborted_migrations, 1u);
  EXPECT_EQ(counts.late_imports_rejected, 1u);
  EXPECT_EQ(counts.zombie_imports, 0u);
  EXPECT_EQ(h.b.counters().rejected_imports, 1u);
  EXPECT_EQ(h.b.counters().served, 0u);
  EXPECT_EQ(h.b.queue().size(), 0u);
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->reply->done.triggered());
    EXPECT_EQ(r->reply->status, core::SuffixStatus::kServed);
  }
  check::audit(h.router);
}

TEST(MigrationLedger, NaiveDropStrandsAndAbsorbsTheZombie) {
  // The measurable-loss baseline: no return-to-source, no fencing of the
  // written-off transfer. The dropped payload strands its jobs, and the
  // late copy is absorbed as a zombie — the audit still balances because
  // it accounts for both pathologies explicitly.
  RouterParams params;
  params.migration_timeout = milliseconds(100);
  params.migration_max_retries = 0;
  params.migration_bandwidth = mbps(0.01);  // ~1 s wire, far past the timeout
  params.return_to_source = false;
  ChaosHarness h(params);

  const std::uint64_t s = h.router.open_session(h.profile);
  auto reqs = h.submit(s, 5);
  h.sim.spawn(h.router.migrate(s, 1));
  h.sim.run_until(seconds(60));

  const RouterCounters counts = h.router.counters();
  EXPECT_EQ(counts.aborted_migrations, 1u);
  EXPECT_EQ(counts.stranded_jobs, 4u);
  EXPECT_EQ(counts.zombie_imports, 4u);
  ASSERT_EQ(h.router.ledger().size(), 1u);
  EXPECT_EQ(h.router.ledger()[0].state, MigrationRecord::State::kDropped);
  // The zombie re-materialized the jobs at the target, which served them —
  // late, after the client had written them off.
  EXPECT_EQ(h.b.counters().migrated_in, 4u);
  EXPECT_GT(h.b.counters().served, 0u);
  check::audit(h.router);
}

TEST(MigrationLedger, IdsAreIndicesAndCountersFoldEveryEntry) {
  // One session migrates twice: out while the interconnect works (commits),
  // back after it has died (times out and aborts home). The ledger is the
  // only record of both, so counters() must count each entry and every job
  // it carried — the jobs the servers themselves exported.
  RouterParams params;
  params.migration_timeout = milliseconds(100);
  params.migration_max_retries = 0;
  ChaosHarness h(params);
  fault::FaultPlan plan;
  plan.packet_loss(seconds(1), seconds(60), 1.0);
  h.router.attach_interconnect_faults(&plan);

  const std::uint64_t s = h.router.open_session(h.profile);
  auto reqs = h.submit(s, 5);
  h.sim.spawn(h.router.migrate(s, 1));
  h.sim.run_until(seconds(5));
  ASSERT_EQ(h.router.binding(s).server, 1u);

  for (int i = 0; i < 3; ++i) {
    reqs.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.b.submit(reqs.back()->request(s, 5)),
              core::SubmitStatus::kAccepted);
  }
  h.sim.spawn(h.router.migrate(s, 0));
  h.sim.run_until(seconds(60));

  const std::vector<MigrationRecord>& ledger = h.router.ledger();
  ASSERT_EQ(ledger.size(), 2u);
  for (std::size_t i = 0; i < ledger.size(); ++i) EXPECT_EQ(ledger[i].id, i);
  EXPECT_EQ(ledger[0].state, MigrationRecord::State::kCommitted);
  EXPECT_EQ(ledger[1].state, MigrationRecord::State::kAborted);

  const RouterCounters counts = h.router.counters();
  EXPECT_EQ(counts.migrations, 2u);
  EXPECT_EQ(h.router.migrations(), counts.migrations);
  EXPECT_EQ(counts.migrated_jobs, 6u);  // 4 out, then 2 of the 3 queued
  EXPECT_EQ(counts.migrated_jobs,
            h.a.counters().migrated_out + h.b.counters().migrated_out);
  EXPECT_EQ(counts.aborted_migrations, 1u);
  EXPECT_EQ(counts.stranded_jobs, 0u);
  EXPECT_EQ(h.router.binding(s).server, 1u);  // the abort brought it home
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->reply->done.triggered());
    EXPECT_EQ(r->reply->status, core::SuffixStatus::kServed);
  }
  check::audit(h.router);
}

// --------------------------------------------------- quorum + chaos --

TEST(RunCluster, QuorumLossDegradesToLocalAndRecovers) {
  ClusterConfig config;
  config.servers = 2;
  config.duration = seconds(20);
  config.warmup = seconds(4);
  config.seed = 11;
  config.degrade_to_local = true;
  config.router.heartbeat_period = milliseconds(250);
  config.router.detector.mode = DetectorParams::Mode::kDeadline;
  config.runtime.fault.rpc_timeout_sec = 0.5;
  config.runtime.fault.max_retries = 1;
  config.runtime.fault.local_fallback = true;

  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 4;
  spec.policy = core::Policy::kNeurosurgeon;
  spec.upload = net::BandwidthTrace::constant(mbps(20));
  spec.download = net::BandwidthTrace::constant(mbps(20));
  spec.request_gap = milliseconds(5);
  config.tenants.push_back(spec);

  // Both heartbeat channels go dark for 6 s: the detector loses the whole
  // fleet, quorum collapses, and the router must freeze and push clients
  // local until the blackout lifts.
  for (int i = 0; i < 2; ++i) {
    fault::FaultPlan plan;
    plan.link_blackout(seconds(8), seconds(14));
    config.heartbeat_faults.push_back(plan);
  }

  check::ClusterAuditor auditor;
  config.on_audit = std::ref(auditor);

  const auto result = run_cluster(config, bundle());
  EXPECT_GT(auditor.audits(), 0u);
  EXPECT_GE(result.degrade_transitions, 2u);  // in and back out
  EXPECT_EQ(result.summarize().failed(), 0u);
  EXPECT_EQ(result.stranded_jobs, 0u);
  // The servers never actually died: any kDead verdicts were false
  // suspicion, and any reroutes they triggered were unnecessary but safe.
  EXPECT_EQ(result.false_reroutes, result.reroutes);
}

TEST(RunCluster, ChaosRunsAreDeterministicAndAuditedEveryHeartbeat) {
  const std::uint64_t seed = 42;
  auto run = [&](std::uint64_t* audits) {
    ClusterConfig config = check::random_cluster_config(seed);
    check::ClusterAuditor auditor;
    config.on_audit = std::ref(auditor);
    config.audit_period = config.router.heartbeat_period;
    const auto result = run_cluster(config, bundle());
    *audits = auditor.audits();
    return result;
  };
  std::uint64_t audits_a = 0, audits_b = 0;
  const auto a = run(&audits_a);
  const auto b = run(&audits_b);

  EXPECT_GT(audits_a, 0u);
  EXPECT_EQ(audits_a, audits_b);
  EXPECT_EQ(a.stranded_jobs, 0u);  // robust config: chaos loses nothing
  EXPECT_EQ(a.zombie_imports, 0u);
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
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.aborted_migrations, b.aborted_migrations);
  EXPECT_EQ(a.migration_retries, b.migration_retries);
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i)
    EXPECT_EQ(a.servers[i].fenced_jobs, b.servers[i].fenced_jobs);
  EXPECT_EQ(a.death_events, b.death_events);
}

}  // namespace
}  // namespace lp::cluster

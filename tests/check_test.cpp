#include <gtest/gtest.h>

#include <cmath>

#include "check/differential.h"
#include "check/generators.h"
#include "check/invariants.h"
#include "check/model.h"
#include "common/check.h"
#include "core/load_factor.h"
#include "net/estimator.h"
#include "partition/cache.h"
#include "serve/fleet.h"
#include "serve/queue.h"

namespace lp::check {
namespace {

partition::PlanPtr plan_for(std::size_t p) {
  partition::PartitionPlan plan;
  plan.p = p;
  return std::make_shared<const partition::PartitionPlan>(std::move(plan));
}

// ---------------------------------------------------------------- satellite
// regressions: each of these failed on the pre-fix code.

TEST(PartitionCacheRegression, ClearResetsStatistics) {
  partition::PartitionCache cache(2);
  cache.insert(plan_for(1));
  EXPECT_NE(cache.find(1), nullptr);  // hit
  EXPECT_EQ(cache.find(9), nullptr);  // miss
  cache.insert(plan_for(2));
  cache.insert(plan_for(3));  // evicts p=1 (capacity 2)
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);

  // A cleared cache must be indistinguishable from a freshly constructed
  // one: entries AND statistics. Pre-fix, clear() kept the counters, so a
  // re-warmed session's hit_rate() blended pre-wipe traffic.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.hit_rate(), 0.0);
  audit(cache);
}

TEST(PartitionCacheRegression, ResetStatsKeepsEntries) {
  partition::PartitionCache cache(4);
  cache.insert(plan_for(1));
  cache.insert(plan_for(2));
  EXPECT_NE(cache.find(1), nullptr);
  cache.reset_stats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 2u);  // entries survive a stats reset
  EXPECT_NE(cache.peek(1), nullptr);
  audit(cache);
}

TEST(RequestQueueRegression, BacklogExactUnderCatastrophicCancellation) {
  // Pre-fix the backlog was kept by clamped floating-point subtraction:
  // pushing 1e16 then 1.0 rounds the incremental sum to 1e16, and popping
  // the 1e16 job reported max(0, 1e16 - 1e16) = 0 — the queued 1-second
  // job vanished from admission control's view. Recompute-on-removal
  // reports exactly 1.0.
  serve::RequestQueue queue(serve::QueuePolicy::kFifo, 4);
  serve::QueuedJob big;
  big.seq = 0;
  big.predicted_sec = 1e16;
  serve::QueuedJob small;
  small.seq = 1;
  small.predicted_sec = 1.0;
  ASSERT_TRUE(queue.push(big));
  ASSERT_TRUE(queue.push(small));
  EXPECT_EQ(queue.pop_next().seq, 0u);  // FIFO: the 1e16 job leaves
  EXPECT_EQ(queue.predicted_backlog_sec(), 1.0);
  audit(queue);
}

TEST(RequestQueueRegression, BacklogExactUnderOutOfOrderRemoval) {
  // SPJF removes jobs in a different order than they arrived — the case
  // where incremental subtraction accumulates rounding drift. The backlog
  // must stay exactly equal to the sum over the surviving jobs.
  serve::RequestQueue queue(serve::QueuePolicy::kSpjf, 8);
  const double preds[] = {0.3, 1e12, 1e-7, 0.1, 7e8, 2e-3};
  std::uint64_t seq = 0;
  for (double p : preds) {
    serve::QueuedJob job;
    job.seq = seq++;
    job.predicted_sec = p;
    ASSERT_TRUE(queue.push(job));
  }
  while (!queue.empty()) {
    queue.pop_next();
    double expected = 0.0;
    for (const serve::QueuedJob& job : queue.jobs())
      expected += job.predicted_sec;
    EXPECT_EQ(queue.predicted_backlog_sec(), expected);
    audit(queue);
  }
  EXPECT_EQ(queue.predicted_backlog_sec(), 0.0);
}

TEST(EstimatorRegression, ZeroDurationTransferDroppedNotFatal) {
  // The coarse simulated clock can round a tiny probe's transfer time to
  // 0 ns. Pre-fix that tripped LP_CHECK(duration > 0) and crashed the
  // client; now the sample is dropped (it carries no bandwidth
  // information) and the estimate is untouched.
  net::BandwidthEstimator est(4, mbps(8));
  EXPECT_NO_THROW(est.add_transfer(1024, 0));
  EXPECT_DOUBLE_EQ(est.estimate(), mbps(8));
  audit(est);
  // A negative duration is still a programming error.
  EXPECT_THROW(est.add_transfer(1024, -1), ContractError);
}

TEST(LoadFactorRegression, ResetIdleStartsNewMonitoringPeriod) {
  core::LoadFactorTracker tracker(4);
  tracker.record(0.002, 0.001, /*contended=*/true, 0);
  tracker.record(0.0011, 0.001, /*contended=*/false, 0);
  EXPECT_EQ(tracker.records(), 2u);
  // Pre-fix reset_idle() kept records_, so "records this monitoring
  // period" silently meant "records ever": the count never restarted with
  // the period it is documented to describe.
  tracker.reset_idle(0);
  EXPECT_EQ(tracker.records(), 0u);
  tracker.record(0.003, 0.001, false, 0);
  EXPECT_EQ(tracker.records(), 1u);
  audit(tracker);
}

// ------------------------------------------------------------ invariant
// layer units.

TEST(ClockMonitor, ThrowsWhenTimeMovesBackwards) {
  ClockMonitor clock;
  clock.observe(milliseconds(10));
  clock.observe(milliseconds(10));  // equal is fine (same instant)
  clock.observe(milliseconds(25));
  EXPECT_EQ(clock.observations(), 3u);
  EXPECT_EQ(clock.last(), milliseconds(25));
  EXPECT_THROW(clock.observe(milliseconds(24)), ContractError);
}

TEST(Invariants, FreshStructuresPassAudit) {
  serve::RequestQueue queue(serve::QueuePolicy::kEdf, 8);
  partition::PartitionCache cache(4);
  core::LoadFactorTracker tracker(8);
  net::BandwidthEstimator est(4, mbps(8));
  EXPECT_NO_THROW(audit(queue));
  EXPECT_NO_THROW(audit(cache));
  EXPECT_NO_THROW(audit(tracker));
  EXPECT_NO_THROW(audit(est));
}

TEST(ReferenceLru, MirrorsDocumentedSemantics) {
  ReferenceLru ref(2);
  EXPECT_FALSE(ref.find(1));  // miss
  ref.insert(1);
  ref.insert(2);
  EXPECT_TRUE(ref.find(1));  // hit refreshes recency
  ref.insert(3);             // evicts 2 (LRU)
  EXPECT_EQ(ref.keys(), (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(ref.hits, 1u);
  EXPECT_EQ(ref.misses, 1u);
  EXPECT_EQ(ref.evictions, 1u);
}

// ---------------------------------------------------------- differential
// suites. Fixed seeds: a pass here is reproducible, and a failure prints
// the case seed for replay through tools/check_fuzz.

TEST(Differential, DecisionThousandCases) {
  // ISSUE acceptance bar: >= 1000 randomized graphs / predictors / k /
  // bandwidths where decide == decide_brute_force == partition_decision
  // (p and latency), DADS never better, and DADS exactly equal on chains.
  EXPECT_EQ(run_diff(CaseKind::kDecision, /*seed=*/42, 1000), 1000u);
}

TEST(Differential, CacheAgainstReferenceLru) {
  EXPECT_EQ(run_diff(CaseKind::kCache, /*seed=*/43, 300), 300u);
}

TEST(Differential, QueueAgainstReferenceScan) {
  EXPECT_EQ(run_diff(CaseKind::kQueue, /*seed=*/44, 300), 300u);
}

TEST(Differential, FleetRunsWithInvariantsArmed) {
  // Randomized fleets (tenants, policies, batching, crash / blackout /
  // straggle / loss schedules, timeouts) with the auditor firing every
  // 100 ms of simulated time: request conservation, queue backlog, LRU
  // and k-bound invariants must hold at every audit point.
  EXPECT_EQ(run_diff(CaseKind::kFleet, /*seed=*/45, 25), 25u);
}

TEST(Differential, CaseSeedDerivationIsStable) {
  // The replay contract rests on (seed, index) always naming the same
  // case, and neighbouring indices being decorrelated.
  EXPECT_EQ(case_seed(42, 7), case_seed(42, 7));
  EXPECT_NE(case_seed(42, 7), case_seed(42, 8));
  EXPECT_NE(case_seed(42, 7), case_seed(43, 7));
}

TEST(Generators, DeterministicGivenSeed) {
  const graph::Graph a = random_graph(99);
  const graph::Graph b = random_graph(99);
  EXPECT_EQ(a.n(), b.n());
  const serve::FleetConfig ca = random_fleet_config(5);
  const serve::FleetConfig cb = random_fleet_config(5);
  EXPECT_EQ(ca.duration, cb.duration);
  EXPECT_EQ(ca.tenants.size(), cb.tenants.size());
  ASSERT_FALSE(ca.tenants.empty());
  EXPECT_EQ(ca.tenants[0].model, cb.tenants[0].model);
}

TEST(Generators, ShrunkLevelsNeverGrow) {
  GraphGenOptions opts;
  for (int level = 0; level <= 3; ++level) {
    const GraphGenOptions s = opts.shrunk(level);
    EXPECT_LE(s.max_blocks, opts.max_blocks);
    EXPECT_LE(s.min_blocks, s.max_blocks);
    EXPECT_LE(s.spatial, opts.spatial);
    EXPECT_LE(s.channels, opts.channels);
  }
}

TEST(Generators, ChainOnlyGraphsAreSinglePath) {
  // chain_only graphs back the DADS-equality assertion: no CNode's output
  // may fan out to more than one consumer (no residual/concat forks).
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GraphGenOptions opts;
    opts.chain_only = true;
    const graph::Graph g = random_graph(seed, opts);
    for (graph::NodeId id : g.backbone())
      EXPECT_LE(g.consumers()[static_cast<std::size_t>(id)].size(), 1u)
          << "seed " << seed;
  }
}

}  // namespace
}  // namespace lp::check

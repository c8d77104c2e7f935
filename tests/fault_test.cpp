#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace lp::fault {
namespace {

// ------------------------------------------------------------- backoff --

TEST(Backoff, ExponentialWithinJitterBounds) {
  BackoffPolicy policy;  // base 50 ms, x2, cap 2 s, jitter 10%
  Rng rng(7);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const double raw = std::min(
        policy.base_sec * std::pow(policy.mult, attempt - 1), policy.max_sec);
    const double got = to_seconds(policy.delay(attempt, rng));
    EXPECT_GE(got, raw * (1.0 - policy.jitter_frac)) << attempt;
    EXPECT_LE(got, raw * (1.0 + policy.jitter_frac)) << attempt;
  }
}

TEST(Backoff, CapsAtMax) {
  BackoffPolicy policy;
  policy.jitter_frac = 0.0;
  Rng rng(7);
  // 50 -> 100 -> 200 -> 400 -> 800 -> 1600 -> 2000 (cap) -> 2000 ...
  EXPECT_EQ(policy.delay(1, rng), milliseconds(50));
  EXPECT_EQ(policy.delay(2, rng), milliseconds(100));
  EXPECT_EQ(policy.delay(6, rng), milliseconds(1600));
  EXPECT_EQ(policy.delay(7, rng), seconds(2));
  EXPECT_EQ(policy.delay(50, rng), seconds(2));
}

TEST(Backoff, JitterIsDeterministicUnderFixedSeed) {
  BackoffPolicy policy;
  Rng a(123), b(123), c(124);
  std::vector<DurationNs> sa, sb, sc;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    sa.push_back(policy.delay(attempt, a));
    sb.push_back(policy.delay(attempt, b));
    sc.push_back(policy.delay(attempt, c));
  }
  EXPECT_EQ(sa, sb);  // same seed, same retry instants
  EXPECT_NE(sa, sc);  // different seed, different jitter
}

TEST(Backoff, NeverNegativeAndValidatesJitter) {
  BackoffPolicy policy;
  policy.base_sec = 1e-9;
  policy.jitter_frac = 0.99;  // jitter can reach -99%
  Rng rng(5);
  for (int attempt = 1; attempt <= 20; ++attempt)
    EXPECT_GE(policy.delay(attempt, rng), 0);
  policy.jitter_frac = 1.0;  // out of contract: full-cancel jitter
  EXPECT_THROW(policy.delay(1, rng), ContractError);
}

// ------------------------------------------------------- circuit breaker --

TEST(CircuitBreaker, DisabledAlwaysAllows) {
  CircuitBreaker breaker(0, seconds(5));
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 10; ++i) breaker.record_failure(seconds(i));
  EXPECT_TRUE(breaker.allow(seconds(100)));
  EXPECT_EQ(breaker.state(seconds(100)), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, OpensAtThresholdAndCoolsDown) {
  CircuitBreaker breaker(3, seconds(5));
  EXPECT_TRUE(breaker.enabled());
  breaker.record_failure(seconds(1));
  breaker.record_failure(seconds(2));
  EXPECT_EQ(breaker.state(seconds(2)), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(seconds(2)));
  breaker.record_failure(seconds(3));  // third consecutive: open
  EXPECT_EQ(breaker.state(seconds(3)), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(seconds(3)));
  EXPECT_FALSE(breaker.allow(seconds(7)));  // still cooling down
  EXPECT_EQ(breaker.consecutive_failures(), 3);
}

TEST(CircuitBreaker, SuccessClearsTheRun) {
  CircuitBreaker breaker(3, seconds(5));
  breaker.record_failure(seconds(1));
  breaker.record_failure(seconds(2));
  breaker.record_success();
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  breaker.record_failure(seconds(3));
  breaker.record_failure(seconds(4));
  // Still closed: the success broke the run of failures.
  EXPECT_EQ(breaker.state(seconds(4)), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreaker breaker(2, seconds(5));
  breaker.record_failure(seconds(1));
  breaker.record_failure(seconds(2));  // open at t=2, cooldown to t=7
  EXPECT_EQ(breaker.state(seconds(7)), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(seconds(7)));    // the probe
  EXPECT_FALSE(breaker.allow(seconds(7)));   // nothing else
  EXPECT_FALSE(breaker.allow(seconds(8)));   // until the probe resolves
}

TEST(CircuitBreaker, ProbeSuccessCloses) {
  CircuitBreaker breaker(2, seconds(5));
  breaker.record_failure(seconds(1));
  breaker.record_failure(seconds(2));
  EXPECT_TRUE(breaker.allow(seconds(7)));
  breaker.record_success();
  EXPECT_EQ(breaker.state(seconds(7)), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(seconds(7)));
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreaker, NonMonotonicNowIsClampedToTheHighWaterMark) {
  // Sim tasks can resume out of order and hand the breaker a stale `now`.
  // The breaker's clock must never run backwards: once a call has observed
  // t=16 (half-open), an earlier-stamped call must not see kOpen again —
  // state(now) and allow(now) stay consistent across the reordering.
  CircuitBreaker breaker(2, seconds(5));
  breaker.record_failure(seconds(9));
  breaker.record_failure(seconds(10));  // open at t=10, cooldown to t=15
  EXPECT_EQ(breaker.state(seconds(16)), CircuitBreaker::State::kHalfOpen);
  // A straggler stamped t=12 arrives after the t=16 observation.
  EXPECT_EQ(breaker.state(seconds(12)), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(seconds(12)));   // the probe, not a refusal
  EXPECT_FALSE(breaker.allow(seconds(12)));  // probe outstanding
  // A stale-stamped probe failure re-opens *from the high-water mark*,
  // not from the stale instant: cooldown runs t=16..21, not t=12..17.
  breaker.record_failure(seconds(12));
  EXPECT_EQ(breaker.state(seconds(18)), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(seconds(21)), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreaker, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker(2, seconds(5));
  breaker.record_failure(seconds(1));
  breaker.record_failure(seconds(2));
  EXPECT_TRUE(breaker.allow(seconds(7)));
  breaker.record_failure(seconds(8));  // probe failed: re-open at t=8
  EXPECT_EQ(breaker.state(seconds(9)), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(seconds(12)));  // cooldown runs from t=8
  EXPECT_EQ(breaker.state(seconds(13)), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(seconds(13)));
}

// ------------------------------------------------------------ fault plan --

TEST(FaultPlan, WindowsAndQueries) {
  FaultPlan plan;
  plan.link_blackout(seconds(10), seconds(20))
      .link_degrade(seconds(30), seconds(40), mbps(1))
      .packet_loss(seconds(50), seconds(60), 0.25)
      .server_crash(seconds(70), seconds(80))
      .straggle(seconds(90), seconds(100), 4.0);
  EXPECT_FALSE(plan.empty());

  EXPECT_FALSE(plan.link_down(seconds(9)));
  EXPECT_TRUE(plan.link_down(seconds(10)));   // [begin, end)
  EXPECT_TRUE(plan.link_down(seconds(19)));
  EXPECT_FALSE(plan.link_down(seconds(20)));
  EXPECT_FALSE(plan.link_down(seconds(35)));  // degraded, not down

  EXPECT_DOUBLE_EQ(plan.loss_prob(seconds(49)), 0.0);
  EXPECT_DOUBLE_EQ(plan.loss_prob(seconds(55)), 0.25);
  EXPECT_DOUBLE_EQ(plan.loss_prob(seconds(60)), 0.0);

  EXPECT_FALSE(plan.server_down(seconds(69)));
  EXPECT_TRUE(plan.server_down(seconds(75)));
  EXPECT_FALSE(plan.server_down(seconds(80)));

  EXPECT_DOUBLE_EQ(plan.straggle_factor(seconds(89)), 1.0);
  EXPECT_DOUBLE_EQ(plan.straggle_factor(seconds(95)), 4.0);

  EXPECT_TRUE(FaultPlan().empty());
}

TEST(FaultPlan, LastAddedLossWindowWins) {
  FaultPlan plan;
  plan.packet_loss(seconds(0), seconds(100), 0.1)
      .packet_loss(seconds(40), seconds(60), 0.5);
  EXPECT_DOUBLE_EQ(plan.loss_prob(seconds(10)), 0.1);
  EXPECT_DOUBLE_EQ(plan.loss_prob(seconds(50)), 0.5);
  EXPECT_DOUBLE_EQ(plan.loss_prob(seconds(70)), 0.1);
}

TEST(FaultPlan, RejectsBadWindows) {
  FaultPlan plan;
  EXPECT_THROW(plan.link_blackout(seconds(5), seconds(5)), ContractError);
  EXPECT_THROW(plan.link_blackout(-seconds(1), seconds(5)), ContractError);
  EXPECT_THROW(plan.packet_loss(0, seconds(1), 1.5), ContractError);
  plan.server_crash(seconds(10), seconds(20));
  // Crash windows must be ordered and non-overlapping.
  EXPECT_THROW(plan.server_crash(seconds(15), seconds(30)), ContractError);
  EXPECT_THROW(plan.server_crash(seconds(5), seconds(9)), ContractError);
}

TEST(FaultPlan, GilbertElliottScheduleIsDeterministic) {
  const auto a = FaultPlan::gilbert_elliott_link(
      seconds(300), mbps(0.5), seconds(25), seconds(8), 99);
  const auto b = FaultPlan::gilbert_elliott_link(
      seconds(300), mbps(0.5), seconds(25), seconds(8), 99);
  ASSERT_EQ(a.link_faults().size(), b.link_faults().size());
  ASSERT_GE(a.link_faults().size(), 2u);
  for (std::size_t i = 0; i < a.link_faults().size(); ++i) {
    EXPECT_EQ(a.link_faults()[i].window.begin,
              b.link_faults()[i].window.begin);
    EXPECT_EQ(a.link_faults()[i].window.end, b.link_faults()[i].window.end);
    EXPECT_DOUBLE_EQ(a.link_faults()[i].bandwidth, mbps(0.5));
  }
}

TEST(FaultPlan, GilbertElliottWindowsAreOrderedDisjointAndSeeded) {
  const auto a = FaultPlan::gilbert_elliott_link(
      seconds(300), mbps(0.5), seconds(25), seconds(8), 7);
  const auto& windows = a.link_faults();
  ASSERT_GE(windows.size(), 2u);  // several bursts in 300 s
  // Starting good: each bad window is preceded by a good dwell, so the
  // windows are ordered, non-empty and never overlap.
  EXPECT_GT(windows.front().window.begin, 0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_LT(windows[i].window.begin, windows[i].window.end) << i;
    EXPECT_LT(windows[i].window.begin, seconds(300)) << i;
    if (i > 0) {
      EXPECT_LE(windows[i - 1].window.end, windows[i].window.begin) << i;
    }
  }
  // Different seeds give different burst boundaries.
  const auto c = FaultPlan::gilbert_elliott_link(
      seconds(300), mbps(0.5), seconds(25), seconds(8), 8);
  bool any_diff = c.link_faults().size() != windows.size();
  for (std::size_t i = 0;
       !any_diff && i < std::min(windows.size(), c.link_faults().size());
       ++i)
    any_diff = windows[i].window.begin != c.link_faults()[i].window.begin;
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, GilbertElliottDwellMeansRoughlyRespected) {
  const auto plan = FaultPlan::gilbert_elliott_link(
      seconds(100000), mbps(1), seconds(30), seconds(10), 3);
  const auto& windows = plan.link_faults();
  ASSERT_FALSE(windows.empty());
  // Each window is one bad dwell, preceded by one good dwell.
  double good_total = 0.0, bad_total = 0.0;
  TimeNs good_since = 0;
  for (const FaultPlan::LinkFault& f : windows) {
    good_total += to_seconds(f.window.begin - good_since);
    bad_total += to_seconds(f.window.end - f.window.begin);
    good_since = f.window.end;
  }
  const double n = static_cast<double>(windows.size());
  EXPECT_NEAR(good_total / n, 30.0, 3.0);
  EXPECT_NEAR(bad_total / n, 10.0, 1.5);
}

// ------------------------------------------------- link fault application --

TEST(FaultPlan, SplicesIntoBandwidthTrace) {
  const auto base = net::BandwidthTrace::constant(mbps(16));
  FaultPlan plan;
  plan.link_blackout(seconds(10), seconds(20))
      .link_degrade(seconds(30), seconds(40), mbps(2));
  const auto spliced = net::apply_link_faults(base, plan);
  EXPECT_DOUBLE_EQ(spliced.bandwidth_at(seconds(5)), mbps(16));
  EXPECT_DOUBLE_EQ(spliced.bandwidth_at(seconds(15)), 0.0);
  EXPECT_DOUBLE_EQ(spliced.bandwidth_at(seconds(25)), mbps(16));
  EXPECT_DOUBLE_EQ(spliced.bandwidth_at(seconds(35)), mbps(2));
  EXPECT_DOUBLE_EQ(spliced.bandwidth_at(seconds(45)), mbps(16));
  // The blackout is a stall, not a divide-by-zero.
  EXPECT_EQ(spliced.next_positive_at(seconds(15)), seconds(20));
}

sim::Task do_upload(net::Link& link, std::int64_t bytes, TimeNs deadline,
                    net::TransferOutcome& out) {
  co_await link.upload(bytes, deadline, &out);
}

TEST(Link, BlackoutTimesOutExactlyAtDeadline) {
  sim::Simulator sim;
  const auto base = net::BandwidthTrace::constant(mbps(16));
  FaultPlan plan;
  plan.link_blackout(0, seconds(100));
  net::Link link(sim, net::apply_link_faults(base, plan),
                 net::apply_link_faults(base, plan));
  net::TransferOutcome out;
  sim.spawn(do_upload(link, 1 << 20, seconds(2), out));
  sim.run();
  EXPECT_EQ(out.status, net::TransferStatus::kTimedOut);
  EXPECT_EQ(sim.now(), seconds(2));  // gave up exactly at the deadline
}

TEST(Link, TransferStallsThroughBlackoutAndCompletes) {
  sim::Simulator sim;
  const auto base = net::BandwidthTrace::constant(mbps(16));
  FaultPlan plan;
  plan.link_blackout(0, seconds(10));
  net::Link link(sim, net::apply_link_faults(base, plan),
                 net::apply_link_faults(base, plan));
  net::TransferOutcome out;
  sim.spawn(do_upload(link, 1 << 20, seconds(60), out));
  sim.run();
  EXPECT_EQ(out.status, net::TransferStatus::kOk);
  // Stalled until t=10, then sent at the recovered bandwidth.
  EXPECT_GT(sim.now(), seconds(10));
  EXPECT_LT(sim.now(), seconds(12));
}

TEST(Link, InjectedLossIsDeterministicAndReportsKLost) {
  const auto base = net::BandwidthTrace::constant(mbps(16));
  FaultPlan plan;
  plan.packet_loss(0, seconds(1000), 1.0);  // always drop
  sim::Simulator sim;
  net::Link link(sim, base, base);
  link.attach_faults(&plan);
  net::TransferOutcome out;
  sim.spawn(do_upload(link, 1 << 20, seconds(60), out));
  sim.run();
  EXPECT_EQ(out.status, net::TransferStatus::kLost);
  // The lost attempt burned a partial send, never more than the full one.
  EXPECT_GT(out.elapsed, 0);
  EXPECT_LT(to_seconds(out.elapsed), 1.0);
}

}  // namespace
}  // namespace lp::fault

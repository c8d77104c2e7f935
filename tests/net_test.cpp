#include <gtest/gtest.h>

#include "net/bandwidth_trace.h"
#include "net/estimator.h"
#include "net/link.h"

namespace lp::net {
namespace {

TEST(BandwidthTrace, ConstantAndSteps) {
  const auto c = BandwidthTrace::constant(mbps(8));
  EXPECT_DOUBLE_EQ(c.bandwidth_at(0), mbps(8));
  EXPECT_DOUBLE_EQ(c.bandwidth_at(seconds(1000)), mbps(8));

  const BandwidthTrace t({{0, mbps(8)},
                          {seconds(10), mbps(4)},
                          {seconds(20), mbps(16)}});
  EXPECT_DOUBLE_EQ(t.bandwidth_at(seconds(5)), mbps(8));
  EXPECT_DOUBLE_EQ(t.bandwidth_at(seconds(10)), mbps(4));
  EXPECT_DOUBLE_EQ(t.bandwidth_at(seconds(15)), mbps(4));
  EXPECT_DOUBLE_EQ(t.bandwidth_at(seconds(25)), mbps(16));
}

TEST(BandwidthTrace, Fig6SweepShape) {
  const auto t = BandwidthTrace::fig6_sweep(seconds(30));
  ASSERT_EQ(t.steps().size(), 10u);
  EXPECT_DOUBLE_EQ(t.steps().front().bandwidth, mbps(8));
  EXPECT_DOUBLE_EQ(t.bandwidth_at(seconds(95)), mbps(1));   // the trough
  EXPECT_DOUBLE_EQ(t.steps().back().bandwidth, mbps(64));
}

TEST(BandwidthTrace, RejectsBadInput) {
  EXPECT_THROW(BandwidthTrace({}), ContractError);
  EXPECT_THROW(BandwidthTrace({{0, -1.0}}), ContractError);
  EXPECT_THROW(BandwidthTrace({{seconds(5), mbps(1)}, {0, mbps(2)}}),
               ContractError);
}

// Zero bandwidth is legal: it is the blackout encoding (link.h failure
// contract), not a divide-by-zero hazard.
TEST(BandwidthTrace, ZeroBandwidthIsBlackoutNotError) {
  const BandwidthTrace t(
      {{0, mbps(8)}, {seconds(10), 0.0}, {seconds(20), mbps(4)}});
  EXPECT_DOUBLE_EQ(t.bandwidth_at(seconds(15)), 0.0);
  EXPECT_EQ(t.next_positive_at(seconds(5)), seconds(5));
  EXPECT_EQ(t.next_positive_at(seconds(15)), seconds(20));
  // A trace ending dark never recovers.
  const BandwidthTrace dead({{0, mbps(8)}, {seconds(10), 0.0}});
  EXPECT_EQ(dead.next_positive_at(seconds(15)), -1);
}

sim::Task do_upload(net::Link& link, std::int64_t bytes, DurationNs& out) {
  net::TransferOutcome outcome;
  co_await link.upload(bytes, 0, &outcome);
  EXPECT_EQ(outcome.status, net::TransferStatus::kOk);
  out = outcome.elapsed;
}

TEST(Link, TransferTimeTracksBandwidth) {
  sim::Simulator sim;
  Link link(sim, BandwidthTrace::constant(mbps(8)),
            BandwidthTrace::constant(mbps(8)), milliseconds(2), 3);
  DurationNs measured = 0;
  sim.spawn(do_upload(link, 1'000'000, measured));  // 1 MB at 8 Mbps ~ 1 s
  sim.run();
  EXPECT_GT(to_seconds(measured), 0.8);
  EXPECT_LT(to_seconds(measured), 1.2);
}

TEST(Link, BandwidthChangeAffectsLaterTransfers) {
  sim::Simulator sim;
  const BandwidthTrace up({{0, mbps(8)}, {seconds(10), mbps(1)}});
  Link link(sim, up, BandwidthTrace::constant(mbps(8)), 0, 3);
  DurationNs early = 0, late = 0;
  sim.spawn(do_upload(link, 500'000, early));
  sim.call_after(seconds(12), [&] { sim.spawn(do_upload(link, 500'000, late)); });
  sim.run();
  EXPECT_GT(static_cast<double>(late) / static_cast<double>(early), 5.0);
}

TEST(Link, ZeroByteTransferCostsHalfRtt) {
  sim::Simulator sim;
  Link link(sim, BandwidthTrace::constant(mbps(8)),
            BandwidthTrace::constant(mbps(8)), milliseconds(4), 3);
  DurationNs measured = 0;
  sim.spawn(do_upload(link, 0, measured));
  sim.run();
  EXPECT_EQ(measured, milliseconds(2));
}

TEST(Estimator, SeededBeforeSamples) {
  BandwidthEstimator est(4, mbps(8));
  EXPECT_DOUBLE_EQ(est.estimate(), mbps(8));
  EXPECT_EQ(est.samples(), 0u);
}

TEST(Estimator, ConvergesToMeasuredBandwidth) {
  BandwidthEstimator est(4, mbps(8));
  // 1 Mbps transfers: 125000 bytes/s.
  for (int i = 0; i < 6; ++i) est.add_transfer(125'000, seconds(1));
  EXPECT_NEAR(est.estimate(), mbps(1), mbps(0.01));
}

TEST(Estimator, SlidingWindowForgetsOldRegime) {
  BandwidthEstimator est(4, mbps(8));
  for (int i = 0; i < 4; ++i) est.add_sample(mbps(1));
  for (int i = 0; i < 4; ++i) est.add_sample(mbps(64));
  EXPECT_NEAR(est.estimate(), mbps(64), mbps(0.5));
}

TEST(Estimator, ProbeSizeAdaptsAndClamps) {
  BandwidthEstimator est(4, mbps(8));
  const auto at8 = est.next_probe_bytes(milliseconds(25));
  EXPECT_NEAR(static_cast<double>(at8), 8e6 / 8 * 0.025, 2000);
  for (int i = 0; i < 4; ++i) est.add_sample(mbps(0.01));
  EXPECT_EQ(est.next_probe_bytes(), 1024);  // lower clamp
  for (int i = 0; i < 4; ++i) est.add_sample(mbps(10000));
  EXPECT_EQ(est.next_probe_bytes(), 256 * 1024);  // upper clamp
}

TEST(Estimator, RejectsNonPositive) {
  BandwidthEstimator est(4);
  EXPECT_THROW(est.add_sample(0.0), ContractError);
  EXPECT_THROW(est.add_transfer(0, seconds(1)), ContractError);
}

TEST(Estimator, ZeroDurationTransferDroppedNotFatal) {
  // The coarse simulated clock can round a tiny probe's transfer time down
  // to 0 ns; such a sample carries no bandwidth information (it would
  // divide to infinity), so it is dropped — not treated as a contract
  // violation that crashes the client mid-inference.
  BandwidthEstimator est(4, mbps(8));
  EXPECT_NO_THROW(est.add_transfer(1024, 0));
  EXPECT_DOUBLE_EQ(est.estimate(), mbps(8));  // still the seed estimate
  EXPECT_THROW(est.add_transfer(1024, -1), ContractError);
}

}  // namespace
}  // namespace lp::net

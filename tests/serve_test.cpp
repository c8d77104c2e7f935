#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/frontend.h"
#include "serve/queue.h"

namespace lp::serve {
namespace {

const core::PredictorBundle& bundle() {
  static const core::PredictorBundle b = core::train_default_predictors(1234);
  return b;
}

// ------------------------------------------------------------- queue --

QueuedJob make_job(std::uint64_t seq, TimeNs deadline, double predicted) {
  QueuedJob job;
  job.seq = seq;
  job.deadline = deadline;
  job.predicted_sec = predicted;
  return job;
}

TEST(RequestQueue, FifoPopsInArrivalOrder) {
  RequestQueue q(QueuePolicy::kFifo, 8);
  q.push(make_job(0, seconds(9), 0.5));
  q.push(make_job(1, seconds(1), 0.1));
  q.push(make_job(2, seconds(5), 0.9));
  EXPECT_EQ(q.pop_next().seq, 0u);
  EXPECT_EQ(q.pop_next().seq, 1u);
  EXPECT_EQ(q.pop_next().seq, 2u);
}

TEST(RequestQueue, EdfPopsEarliestDeadlineFirst) {
  RequestQueue q(QueuePolicy::kEdf, 8);
  q.push(make_job(0, seconds(9), 0.5));
  q.push(make_job(1, seconds(1), 0.1));
  q.push(make_job(2, seconds(5), 0.9));
  q.push(make_job(3, core::kNoDeadline, 0.1));  // no deadline: last
  EXPECT_EQ(q.pop_next().seq, 1u);
  EXPECT_EQ(q.pop_next().seq, 2u);
  EXPECT_EQ(q.pop_next().seq, 0u);
  EXPECT_EQ(q.pop_next().seq, 3u);
}

TEST(RequestQueue, SpjfPopsShortestPredictedFirst) {
  RequestQueue q(QueuePolicy::kSpjf, 8);
  q.push(make_job(0, core::kNoDeadline, 0.5));
  q.push(make_job(1, core::kNoDeadline, 0.1));
  q.push(make_job(2, core::kNoDeadline, 0.1));  // tie with seq 1: arrival order
  EXPECT_EQ(q.pop_next().seq, 1u);
  EXPECT_EQ(q.pop_next().seq, 2u);
  EXPECT_EQ(q.pop_next().seq, 0u);
}

TEST(RequestQueue, BoundedPushFailsWhenFullAndTracksBacklog) {
  RequestQueue q(QueuePolicy::kFifo, 2);
  EXPECT_TRUE(q.push(make_job(0, core::kNoDeadline, 0.25)));
  EXPECT_TRUE(q.push(make_job(1, core::kNoDeadline, 0.5)));
  EXPECT_DOUBLE_EQ(q.predicted_backlog_sec(), 0.75);
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(make_job(2, core::kNoDeadline, 1.0)));
  EXPECT_EQ(q.size(), 2u);
  q.pop_next();
  EXPECT_DOUBLE_EQ(q.predicted_backlog_sec(), 0.5);
}

TEST(RequestQueue, TakeMatchingOnlyMergesIdenticalModelAndCut) {
  const auto alexnet = models::make_model("alexnet");
  const auto squeezenet = models::make_model("squeezenet");
  const core::GraphCostProfile pa(alexnet, bundle());
  const core::GraphCostProfile pb(squeezenet, bundle());

  RequestQueue q(QueuePolicy::kFifo, 8);
  auto with_profile = [](QueuedJob job, const core::GraphCostProfile* prof,
                         std::size_t p) {
    job.profile = prof;
    job.p = p;
    return job;
  };
  q.push(with_profile(make_job(0, core::kNoDeadline, 0.1), &pa, 5));
  // 1, 4: batch-mates; 2: same model, other p; 3: other model, same p.
  q.push(with_profile(make_job(1, core::kNoDeadline, 0.1), &pa, 5));
  q.push(with_profile(make_job(2, core::kNoDeadline, 0.1), &pa, 7));
  q.push(with_profile(make_job(3, core::kNoDeadline, 0.1), &pb, 5));
  q.push(with_profile(make_job(4, core::kNoDeadline, 0.1), &pa, 5));

  std::vector<QueuedJob> batch;
  batch.push_back(q.pop_next());
  q.take_matching(&pa, 5, 8, &batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].seq, 0u);
  EXPECT_EQ(batch[1].seq, 1u);
  EXPECT_EQ(batch[2].seq, 4u);
  EXPECT_EQ(q.size(), 2u);  // the (pa, 7) and (pb, 5) jobs stay queued
}

TEST(RequestQueue, EdfTreatsAbsoluteDeadlineZeroAsReal) {
  // Regression: the old 0-means-none sentinel conflated a request stamped
  // deadline 0 at sim time 0 with "no deadline" and served it last.
  RequestQueue q(QueuePolicy::kEdf, 8);
  q.push(make_job(0, core::kNoDeadline, 0.1));
  q.push(make_job(1, 0, 0.1));           // legit deadline: sim time 0
  q.push(make_job(2, seconds(1), 0.1));
  EXPECT_EQ(q.pop_next().seq, 1u);
  EXPECT_EQ(q.pop_next().seq, 2u);
  EXPECT_EQ(q.pop_next().seq, 0u);
}

TEST(RequestQueue, LeastSlackOrdersByDeadlineMinusPrediction) {
  RequestQueue q(QueuePolicy::kLeastSlack, 8);
  // seq 0: slack key 9 - 0.5 = 8.5 s; seq 1: 1 - 0.1 = 0.9 s;
  // seq 2: 1.2 - 0.9 = 0.3 s (a later deadline but the least slack);
  // seq 3: no deadline, infinite slack, last.
  q.push(make_job(0, seconds(9), 0.5));
  q.push(make_job(1, seconds(1), 0.1));
  q.push(make_job(2, milliseconds(1200), 0.9));
  q.push(make_job(3, core::kNoDeadline, 0.01));
  EXPECT_EQ(q.pop_next().seq, 2u);
  EXPECT_EQ(q.pop_next().seq, 1u);
  EXPECT_EQ(q.pop_next().seq, 0u);
  EXPECT_EQ(q.pop_next().seq, 3u);
}

TEST(RequestQueue, NonFinitePredictionsAreClampedAtPush) {
  // Regression: a NaN prediction used to enter the queue, breaking the
  // SPJF strict weak ordering and poisoning the backlog sum forever.
  RequestQueue q(QueuePolicy::kSpjf, 8);
  EXPECT_TRUE(
      q.push(make_job(0, core::kNoDeadline,
                      std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(q.push(make_job(
      1, core::kNoDeadline, std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(q.push(make_job(2, core::kNoDeadline, -3.0)));
  EXPECT_TRUE(q.push(make_job(3, core::kNoDeadline, 0.25)));
  for (const QueuedJob& job : q.jobs())
    EXPECT_TRUE(std::isfinite(job.predicted_sec) && job.predicted_sec >= 0.0);
  EXPECT_DOUBLE_EQ(q.predicted_backlog_sec(), 0.25);
  // Clamped jobs key as 0 (shortest): arrival order among themselves.
  EXPECT_EQ(q.pop_next().seq, 0u);
  EXPECT_EQ(q.pop_next().seq, 1u);
  EXPECT_EQ(q.pop_next().seq, 2u);
  EXPECT_EQ(q.pop_next().seq, 3u);
}

TEST(RequestQueue, TakeMatchingFillsBatchesInPolicyOrder) {
  // Regression: batches used to fill in arrival order regardless of the
  // queue policy, letting a late-deadline co-partition job ride ahead of an
  // earlier-deadline one.
  const auto alexnet = models::make_model("alexnet");
  const core::GraphCostProfile pa(alexnet, bundle());
  RequestQueue q(QueuePolicy::kEdf, 8);
  auto with_profile = [&](QueuedJob job, std::size_t p) {
    job.profile = &pa;
    job.p = p;
    return job;
  };
  q.push(with_profile(make_job(0, seconds(5), 0.1), 5));
  q.push(with_profile(make_job(1, seconds(9), 0.1), 5));
  q.push(with_profile(make_job(2, seconds(1), 0.1), 5));
  q.push(with_profile(make_job(3, seconds(2), 0.1), 5));

  std::vector<QueuedJob> batch;
  batch.push_back(q.pop_next());  // seq 2: earliest deadline
  q.take_matching(&pa, 5, 2, &batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].seq, 2u);
  EXPECT_EQ(batch[1].seq, 3u);  // deadline 2 s beats 5 s and 9 s
  EXPECT_EQ(batch[2].seq, 0u);
  EXPECT_EQ(q.jobs().front().seq, 1u);
}

TEST(RequestQueue, TakeMatchingNeverBatchesExpiredJobs) {
  const auto alexnet = models::make_model("alexnet");
  const core::GraphCostProfile pa(alexnet, bundle());
  RequestQueue q(QueuePolicy::kEdf, 8);
  auto with_profile = [&](QueuedJob job, std::size_t p) {
    job.profile = &pa;
    job.p = p;
    return job;
  };
  q.push(with_profile(make_job(0, seconds(5), 0.1), 5));
  q.push(with_profile(make_job(1, seconds(1), 0.1), 5));  // expired at 2 s
  q.push(with_profile(make_job(2, core::kNoDeadline, 0.1), 5));

  std::vector<QueuedJob> batch;
  batch.push_back(q.pop_next());  // seq 1 pops (this test isolates batching)
  q.take_matching(&pa, 5, 8, &batch, /*expired_cutoff=*/seconds(2));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1].seq, 0u);
  EXPECT_EQ(batch[2].seq, 2u);  // deadline-free jobs are never "expired"
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, TakeExpiredSweepsPassedDeadlinesInArrivalOrder) {
  RequestQueue q(QueuePolicy::kFifo, 8);
  q.push(make_job(0, seconds(3), 0.1));
  q.push(make_job(1, seconds(1), 0.1));
  q.push(make_job(2, core::kNoDeadline, 0.1));
  q.push(make_job(3, seconds(2), 0.1));
  const auto expired = q.take_expired(seconds(2));
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].seq, 1u);
  EXPECT_EQ(expired[1].seq, 3u);  // deadline == now counts: 0 slack left
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.predicted_backlog_sec(), 0.2);
}

TEST(RequestQueue, TakeSessionKeepsArrivalOrderOnBothSides) {
  // SPJF so that pop order differs from arrival order.
  RequestQueue q(QueuePolicy::kSpjf, 8);
  const std::uint64_t sessions[] = {1, 2, 1, 2, 2, 1};
  const double predicted[] = {0.6, 0.5, 0.4, 0.3, 0.2, 0.1};
  for (std::uint64_t i = 0; i < 6; ++i) {
    QueuedJob job = make_job(i, core::kNoDeadline, predicted[i]);
    job.session = sessions[i];
    ASSERT_TRUE(q.push(job));
  }

  const auto taken = q.take_session(1);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].seq, 0u);
  EXPECT_EQ(taken[1].seq, 2u);
  EXPECT_EQ(taken[2].seq, 5u);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.jobs()[0].seq, 1u);
  EXPECT_EQ(q.jobs()[1].seq, 3u);
  EXPECT_EQ(q.jobs()[2].seq, 4u);
  // The backlog is the survivors' left-to-right sum, bit for bit.
  EXPECT_EQ(q.predicted_backlog_sec(), 0.0 + 0.5 + 0.3 + 0.2);

  // A session with nothing queued takes nothing and changes nothing.
  const double backlog = q.predicted_backlog_sec();
  EXPECT_TRUE(q.take_session(7).empty());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.predicted_backlog_sec(), backlog);

  // The survivors still pop in policy order.
  EXPECT_EQ(q.pop_next().seq, 4u);
  EXPECT_EQ(q.pop_next().seq, 3u);
  EXPECT_EQ(q.pop_next().seq, 1u);
}

TEST(RequestQueue, DrainReturnsArrivalOrderAndEmptiesTheQueue) {
  RequestQueue q(QueuePolicy::kEdf, 2);
  ASSERT_TRUE(q.push(make_job(0, seconds(9), 0.25)));
  ASSERT_TRUE(q.push(make_job(1, seconds(1), 0.5)));
  q.push_migrated(make_job(2, seconds(5), 1.0));  // past the capacity bound

  const auto all = q.drain();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 0u);
  EXPECT_EQ(all[1].seq, 1u);
  EXPECT_EQ(all[2].seq, 2u);
  EXPECT_TRUE(all[2].migrated);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.predicted_backlog_sec(), 0.0);
  EXPECT_EQ(q.migrated_in_queue(), 0u);

  // The drained queue admits up to its capacity again.
  EXPECT_TRUE(q.push(make_job(3, seconds(2), 0.125)));
  EXPECT_TRUE(q.push(make_job(4, seconds(2), 0.125)));
  EXPECT_FALSE(q.push(make_job(5, seconds(2), 0.125)));
  EXPECT_EQ(q.predicted_backlog_sec(), 0.25);
}

// ---------------------------------------------------------- frontend --

struct FrontendHarness {
  sim::Simulator sim;
  hw::GpuModel gpu;
  hw::GpuScheduler scheduler;
  graph::Graph model;
  core::GraphCostProfile profile;
  EdgeServerFrontend frontend;

  explicit FrontendHarness(FrontendParams params,
                           core::RuntimeParams runtime = {})
      : scheduler(sim),
        model(models::make_model("alexnet")),
        profile(model, bundle()),
        frontend(sim, scheduler, gpu, params, runtime, 99) {}
};

struct PendingRequest {
  std::shared_ptr<core::SuffixReply> reply;
  core::SubmitStatus status = core::SubmitStatus::kRejected;

  explicit PendingRequest(sim::Simulator& sim)
      : reply(std::make_shared<core::SuffixReply>(sim)) {}

  core::SuffixRequest request(std::uint64_t session, std::size_t p,
                              TimeNs deadline = core::kNoDeadline) {
    core::SuffixRequest r;
    r.p = p;
    r.reply = reply;
    r.session = session;
    r.deadline = deadline;
    return r;
  }
};

TEST(EdgeServerFrontend, BatchesOnlyIdenticalCuts) {
  FrontendParams params;
  params.max_batch = 4;
  FrontendHarness h(params);
  const auto a = h.frontend.open_session(h.profile);
  const auto b = h.frontend.open_session(h.profile);

  // Three compatible jobs and one at a different cut, submitted before the
  // service loop runs: the compatible ones coalesce into one dispatch.
  PendingRequest r1(h.sim), r2(h.sim), r3(h.sim), r4(h.sim);
  r1.status = h.frontend.submit(r1.request(a, 5));
  r2.status = h.frontend.submit(r2.request(b, 5));
  r3.status = h.frontend.submit(r3.request(a, 5));
  r4.status = h.frontend.submit(r4.request(b, 7));
  h.sim.run_until(seconds(30));

  EXPECT_EQ(r1.status, core::SubmitStatus::kAccepted);
  EXPECT_TRUE(r1.reply->done.triggered());
  EXPECT_TRUE(r4.reply->done.triggered());
  EXPECT_EQ(h.frontend.counters().served, 4u);
  EXPECT_EQ(h.frontend.counters().dispatches, 2u);
  EXPECT_EQ(h.frontend.counters().batched_dispatches, 1u);
  EXPECT_EQ(h.frontend.counters().batched_jobs, 3u);
  EXPECT_EQ(h.scheduler.coalesced_jobs(), 3u);
  // Batch-mates finish together and report the same contended time.
  EXPECT_DOUBLE_EQ(r1.reply->exec, r2.reply->exec);
  EXPECT_DOUBLE_EQ(r1.reply->exec, r3.reply->exec);
}

TEST(EdgeServerFrontend, ShedsWhenQueueFullOrOverBudget) {
  FrontendParams params;
  params.queue_capacity = 2;
  FrontendHarness h(params);
  const auto s = h.frontend.open_session(h.profile);

  PendingRequest r1(h.sim), r2(h.sim), r3(h.sim);
  EXPECT_EQ(h.frontend.submit(r1.request(s, 5)),
            core::SubmitStatus::kAccepted);
  EXPECT_EQ(h.frontend.submit(r2.request(s, 5)),
            core::SubmitStatus::kAccepted);
  // Queue holds 2: the third arrival before any dispatch is shed.
  EXPECT_EQ(h.frontend.submit(r3.request(s, 5)),
            core::SubmitStatus::kRejected);
  EXPECT_EQ(h.frontend.counters().shed, 1u);

  // Admission control with a zero budget sheds even with queue space.
  FrontendParams strict;
  strict.admission_control = true;
  strict.delay_budget_sec = 0.0;
  FrontendHarness h2(strict);
  const auto s2 = h2.frontend.open_session(h2.profile);
  PendingRequest q1(h2.sim), q2(h2.sim);
  EXPECT_EQ(h2.frontend.submit(q1.request(s2, 5)),
            core::SubmitStatus::kAccepted);  // empty queue: delay 0 <= 0
  EXPECT_EQ(h2.frontend.submit(q2.request(s2, 5)),
            core::SubmitStatus::kRejected);  // backlog now > 0
}

TEST(EdgeServerFrontend, WillMissSheddingFailsExpiredJobsTyped) {
  FrontendParams params;
  params.shed_will_miss = true;
  FrontendHarness h(params);
  const auto s = h.frontend.open_session(h.profile);

  // r1 (no deadline) occupies the GPU; r2's 1 ms deadline passes while it
  // queues behind the dispatch, so the dispatcher sheds it typed instead of
  // running a guaranteed miss.
  PendingRequest r1(h.sim), r2(h.sim);
  ASSERT_EQ(h.frontend.submit(r1.request(s, 5)),
            core::SubmitStatus::kAccepted);
  ASSERT_EQ(h.frontend.submit(r2.request(s, 5, milliseconds(1))),
            core::SubmitStatus::kAccepted);
  h.sim.run_until(seconds(30));

  EXPECT_TRUE(r1.reply->done.triggered());
  EXPECT_EQ(r1.reply->status, core::SuffixStatus::kServed);
  EXPECT_TRUE(r2.reply->done.triggered());
  EXPECT_EQ(r2.reply->status, core::SuffixStatus::kDeadlineShed);
  EXPECT_EQ(h.frontend.counters().served, 1u);
  EXPECT_EQ(h.frontend.counters().deadline_shed, 1u);
  EXPECT_EQ(h.frontend.counters().failed_jobs, 1u);
  EXPECT_EQ(h.frontend.queue_depth(), 0u);
}

TEST(EdgeServerFrontend, WillMissSheddingOffLetsExpiredJobsRun) {
  // Same timeline with the flag off: the expired job still runs (legacy
  // behavior) and is served late.
  FrontendHarness h(FrontendParams{});
  const auto s = h.frontend.open_session(h.profile);
  PendingRequest r1(h.sim), r2(h.sim);
  ASSERT_EQ(h.frontend.submit(r1.request(s, 5)),
            core::SubmitStatus::kAccepted);
  ASSERT_EQ(h.frontend.submit(r2.request(s, 5, milliseconds(1))),
            core::SubmitStatus::kAccepted);
  h.sim.run_until(seconds(30));
  EXPECT_EQ(r2.reply->status, core::SuffixStatus::kServed);
  EXPECT_EQ(h.frontend.counters().served, 2u);
  EXPECT_EQ(h.frontend.counters().deadline_shed, 0u);
}

TEST(EdgeServerFrontend, DeadlineAdmissionShedsHopelessSubmissions) {
  FrontendParams params;
  params.deadline_admission = true;
  FrontendHarness h(params);
  const auto s = h.frontend.open_session(h.profile);

  // An empty queue admits a feasible deadline...
  PendingRequest r1(h.sim);
  EXPECT_EQ(h.frontend.submit(r1.request(s, 5, seconds(30))),
            core::SubmitStatus::kAccepted);
  // ...but a request whose own deadline cannot cover even the predicted
  // service is shed at submit, typed as a deadline-admission shed.
  PendingRequest r2(h.sim);
  EXPECT_EQ(h.frontend.submit(r2.request(s, 5, 1)),
            core::SubmitStatus::kRejected);
  EXPECT_EQ(h.frontend.counters().shed, 1u);
  EXPECT_EQ(h.frontend.counters().deadline_shed_admission, 1u);
  // Deadline-free requests are never tested against the deadline check.
  PendingRequest r3(h.sim);
  EXPECT_EQ(h.frontend.submit(r3.request(s, 5)),
            core::SubmitStatus::kAccepted);
}

TEST(EdgeServerFrontend, SessionsTrackKIndependently) {
  FrontendParams params;
  FrontendHarness h(params);
  const auto busy = h.frontend.open_session(h.profile);
  const auto idle = h.frontend.open_session(h.profile);

  // The busy session floods the frontend so its later requests queue
  // behind its earlier ones; the idle session never submits.
  std::vector<std::unique_ptr<PendingRequest>> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.frontend.submit(requests.back()->request(busy, 5)),
              core::SubmitStatus::kAccepted);
  }
  h.sim.run_until(seconds(60));

  EXPECT_GT(h.frontend.session_tracker(busy).k(), 1.5);
  EXPECT_DOUBLE_EQ(h.frontend.session_tracker(idle).k(), 1.0);
  // And the per-session partition caches are isolated too.
  EXPECT_EQ(h.frontend.session_cache(busy).size(), 1u);
  EXPECT_EQ(h.frontend.session_cache(idle).size(), 0u);
}

TEST(EdgeServerFrontend, RejectsMalformedRequests) {
  FrontendHarness h(FrontendParams{});
  const auto s = h.frontend.open_session(h.profile);
  PendingRequest r(h.sim);
  EXPECT_THROW(h.frontend.submit(r.request(s, h.profile.n())),
               ContractError);
  EXPECT_THROW(h.frontend.submit(r.request(s + 1, 5)), ContractError);
  core::SuffixRequest no_reply;
  no_reply.p = 5;
  no_reply.session = s;
  EXPECT_THROW(h.frontend.submit(no_reply), ContractError);
}

// ---------------------------------------------------- crash / restart --

TEST(EdgeServerFrontend, CrashFailsInFlightAndQueuedWithServerDown) {
  FrontendHarness h(FrontendParams{});
  const auto s = h.frontend.open_session(h.profile);

  // r1 dispatches immediately (and is mid-preparation when the crash
  // lands); r2 is still queued behind it.
  PendingRequest r1(h.sim), r2(h.sim);
  ASSERT_EQ(h.frontend.submit(r1.request(s, 5)),
            core::SubmitStatus::kAccepted);
  ASSERT_EQ(h.frontend.submit(r2.request(s, 5)),
            core::SubmitStatus::kAccepted);
  h.sim.call_after(milliseconds(1), [&] { h.frontend.crash(); });
  h.sim.run_until(seconds(30));

  // Both terminate with a typed server-down result — never a hang.
  EXPECT_TRUE(r1.reply->done.triggered());
  EXPECT_TRUE(r2.reply->done.triggered());
  EXPECT_EQ(r1.reply->status, core::SuffixStatus::kServerDown);
  EXPECT_EQ(r2.reply->status, core::SuffixStatus::kServerDown);
  EXPECT_EQ(h.frontend.counters().failed_jobs, 2u);
  EXPECT_EQ(h.frontend.counters().served, 0u);  // the abandoned batch never counts
  EXPECT_EQ(h.frontend.queue_depth(), 0u);
  EXPECT_FALSE(h.frontend.alive());
  EXPECT_EQ(h.frontend.counters().crashes, 1u);
}

TEST(EdgeServerFrontend, ClientTimeoutSurvivesACrashOrFenceInTheSameNs) {
  // The client's deadline watcher resolves a queued job's reply as a
  // timeout; a crash or a fence reaching the job in the same nanosecond
  // must not overwrite the status the client is about to read: the first
  // resolution wins.
  for (const bool crash : {true, false}) {
    SCOPED_TRACE(crash ? "crash" : "fence");
    FrontendHarness h(FrontendParams{});
    const auto s = h.frontend.open_session(h.profile);
    PendingRequest busy(h.sim), r(h.sim);
    ASSERT_EQ(h.frontend.submit(busy.request(s, 5)),
              core::SubmitStatus::kAccepted);  // dispatched at once
    ASSERT_EQ(h.frontend.submit(r.request(s, 5)),
              core::SubmitStatus::kAccepted);  // queued behind it
    h.sim.call_after(milliseconds(1), [&] {
      r.reply->resolve(core::SuffixStatus::kClientTimeout);
    });
    h.sim.call_after(milliseconds(1), [&] {
      if (crash) {
        h.frontend.crash();
      } else {
        h.frontend.fence_session(s, 1);
      }
    });
    h.sim.run_until(seconds(30));
    EXPECT_EQ(r.reply->status, core::SuffixStatus::kClientTimeout);
    EXPECT_EQ(busy.reply->status, crash ? core::SuffixStatus::kServerDown
                                        : core::SuffixStatus::kFenced);
    EXPECT_EQ(h.frontend.counters().failed_jobs, 2u);
  }
}

TEST(EdgeServerFrontend, CrashedServerRefusesSubmissionsUntilRestart) {
  FrontendHarness h(FrontendParams{});
  const auto s = h.frontend.open_session(h.profile);
  h.frontend.crash();
  PendingRequest r(h.sim);
  EXPECT_EQ(h.frontend.submit(r.request(s, 5)), core::SubmitStatus::kDown);
  EXPECT_EQ(h.frontend.counters().refused, 1u);
  EXPECT_FALSE(r.reply->done.triggered());  // nothing was enqueued

  h.frontend.restart();
  EXPECT_TRUE(h.frontend.alive());
  PendingRequest r2(h.sim);
  EXPECT_EQ(h.frontend.submit(r2.request(s, 5)),
            core::SubmitStatus::kAccepted);
  h.sim.run_until(seconds(30));
  EXPECT_TRUE(r2.reply->done.triggered());
  EXPECT_EQ(r2.reply->status, core::SuffixStatus::kServed);
  EXPECT_EQ(h.frontend.counters().served, 1u);
}

TEST(EdgeServerFrontend, CrashWipesPartitionCacheAndKWindow) {
  FrontendParams params;
  FrontendHarness h(params);
  const auto s = h.frontend.open_session(h.profile);

  // Warm the session: queueing drives k above idle and the partition
  // cache holds p = 5.
  std::vector<std::unique_ptr<PendingRequest>> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(std::make_unique<PendingRequest>(h.sim));
    ASSERT_EQ(h.frontend.submit(requests.back()->request(s, 5)),
              core::SubmitStatus::kAccepted);
  }
  h.sim.run_until(seconds(60));
  ASSERT_GT(h.frontend.session_tracker(s).k(), 1.5);
  ASSERT_EQ(h.frontend.session_cache(s).size(), 1u);

  // The crash wipes both: cold cache, idle k, empty queue.
  h.frontend.crash();
  EXPECT_EQ(h.frontend.session_cache(s).size(), 0u);
  EXPECT_DOUBLE_EQ(h.frontend.session_tracker(s).k(), 1.0);
  EXPECT_EQ(h.frontend.queue_depth(), 0u);

  // After restart the first request re-pays the partition overhead.
  h.frontend.restart();
  PendingRequest cold(h.sim);
  ASSERT_EQ(h.frontend.submit(cold.request(s, 5)),
            core::SubmitStatus::kAccepted);
  h.sim.run_until(seconds(120));
  EXPECT_TRUE(cold.reply->done.triggered());
  EXPECT_GT(cold.reply->overhead, 0.0);
  EXPECT_EQ(h.frontend.session_cache(s).size(), 1u);
}

TEST(EdgeServerFrontend, CrashFenceAndExportLeaveTheSessionEquallyCold) {
  // Each path that drops a session's volatile state leaves it like a
  // session that was never used: an empty partition cache with zeroed
  // statistics and a fresh k tracker.
  enum class Path { kCrash, kFence, kExport };
  for (Path path : {Path::kCrash, Path::kFence, Path::kExport}) {
    SCOPED_TRACE(static_cast<int>(path));
    FrontendHarness h(FrontendParams{});
    const auto s = h.frontend.open_session(h.profile);
    const auto unused = h.frontend.open_session(h.profile);

    std::vector<std::unique_ptr<PendingRequest>> requests;
    for (int i = 0; i < 12; ++i) {
      requests.push_back(std::make_unique<PendingRequest>(h.sim));
      ASSERT_EQ(h.frontend.submit(requests.back()->request(s, 5)),
                core::SubmitStatus::kAccepted);
    }
    h.sim.run_until(seconds(60));
    ASSERT_GT(h.frontend.session_tracker(s).k(), 1.5);
    ASSERT_GT(h.frontend.session_cache(s).hits(), 0u);

    switch (path) {
      case Path::kCrash:
        h.frontend.crash();
        break;
      case Path::kFence:
        h.frontend.fence_session(s, 1);
        break;
      case Path::kExport:
        h.frontend.export_session(s);
        break;
    }
    const auto& cache = h.frontend.session_cache(s);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_TRUE(h.frontend.session_tracker(s) ==
                h.frontend.session_tracker(unused));
  }
}

TEST(EdgeServerFrontend, ImportFromADifferentlyConfiguredServerThrows) {
  // A payload shaped by other RuntimeParams would not read the same bits
  // here, so import refuses it typed, before touching a counter, a job or
  // the session.
  core::RuntimeParams target_runtime;
  target_runtime.predictor.kind = "ewma";
  core::RuntimeParams holt = target_runtime;
  holt.predictor.kind = "holt";
  core::RuntimeParams window = target_runtime;
  window.k_window = 8;
  core::RuntimeParams cache = target_runtime;
  cache.cache_capacity = 4;

  // Warms session `s` on `h`, then leaves two more jobs queued.
  auto warm = [](FrontendHarness& h, std::uint64_t s,
                 std::vector<std::unique_ptr<PendingRequest>>& requests) {
    for (int i = 0; i < 8; ++i) {
      if (i == 6) h.sim.run_until(seconds(60));
      requests.push_back(std::make_unique<PendingRequest>(h.sim));
      ASSERT_EQ(h.frontend.submit(requests.back()->request(s, 5)),
                core::SubmitStatus::kAccepted);
    }
  };
  auto counters_json = [](const EdgeServerFrontend& frontend) {
    obs::MetricsRegistry registry;
    frontend.counters().publish(registry, "serve");
    return registry.to_json();
  };
  auto queued_seqs = [](const EdgeServerFrontend& frontend) {
    std::vector<std::uint64_t> seqs;
    for (const QueuedJob& job : frontend.queue().jobs())
      seqs.push_back(job.seq);
    return seqs;
  };

  for (const core::RuntimeParams& source_runtime : {holt, window, cache}) {
    FrontendHarness source(FrontendParams{}, source_runtime);
    const auto s = source.frontend.open_session(source.profile);
    std::vector<std::unique_ptr<PendingRequest>> source_requests;
    warm(source, s, source_requests);
    SessionExport ex = source.frontend.export_session(s);
    ASSERT_EQ(ex.jobs.size(), 2u);

    FrontendHarness target(FrontendParams{}, target_runtime);
    const auto t = target.frontend.open_session(target.profile);
    ASSERT_EQ(t, s);
    std::vector<std::unique_ptr<PendingRequest>> target_requests;
    warm(target, t, target_requests);
    const std::string counters = counters_json(target.frontend);
    const std::vector<std::uint64_t> queued = queued_seqs(target.frontend);
    const SessionState session{target.frontend.session_tracker(t),
                               target.frontend.session_cache(t)};

    EXPECT_THROW(target.frontend.import_session(t, std::move(ex)),
                 ContractError);
    EXPECT_EQ(counters_json(target.frontend), counters);
    EXPECT_EQ(queued_seqs(target.frontend), queued);
    EXPECT_TRUE((SessionState{target.frontend.session_tracker(t),
                              target.frontend.session_cache(t)} == session));
    EXPECT_EQ(target.frontend.session_fence(t), 0u);
  }
}

TEST(EdgeServerFrontend, ColdRequestCountsOneCacheMiss) {
  FrontendHarness h(FrontendParams{});
  const auto s = h.frontend.open_session(h.profile);
  PendingRequest cold(h.sim);
  ASSERT_EQ(h.frontend.submit(cold.request(s, 5)),
            core::SubmitStatus::kAccepted);
  h.sim.run_until(seconds(30));
  ASSERT_TRUE(cold.reply->done.triggered());
  EXPECT_GT(cold.reply->overhead, 0.0);
  // One lookup per job: caching p after the preparation delay is not a
  // second lookup.
  EXPECT_EQ(h.frontend.session_cache(s).hits(), 0u);
  EXPECT_EQ(h.frontend.session_cache(s).misses(), 1u);
}

TEST(EdgeServerFrontend, ClientAndSessionBothCacheTheCut) {
  // A client offloading through a frontend session: the device cache and
  // the session cache each record the cut after preparing their side.
  FrontendHarness h(FrontendParams{});
  hw::CpuModel cpu;
  net::Link link(h.sim, net::BandwidthTrace::constant(mbps(8)),
                 net::BandwidthTrace::constant(mbps(8)), milliseconds(2), 19);
  const auto s = h.frontend.open_session(h.profile);
  core::OffloadClient client(h.sim, cpu, h.profile, link, h.frontend,
                             core::Policy::kLoadPart, {}, /*seed=*/6, s);
  core::InferenceRecord rec;
  h.sim.spawn(client.infer(&rec));
  h.sim.run_until(seconds(30));
  const std::size_t p = rec.p;
  ASSERT_GT(p, 0u);
  ASSERT_LT(p, h.model.n());  // both sides prepared a segment
  const std::vector<std::size_t> cut{p};
  EXPECT_EQ(client.cache().lru_keys(), cut);
  EXPECT_EQ(h.frontend.session_cache(s).lru_keys(), cut);
}

// ------------------------------------------------------------- fleet --

FleetConfig overload_fleet(std::uint64_t seed) {
  FleetConfig config;
  config.duration = seconds(20);
  config.warmup = seconds(5);
  config.seed = seed;
  TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 12;
  spec.policy = core::Policy::kNeurosurgeon;
  // Fast links so queueing (not transfer time) dominates the latency.
  spec.upload = net::BandwidthTrace::constant(mbps(100));
  spec.download = net::BandwidthTrace::constant(mbps(100));
  spec.request_gap = milliseconds(5);
  spec.slo_sec = 0.25;
  config.tenants.push_back(spec);
  config.frontend.policy = QueuePolicy::kEdf;
  config.frontend.admission_control = true;
  config.frontend.delay_budget_sec = 0.05;
  config.frontend.queue_capacity = 16;
  return config;
}

TEST(FleetDriver, OverloadShedsAndClientsDegradeToLocal) {
  const auto result = run_fleet(overload_fleet(3), bundle());
  EXPECT_GT(result.frontend.shed, 0u);
  const auto summary = result.summarize();
  EXPECT_GT(summary.requests(), 0u);
  EXPECT_GT(summary.degraded(), 0u);
  EXPECT_GT(summary.admitted(), 0u);
  // Every record carries a consistent outcome: degraded requests ran the
  // suffix on the device and never observed server time.
  for (const auto* rec : result.steady())
    if (rec->outcome == core::InferenceOutcome::kDegradedLocal) {
      EXPECT_DOUBLE_EQ(rec->server_sec, 0.0);
      EXPECT_GT(rec->device_sec, 0.0);
    }
}

TEST(FleetDriver, AdmissionControlBoundsAdmittedTail) {
  // Same offered load; only the frontend differs. The admitted p90 under
  // EDF+admission must beat FIFO-no-admission.
  FleetConfig open = overload_fleet(5);
  open.frontend.policy = QueuePolicy::kFifo;
  open.frontend.admission_control = false;
  open.frontend.queue_capacity = 256;
  FleetConfig guarded = overload_fleet(5);

  const auto open_summary = run_fleet(open, bundle()).summarize();
  const auto guarded_summary = run_fleet(guarded, bundle()).summarize();
  ASSERT_GT(open_summary.admitted(), 0u);
  ASSERT_GT(guarded_summary.admitted(), 0u);
  EXPECT_LT(guarded_summary.admitted_p90_ms, open_summary.admitted_p90_ms);
}

TEST(FleetDriver, DeterministicGivenSeed) {
  const auto a = run_fleet(overload_fleet(11), bundle());
  const auto b = run_fleet(overload_fleet(11), bundle());
  ASSERT_EQ(a.clients.size(), b.clients.size());
  ASSERT_GT(a.steady().size(), 0u);
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    const auto& ra = a.clients[i].records;
    const auto& rb = b.clients[i].records;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].start, rb[j].start);
      EXPECT_EQ(ra[j].p, rb[j].p);
      EXPECT_DOUBLE_EQ(ra[j].total_sec, rb[j].total_sec);
      EXPECT_DOUBLE_EQ(ra[j].queue_wait_sec, rb[j].queue_wait_sec);
      EXPECT_EQ(ra[j].outcome, rb[j].outcome);
    }
  }
  EXPECT_EQ(a.frontend.shed, b.frontend.shed);
  EXPECT_EQ(a.frontend.dispatches, b.frontend.dispatches);
}

TEST(FleetDriver, BatchingRaisesServedThroughput) {
  // Full offload (p = 0): the GPU runs the whole dispatch-dominated graph,
  // so it is the bottleneck and coalescing identical suffixes pays.
  FleetConfig config;
  config.duration = seconds(15);
  config.warmup = seconds(3);
  config.seed = 9;
  config.runtime.fixed_p = 0;
  TenantSpec spec;
  spec.model = "resnet18";
  spec.clients = 16;
  spec.policy = core::Policy::kFixedPoint;
  spec.upload = net::BandwidthTrace::constant(mbps(100));
  spec.download = net::BandwidthTrace::constant(mbps(100));
  spec.request_gap = milliseconds(2);
  config.tenants.push_back(spec);

  FleetConfig batched = config;
  batched.frontend.max_batch = 8;
  batched.frontend.batch_window = milliseconds(2);

  const auto plain = run_fleet(config, bundle());
  const auto coalesced = run_fleet(batched, bundle());
  EXPECT_EQ(plain.frontend.batched_dispatches, 0u);
  EXPECT_GT(coalesced.frontend.batched_jobs, 0u);
  EXPECT_GT(coalesced.summarize().admitted(), plain.summarize().admitted());
}

TEST(FleetDriver, DegradeBacksOffLoadPartClientsTowardLocal) {
  // A frontend that sheds everything: LoADPart clients must stop
  // offloading (k backoff drives the cut to p = n), while the records of
  // the rejected attempts are marked degraded.
  FleetConfig config;
  config.duration = seconds(20);
  config.warmup = seconds(0);
  config.seed = 13;
  config.frontend.admission_control = true;
  config.frontend.delay_budget_sec = -1.0;  // always over budget
  // The profiler resets k from the (idle-looking) server session; keep it
  // out of the way so the reject backoff can compound to full retreat.
  config.profiler_period = seconds(60);
  TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 2;
  spec.policy = core::Policy::kLoadPart;
  spec.upload = net::BandwidthTrace::constant(mbps(100));
  spec.download = net::BandwidthTrace::constant(mbps(100));
  spec.request_gap = milliseconds(5);
  config.tenants.push_back(spec);

  const auto result = run_fleet(config, bundle());
  const auto summary = result.summarize();
  EXPECT_EQ(summary.admitted(), 0u);
  EXPECT_GT(summary.degraded(), 0u);
  // By the end of the run the fleet has retreated to local inference.
  std::size_t n = 0;
  for (const auto& trace : result.clients) {
    ASSERT_FALSE(trace.records.empty());
    n = std::max(n, trace.records.back().p);
  }
  const auto model = models::make_model("alexnet");
  EXPECT_EQ(n, model.n());
}

FleetConfig crashy_fleet(std::uint64_t seed, bool local_fallback) {
  FleetConfig config;
  config.duration = seconds(20);
  config.warmup = seconds(2);
  config.seed = seed;
  config.faults.server_crash(seconds(6), seconds(10));
  config.runtime.fault.rpc_timeout_sec = 0.5;
  config.runtime.fault.max_retries = 1;
  config.runtime.fault.local_fallback = local_fallback;
  config.runtime.fault.breaker_failures = 3;
  config.runtime.fault.breaker_cooldown_sec = 1.0;
  TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 3;
  spec.policy = core::Policy::kLoadPart;
  spec.upload = net::BandwidthTrace::constant(mbps(16));
  spec.download = net::BandwidthTrace::constant(mbps(16));
  spec.request_gap = milliseconds(10);
  config.tenants.push_back(spec);
  return config;
}

TEST(FleetDriver, ServerCrashRecoversLocallyWithoutLosingRequests) {
  const auto result = run_fleet(crashy_fleet(21, true), bundle());
  const auto summary = result.summarize();
  EXPECT_EQ(result.frontend.crashes, 1u);
  EXPECT_GT(result.frontend.refused, 0u);  // submissions hit the crashed server
  ASSERT_GT(summary.requests(), 0u);
  // With local fallback nothing is lost: every request that met a fault
  // terminated with a typed recovery, and the breaker pinned followers to
  // local while the server was gone.
  EXPECT_EQ(summary.failed(), 0u);
  EXPECT_GT(summary.recovered(), 0u);
  EXPECT_GT(summary.server_downs(), 0u);
  EXPECT_GT(summary.breaker_forced_local(), 0u);
  // Service resumes after restart: requests are admitted again late in
  // the run (the re-warm handshake works against wiped sessions).
  bool admitted_after_restart = false;
  for (const auto* rec : result.steady())
    if (rec->start > seconds(12) &&
        rec->outcome == core::InferenceOutcome::kAdmitted)
      admitted_after_restart = true;
  EXPECT_TRUE(admitted_after_restart);
}

TEST(FleetDriver, FailStopLosesRequestsAcrossTheCrash) {
  const auto result = run_fleet(crashy_fleet(21, false), bundle());
  const auto summary = result.summarize();
  EXPECT_GT(summary.failed(), 0u);
  EXPECT_EQ(summary.recovered(), 0u);
  // Lost requests still terminated (typed, no hang): they carry the
  // server-down taxonomy rather than a latency.
  for (const auto* rec : result.steady()) {
    if (rec->outcome == core::InferenceOutcome::kFailed) {
      EXPECT_NE(rec->last_failure, core::FailureKind::kNone);
    }
  }
}

TEST(FleetDriver, FaultRunsAreDeterministic) {
  const auto a = run_fleet(crashy_fleet(33, true), bundle());
  const auto b = run_fleet(crashy_fleet(33, true), bundle());
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    const auto& ra = a.clients[i].records;
    const auto& rb = b.clients[i].records;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].start, rb[j].start);
      EXPECT_DOUBLE_EQ(ra[j].total_sec, rb[j].total_sec);
      EXPECT_EQ(ra[j].outcome, rb[j].outcome);
      EXPECT_EQ(ra[j].last_failure, rb[j].last_failure);
      EXPECT_EQ(ra[j].retries, rb[j].retries);
    }
  }
  EXPECT_EQ(a.frontend.refused, b.frontend.refused);
  EXPECT_EQ(a.frontend.failed_jobs, b.frontend.failed_jobs);
}

TEST(FleetDriver, LeastSlackWithSheddingConservesAndShedsTyped) {
  // The overloaded EDF fleet rerun under least-slack + will-miss shedding:
  // sheds surface typed, every record still terminates, and the frontend's
  // conservation equations hold with the new counters.
  FleetConfig config = overload_fleet(7);
  config.frontend.policy = QueuePolicy::kLeastSlack;
  config.frontend.shed_will_miss = true;
  // No admission at all, a deep queue and a deadline tighter than the
  // closed-loop backlog: queued jobs keep expiring, so the will-miss
  // shedder fires throughout the run (deadline admission would prevent
  // exactly that; it gets its own assertion below).
  config.frontend.admission_control = false;
  config.frontend.queue_capacity = 64;
  for (auto& tenant : config.tenants) tenant.slo_sec = 0.05;

  const auto result = run_fleet(config, bundle());
  const auto& f = result.frontend;
  EXPECT_EQ(f.submitted, f.admitted + f.shed + f.refused);
  EXPECT_EQ(f.admitted + f.migrated_in, f.served + f.failed_jobs +
                                            f.queue_depth + f.inflight_jobs +
                                            f.migrated_out);
  EXPECT_LE(f.deadline_shed + f.fenced_jobs, f.failed_jobs);
  EXPECT_EQ(f.deadline_shed_admission, 0u);  // admission checks were off

  const auto summary = result.summarize();
  ASSERT_GT(summary.requests(), 0u);
  EXPECT_EQ(summary.failed(), 0u);  // sheds degrade locally, never lose work
  // Dispatcher sheds reach the client taxonomy as kDeadlineShed records
  // (the summary only folds steady-state records, so it is a lower bound
  // on the whole-run frontend counter).
  EXPECT_GT(f.deadline_shed, 0u);
  EXPECT_GT(summary.deadline_sheds(), 0u);
  EXPECT_LE(summary.deadline_sheds(), f.deadline_shed);
  for (const auto* rec : result.steady())
    if (rec->last_failure == core::FailureKind::kDeadlineShed) {
      EXPECT_EQ(rec->outcome, core::InferenceOutcome::kDegradedLocal);
      EXPECT_DOUBLE_EQ(rec->server_sec, 0.0);
    }

  // Same fleet with deadline admission on top: hopeless submissions are now
  // refused at the door, counted separately from dispatcher sheds and
  // bounded by the overall shed tally.
  config.frontend.deadline_admission = true;
  const auto gated = run_fleet(config, bundle());
  EXPECT_GT(gated.frontend.deadline_shed_admission, 0u);
  EXPECT_LE(gated.frontend.deadline_shed_admission, gated.frontend.shed);
  EXPECT_EQ(gated.frontend.submitted,
            gated.frontend.admitted + gated.frontend.shed +
                gated.frontend.refused);
}

TEST(FleetDriver, DeadlineShedFleetRunsAreDeterministic) {
  FleetConfig config = overload_fleet(17);
  config.frontend.policy = QueuePolicy::kLeastSlack;
  config.frontend.shed_will_miss = true;
  const auto a = run_fleet(config, bundle());
  const auto b = run_fleet(config, bundle());
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    const auto& ra = a.clients[i].records;
    const auto& rb = b.clients[i].records;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].start, rb[j].start);
      EXPECT_DOUBLE_EQ(ra[j].total_sec, rb[j].total_sec);
      EXPECT_EQ(ra[j].outcome, rb[j].outcome);
      EXPECT_EQ(ra[j].last_failure, rb[j].last_failure);
    }
  }
  EXPECT_EQ(a.frontend.deadline_shed, b.frontend.deadline_shed);
  EXPECT_EQ(a.frontend.deadline_shed_admission,
            b.frontend.deadline_shed_admission);
}

TEST(FleetDriver, LegacyConfigsAreUnaffectedByTheFaultLayer) {
  // An empty FaultPlan plus default FaultToleranceParams must reproduce
  // the pre-fault-layer universe exactly: same records, same counters.
  const auto a = run_fleet(overload_fleet(11), bundle());
  FleetConfig with_defaults = overload_fleet(11);
  with_defaults.runtime.fault = {};  // explicit defaults
  const auto b = run_fleet(with_defaults, bundle());
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i)
    ASSERT_EQ(a.clients[i].records.size(), b.clients[i].records.size());
  EXPECT_EQ(a.frontend.shed, b.frontend.shed);
  EXPECT_EQ(a.frontend.submitted, b.frontend.submitted);
  const auto sa = a.summarize(), sb = b.summarize();
  EXPECT_DOUBLE_EQ(sa.mean_ms, sb.mean_ms);
  EXPECT_EQ(sa.failed(), 0u);
  EXPECT_EQ(sa.recovered(), 0u);
}

TEST(ClientTrace, EqualityComparesEveryRecordField) {
  // The benches' determinism checks compare whole record streams with ==,
  // so a difference in any one field, the tenant or the length must show.
  using Record = core::InferenceRecord;
  const std::vector<void (*)(Record&)> edits = {
      [](Record& r) { r.start += 1; },
      [](Record& r) { r.p += 1; },
      [](Record& r) { r.total_sec += 1e-9; },
      [](Record& r) { r.device_sec += 1e-9; },
      [](Record& r) { r.upload_sec += 1e-9; },
      [](Record& r) { r.server_sec += 1e-9; },
      [](Record& r) { r.download_sec += 1e-9; },
      [](Record& r) { r.overhead_sec += 1e-9; },
      [](Record& r) { r.weight_upload_sec += 1e-9; },
      [](Record& r) { r.upload_bytes += 1; },
      [](Record& r) { r.download_bytes += 1; },
      [](Record& r) { r.k_used += 1e-9; },
      [](Record& r) { r.bandwidth_est_bps += 1.0; },
      [](Record& r) { r.predicted_sec += 1e-9; },
      [](Record& r) { r.outcome = core::InferenceOutcome::kAdmitted; },
      [](Record& r) { r.queue_wait_sec += 1e-9; },
      [](Record& r) { r.last_failure = core::FailureKind::kTimeout; },
      [](Record& r) { r.retries += 1; },
      [](Record& r) { r.faults += 1; },
      [](Record& r) { r.breaker_forced_local = true; },
  };
  Record base;
  base.start = seconds(3);
  base.p = 4;
  base.total_sec = 0.25;
  const ClientTrace a{1, {base, base}};
  EXPECT_TRUE(a == a);
  for (std::size_t i = 0; i < edits.size(); ++i) {
    SCOPED_TRACE(i);
    ClientTrace b = a;
    edits[i](b.records[1]);
    EXPECT_FALSE(b.records[1] == a.records[1]);
    EXPECT_FALSE(b == a);
  }
  ClientTrace other_tenant = a;
  other_tenant.tenant = 2;
  EXPECT_FALSE(other_tenant == a);
  ClientTrace shorter = a;
  shorter.records.pop_back();
  EXPECT_FALSE(shorter == a);
}

}  // namespace
}  // namespace lp::serve

#include "check/invariants.h"

#include <cmath>
#include <string>
#include <unordered_set>

#include "common/check.h"
#include "predict/load_predictor.h"

namespace lp::check {

void audit(const serve::RequestQueue& queue) {
  // Migrated jobs bypass the bound (they were admitted once on their origin
  // server and must not be dropped), so the queue may exceed capacity by
  // exactly the migrated jobs still parked in it.
  LP_CHECK_MSG(queue.size() - queue.migrated_in_queue() <= queue.capacity(),
               "queue exceeds capacity beyond its migrated-in allowance");

  double recomputed = 0.0;
  std::unordered_set<std::uint64_t> seqs;
  for (const serve::QueuedJob& job : queue.jobs()) {
    LP_CHECK_MSG(std::isfinite(job.predicted_sec) && job.predicted_sec >= 0.0,
                 "queued prediction must be finite and non-negative");
    LP_CHECK_MSG(seqs.insert(job.seq).second,
                 "duplicate arrival sequence in queue");
    recomputed += job.predicted_sec;
  }
  // Exact equality, not a tolerance: the queue maintains the backlog as
  // the same left-to-right sum this loop just recomputed, so any drift is
  // an accounting bug (the clamped-subtraction scheme this replaced could
  // drift by the full magnitude of a job).
  LP_CHECK_MSG(queue.predicted_backlog_sec() == recomputed,
               "incremental backlog diverged from recomputed sum: " +
                   std::to_string(queue.predicted_backlog_sec()) + " vs " +
                   std::to_string(recomputed));
}

void audit(const partition::PartitionCache& cache) {
  LP_CHECK(cache.capacity() > 0);
  LP_CHECK(cache.size() <= cache.capacity());
  const auto keys = cache.lru_keys();
  LP_CHECK_MSG(keys.size() == cache.size(),
               "recency order and occupancy disagree");
  std::unordered_set<std::size_t> seen;
  for (std::size_t p : keys) {
    LP_CHECK_MSG(seen.insert(p).second, "duplicate key in recency order");
    const partition::PartitionPlan* plan = cache.peek(p);
    LP_CHECK_MSG(plan != nullptr, "recency key has no plan");
    LP_CHECK_MSG(plan->p == p, "plan filed under the wrong partition point");
  }
}

void audit(const core::LoadFactorTracker& tracker) {
  LP_CHECK_MSG(tracker.k() >= 1.0, "constraint 1c: k must be >= 1");
  LP_CHECK_MSG(tracker.idle_baseline() >= 1.0,
               "idle baseline must be >= 1");
  LP_CHECK(std::isfinite(tracker.k()));
  LP_CHECK(tracker.window_capacity() >= 1);
  LP_CHECK_MSG(tracker.window_size() <= tracker.window_capacity(),
               "sliding window exceeded its capacity");
}

void audit(const net::BandwidthEstimator& estimator) {
  LP_CHECK_MSG(estimator.estimate() > 0.0 &&
                   std::isfinite(estimator.estimate()),
               "bandwidth estimate must be positive and finite");
}

void audit(const serve::EdgeServerFrontend& frontend) {
  // One coherent snapshot: the audit reads the same view a cluster
  // heartbeat carries, so the invariant checked here is exactly the one
  // the router's placement decisions rely on.
  const serve::LoadSnapshot s = frontend.load_snapshot();

  // Conservation across the admission boundary: every submission was
  // admitted, shed, or refused-while-down.
  LP_CHECK_MSG(s.submitted == s.admitted + s.shed + s.refused,
               "submitted != admitted + shed + refused");

  // Conservation across the service, migration included: every job this
  // server took responsibility for (admitted here or imported via session
  // migration) has been served, failed, handed to another server, or is
  // still queued / on the GPU. Audits run at sim suspension points, where
  // the dispatch path's counter updates are atomic, so this holds at every
  // observable instant.
  LP_CHECK_MSG(s.admitted + s.migrated_in ==
                   s.served + s.failed_jobs + s.queue_depth +
                       s.inflight_jobs + s.migrated_out,
               "admitted + migrated_in != "
               "served + failed + queued + in-flight + migrated_out");

  LP_CHECK(s.queue_depth == frontend.queue().size());
  LP_CHECK(s.inflight_jobs == frontend.inflight_jobs());
  LP_CHECK(s.batched_jobs <= s.served);
  LP_CHECK(s.batched_dispatches <= s.dispatches);
  LP_CHECK(s.alive == frontend.alive());

  // Deadline-shed taxonomy: will-miss sheds and epoch fencings are disjoint
  // subsets of the failed jobs (the remainder are crash casualties), and
  // deadline-admission sheds are a subset of all sheds.
  LP_CHECK_MSG(s.deadline_shed + s.fenced_jobs <= s.failed_jobs,
               "deadline sheds + fenced jobs exceed failed jobs");
  LP_CHECK_MSG(s.deadline_shed_admission <= s.shed,
               "deadline-admission sheds exceed total sheds");

  // Fail-stop contract: a crashed server holds no work.
  if (!s.alive) {
    LP_CHECK_MSG(s.queue_depth == 0 && s.inflight_jobs == 0,
                 "crashed frontend still holds work");
  }

  // The predicted delay placement reads is well formed.
  LP_CHECK(std::isfinite(s.predicted_delay_sec) &&
           s.predicted_delay_sec >= 0.0);

  audit(frontend.queue());
  for (std::uint64_t s = 0; s < frontend.sessions(); ++s) {
    audit(frontend.session_tracker(s));
    audit(frontend.session_cache(s));
    // The session's signal honours constraint 1c on the forecast, and its
    // forecaster a trust in [0, 1] and a finite error score.
    const core::LoadSignal sig = frontend.load_signal(s, 0);
    LP_CHECK(std::isfinite(sig.k_forecast) && sig.k_forecast >= 1.0);
    const predict::LoadPredictor& predictor =
        frontend.session_tracker(s).predictor();
    LP_CHECK(predictor.confidence() >= 0.0 && predictor.confidence() <= 1.0);
    if (predictor.scored() > 0)
      LP_CHECK(std::isfinite(predictor.mae()) &&
               std::isfinite(predictor.bias()));
  }
}

void audit(const cluster::ClusterRouter& router) {
  std::uint64_t admitted = 0, settled = 0;
  std::uint64_t migrated_out = 0, migrated_in = 0;
  for (std::size_t i = 0; i < router.servers(); ++i) {
    const serve::EdgeServerFrontend& frontend = router.server(i);
    audit(frontend);
    const serve::LoadSnapshot s = frontend.load_snapshot();
    admitted += s.admitted;
    settled += s.served + s.failed_jobs + s.queue_depth + s.inflight_jobs;
    migrated_out += s.migrated_out;
    migrated_in += s.migrated_in;
    LP_CHECK_MSG(s.fenced_jobs <= s.failed_jobs,
                 "fenced jobs are a subset of failed jobs");
  }
  // Cluster-wide conservation: the per-server migration terms cancel
  // except for jobs riding a transfer between servers, jobs a dropped
  // transfer stranded (naive baseline), and stranded jobs a late zombie
  // copy re-materialized at its target (subtracted: they are stranded no
  // longer, and are back inside a server's queue/served/failed terms).
  // With fencing armed, stranded and zombie imports are both zero and
  // this is plain conservation — it must hold even when lossy heartbeats
  // make the detector falsely suspect a healthy server.
  const cluster::RouterCounters counts = router.counters();
  const std::uint64_t slack = counts.stranded_jobs - counts.zombie_imports;
  LP_CHECK_MSG(counts.zombie_imports <= counts.stranded_jobs,
               "zombie imports cannot exceed the jobs ever stranded");
  LP_CHECK_MSG(admitted == settled + router.in_transit_jobs() + slack,
               "cluster conservation: sum(admitted) != "
               "sum(served + failed + queued + in-flight) + in-transit + "
               "stranded - zombies");
  LP_CHECK_MSG(migrated_out - migrated_in ==
                   router.in_transit_jobs() + slack,
               "migration counters out of balance with the in-transit and "
               "stranded counts");

  // The exactly-once ledger: open entries carry precisely the in-transit
  // jobs, and each maps to a binding that is marked migrating.
  std::size_t open_jobs = 0;
  std::vector<std::size_t> open_per_session(router.sessions(), 0);
  for (const cluster::MigrationRecord& m : router.ledger()) {
    if (m.state != cluster::MigrationRecord::State::kInFlight) continue;
    open_jobs += m.jobs;
    LP_CHECK(m.session < router.sessions());
    ++open_per_session[m.session];
    LP_CHECK_MSG(m.epoch <= router.binding(m.session).epoch,
                 "ledger entry epoch ahead of its binding's epoch");
  }
  LP_CHECK_MSG(open_jobs == router.in_transit_jobs(),
               "open ledger entries do not sum to the in-transit count");
  for (std::uint64_t s = 0; s < router.sessions(); ++s) {
    const cluster::SessionBinding& b = router.binding(s);
    LP_CHECK_MSG(open_per_session[s] == (b.migrating ? 1u : 0u),
                 "migrating bindings and open ledger entries disagree");
    // Fences are cut from binding epochs, so no server may ever hold a
    // fence the control plane has not issued — the "no session active on
    // two servers in the same epoch" guarantee rests on this.
    for (std::size_t i = 0; i < router.servers(); ++i)
      LP_CHECK_MSG(router.server(i).session_fence(s) <= b.epoch,
                   "server fence ahead of the binding epoch");
  }
}

void ClockMonitor::observe(TimeNs now) {
  if (observations_ > 0)
    LP_CHECK_MSG(now >= last_, "simulated clock moved backwards: " +
                                   std::to_string(last_) + " -> " +
                                   std::to_string(now));
  last_ = now;
  ++observations_;
}

void FleetAuditor::operator()(const serve::EdgeServerFrontend& frontend,
                              TimeNs now) {
  clock_.observe(now);
  audit(frontend);
  ++audits_;
}

void ClusterAuditor::operator()(const cluster::ClusterRouter& router,
                                TimeNs now) {
  clock_.observe(now);
  audit(router);
  ++audits_;
}

}  // namespace lp::check

// Invariant layer (cross-cutting oracle checks).
//
// Cheap LP_CHECK-style assertions over the live state machines of the
// decision and serving planes, compiled in by default and exercised through
// the check::audit() overload set. Each audit recomputes a quantity the
// subject maintains incrementally (queue backlog, LRU bookkeeping,
// request-conservation sums) and throws lp::ContractError on divergence —
// the differential harness (check/differential.h) and the fuzz driver
// (tools/check_fuzz) arm these after every operation; tests assert they
// hold across whole fleet runs.
#pragma once

#include "cluster/router.h"
#include "common/units.h"
#include "core/load_factor.h"
#include "net/estimator.h"
#include "partition/cache.h"
#include "serve/frontend.h"
#include "serve/queue.h"

namespace lp::check {

/// RequestQueue: the incrementally maintained backlog equals (exactly, not
/// approximately) the left-to-right sum of the queued predictions; the
/// queue respects its bound up to the migrated-in allowance (jobs that
/// arrived via push_migrated bypass the capacity check); predictions are
/// non-negative and finite; arrival sequence numbers are unique.
void audit(const serve::RequestQueue& queue);

/// PartitionCache: the recency order holds each key once and as many keys
/// as the cache holds plans; occupancy respects capacity; every key
/// resolves to a plan for its own p. (Hit/miss/eviction counters need
/// history to check; the cache differential compares them against
/// ReferenceLru.)
void audit(const partition::PartitionCache& cache);

/// LoadFactorTracker: published k and idle baseline respect constraint 1c
/// (>= 1); the sliding window never exceeds its capacity.
void audit(const core::LoadFactorTracker& tracker);

/// BandwidthEstimator: the estimate is positive and finite.
void audit(const net::BandwidthEstimator& estimator);

/// EdgeServerFrontend: request conservation over its LoadSnapshot —
///     submitted == admitted + shed + refused
///     admitted + migrated_in
///               == served + failed_jobs + queued + in-flight + migrated_out
/// plus the queue audit, and per-session k / cache / bandwidth audits.
/// A crashed frontend must hold no queued or in-flight work.
void audit(const serve::EdgeServerFrontend& frontend);

/// ClusterRouter: every per-server frontend audit, plus cluster-wide
/// request conservation — across all servers, every admitted job is
/// served, failed, queued, in flight on a GPU, riding a migration
/// transfer, or (naive baseline only) stranded by a dropped transfer:
///     sum(admitted) == sum(served + failed + queued + in-flight)
///                      + in_transit + stranded - zombie_imports
/// (a zombie import re-materializes stranded jobs at the target, so they
/// stop being missing and start being double-counted — the subtraction
/// keeps the books honest in the naive arm; with fencing both terms are
/// zero and this is plain conservation, which therefore holds even under
/// false suspicion and lossy heartbeats). The migration counters balance
/// the same way:
///     sum(migrated_out) - sum(migrated_in)
///         == in_transit + stranded - zombie_imports
/// and the ledger itself is audited: kInFlight entries' jobs sum to
/// in_transit_jobs(); a migrating binding has exactly one kInFlight entry
/// (stamped at or below the binding's epoch) and a settled binding none;
/// no server's session fence ever runs ahead of the binding's epoch.
void audit(const cluster::ClusterRouter& router);

/// Sim-clock monotonicity: successive observations of a simulator's now()
/// must never decrease. Feed it from a periodic audit callback.
class ClockMonitor {
 public:
  void observe(TimeNs now);
  TimeNs last() const { return last_; }
  std::uint64_t observations() const { return observations_; }

 private:
  TimeNs last_ = 0;
  std::uint64_t observations_ = 0;
};

/// Ready-made serve::FleetConfig::on_audit callback: every frontend
/// invariant plus clock monotonicity, counting how often it fired so tests
/// can prove the audits actually ran.
class FleetAuditor {
 public:
  void operator()(const serve::EdgeServerFrontend& frontend, TimeNs now);
  std::uint64_t audits() const { return audits_; }

 private:
  ClockMonitor clock_;
  std::uint64_t audits_ = 0;
};

/// Ready-made cluster::ClusterConfig::on_audit callback: the cluster-wide
/// conservation audit plus clock monotonicity, counting its firings.
class ClusterAuditor {
 public:
  void operator()(const cluster::ClusterRouter& router, TimeNs now);
  std::uint64_t audits() const { return audits_; }

 private:
  ClockMonitor clock_;
  std::uint64_t audits_ = 0;
};

}  // namespace lp::check

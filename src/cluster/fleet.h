// run_cluster(): the multi-server testbed — N edge servers, one
// ClusterRouter, and a (optionally Zipf-skewed) tenant population.
//
// The same serve::Testbed as run_fleet(), scaled out: every server gets its
// own GPU scheduler and EdgeServerFrontend; each client opens a cluster
// session through the router (which places it per the configured policy)
// and binds directly to its home server; the router's heartbeat loop then
// reroutes sessions off crashed servers and, when rebalancing is enabled,
// live-migrates hot sessions toward cold servers. Results carry the same
// serve::TestbedResult traces and summaries as a fleet run.
//
// The Zipf-skewed population (ClusterConfig::zipf_alpha) is what makes
// static consistent-hash placement collide hot sessions on one server
// while least-loaded + migration spreads them (bench/cluster_scaling
// measures exactly that gap).
//
// Deterministic given config.seed; two same-seed runs (with or without
// telemetry) are byte-identical.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "serve/fleet.h"

namespace lp::cluster {

/// With telemetry on, servers trace on tracks "server0", "server1", ...
/// and the router on "cluster".
struct ClusterConfig : serve::TestbedConfig {
  std::size_t servers = 2;
  RouterParams router;

  /// Skew exponent for per-client request gaps (0 = homogeneous; see
  /// serve::Testbed::add_clients).
  double zipf_alpha = 0.0;

  /// Per-server fault schedules (server crashes / straggle windows),
  /// indexed by server; shorter than `servers` leaves the rest fault-free.
  std::vector<fault::FaultPlan> server_faults;

  /// Per-server heartbeat-channel fault schedules (loss probability /
  /// blackout windows on the control plane), indexed by server; empty
  /// plans are not armed. The router then sees stale snapshots and gaps
  /// instead of ground truth.
  std::vector<fault::FaultPlan> heartbeat_faults;

  /// Fault schedule for the migration interconnect (payload loss). A
  /// non-empty plan requires router.migration_timeout > 0.
  fault::FaultPlan interconnect_faults;

  /// Wire the router's quorum-loss signal to every client's force_local:
  /// while the detector sees less than a majority of the fleet, clients
  /// pin p = n (pure local execution) instead of submitting into a
  /// control plane that can no longer reroute them.
  bool degrade_to_local = false;

  /// Invariant hook (check::ClusterAuditor arms it): runs against the live
  /// router every audit_period of sim time and once after the run.
  std::function<void(const ClusterRouter&, TimeNs)> on_audit;
};

/// The router's counters at the end of the run, plus the testbed traces.
struct ClusterResult : serve::TestbedResult, RouterCounters {
  /// Final per-server load/conservation snapshots.
  std::vector<serve::LoadSnapshot> servers;

  /// (server, sim time) per kDead declaration — time-to-detect against a
  /// known crash schedule.
  std::vector<std::pair<std::size_t, TimeNs>> death_events;
};

/// Runs the cluster; deterministic given config.seed.
ClusterResult run_cluster(const ClusterConfig& config,
                          const core::PredictorBundle& predictors);

}  // namespace lp::cluster

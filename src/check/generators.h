// Deterministic random-input generators for the differential harness.
//
// Everything is reproducible from a single seed and carries a size level:
// level 0 is full-size, higher levels shrink the instance (fewer blocks,
// fewer ops, shorter fleet runs) while keeping the seed-derived structure —
// the fuzz driver re-runs a failing case at increasing levels to report the
// smallest instance that still fails.
#pragma once

#include <cstdint>

#include "cluster/fleet.h"
#include "core/predictor.h"
#include "fault/fault_plan.h"
#include "graph/graph.h"
#include "serve/fleet.h"

namespace lp::check {

/// Mixes a run seed and a case index into an independent case seed
/// (SplitMix64 finalizer, so neighbouring indices are uncorrelated).
std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index);

struct GraphGenOptions {
  int min_blocks = 2;
  int max_blocks = 6;
  std::int64_t spatial = 8;  ///< starting H = W
  std::int64_t channels = 4;
  /// Pure single-path chains (no residual/concat forks): on these every
  /// monotone cut is a topological-prefix cut, so DADS and Algorithm 1
  /// must agree exactly.
  bool chain_only = false;

  /// Returns options shrunk to the given level (level 0 = *this).
  GraphGenOptions shrunk(int level) const;
};

/// Random well-formed DAG mixing chains, residual forks (Add) and concat
/// branches; chain_only restricts to single-path graphs. Deterministic
/// given the seed. (tests/support/random_graph.h forwards here so the
/// property tests and the fuzzer draw from the same distribution.)
graph::Graph random_graph(std::uint64_t seed, GraphGenOptions options = {});

/// FLOPs-proportional linear predictors: every node kind predicts
/// sec_per_flop * FLOPs on each side. Exact, fast and deterministic — the
/// differential harness cares about the algebra of the decision, not about
/// trained-model fidelity.
core::PredictorBundle synthetic_bundle(double user_sec_per_flop = 3e-10,
                                       double edge_sec_per_flop = 5e-13);

/// Randomized fault schedule within [0, horizon): possibly a crash window,
/// a link blackout or degrade, a straggle window — or nothing (the
/// no-failure universe stays in the distribution on purpose).
fault::FaultPlan random_fault_plan(std::uint64_t seed, DurationNs horizon);

/// Randomized small fleet: 1-2 tenants, 1-3 clients each, random queue
/// policy / admission control / batching / SLOs / arrival processes /
/// fault plan / timeouts. on_audit is left unset; the caller arms it.
serve::FleetConfig random_fleet_config(std::uint64_t seed, int level = 0);

/// Randomized control-plane fault schedule within [0, horizon):
/// heartbeat-loss windows (moderate to brutal probabilities) and possibly
/// a full blackout window — or nothing. Drops only; a control plan never
/// crashes servers or straggles the data path.
fault::FaultPlan random_control_plan(std::uint64_t seed, DurationNs horizon);

/// Randomized small cluster under chaos: 2-4 servers, a skewed tenant
/// population, the missed-deadline failure detector, lossy
/// per-server heartbeat channels, a lossy migration interconnect with the
/// full timeout/retry/abort-to-source machinery armed, random crash
/// windows, and degrade-to-local wiring. Always a *robust* configuration
/// (fencing + return_to_source + timeouts) so the cluster conservation
/// audit is exact — the point of the family is that no chaos schedule can
/// break it. on_audit is left unset; the caller arms it.
cluster::ClusterConfig random_cluster_config(std::uint64_t seed,
                                             int level = 0);

}  // namespace lp::check

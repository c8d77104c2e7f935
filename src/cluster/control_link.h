// Lossy control-plane channel for heartbeats.
//
// PR 6's router read every server's LoadSnapshot as an omniscient oracle.
// ControlLink turns that read into a modeled message: each heartbeat round
// the router *sends* the snapshot over a per-server channel that can drop
// it (FaultPlan packet-loss windows and link blackouts). The router
// therefore works from whatever snapshots actually arrived — stale or
// missing — which is exactly the information model the failure detector
// is built for. A heartbeat that gets through is delivered inline, at the
// send instant.
//
// ## Determinism contract
//
// With no FaultPlan attached, send() delivers every heartbeat and draws NO
// random numbers — a chaos-free run is bit-identical to the oracle
// transport. The rng is consulted only when a plan is attached and the
// instantaneous loss probability is positive.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "serve/frontend.h"
#include "sim/simulator.h"

namespace lp::cluster {

class ControlLink {
 public:
  ControlLink(sim::Simulator& sim, std::uint64_t seed)
      : sim_(&sim), rng_(seed) {}

  /// Wires loss/blackout injection (plan must outlive the link; null
  /// detaches).
  void attach_faults(const fault::FaultPlan* plan) { faults_ = plan; }

  using Deliver = std::function<void(const serve::LoadSnapshot&)>;

  /// Sends one heartbeat. Returns false when the message was dropped by a
  /// blackout or sampled loss; otherwise `deliver` runs inline.
  bool send(const serve::LoadSnapshot& snapshot, const Deliver& deliver);

  std::uint64_t sent() const { return dropped_ + delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  sim::Simulator* sim_;
  const fault::FaultPlan* faults_ = nullptr;
  Rng rng_;
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace lp::cluster

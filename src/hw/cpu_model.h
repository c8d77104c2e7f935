// Analytic cost model of the user-end device (Raspberry Pi 4 class CPU).
//
// Ground truth for the simulation: the offline profiler measures these times
// (plus noise) to train M_user, and core::GraphCostProfile prices every
// position with node_time once per model, so the simulated client charges
// its prefix and any local suffix from that table. The model is
// FLOPs/efficiency + memory-traffic + dispatch overhead, with mild
// configuration-dependent nonlinearities so linear predictors show
// realistic errors.
#pragma once

#include "common/units.h"
#include "flops/flops.h"
#include "hw/calibration.h"

namespace lp::hw {

/// There is one simulated device: every CpuModel prices the calibration
/// constants of hw/calibration.h, so a table built from one instance holds
/// for all of them.
class CpuModel {
 public:
  const CpuModelParams& params() const { return params_; }

  /// Deterministic execution time of one computation node.
  DurationNs node_time(const flops::NodeConfig& cfg) const;

  /// Sum of node_time over a backbone segment [begin, end] (positions in
  /// the backbone order, inclusive; position 0 is the virtual L0 = free).
  DurationNs segment_time(const graph::Graph& g, std::size_t begin,
                          std::size_t end) const;

  /// Whole-graph (local inference) time.
  DurationNs graph_time(const graph::Graph& g) const;

 private:
  CpuModelParams params_;
};

/// Bytes a node's execution streams through memory: input + output
/// activations + weights.
std::int64_t node_memory_bytes(const flops::NodeConfig& cfg);

}  // namespace lp::hw

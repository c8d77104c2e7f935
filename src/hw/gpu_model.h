// Analytic per-kernel cost model of the edge server's GPU (Tesla T4 class).
//
// Each CNode of a partition becomes one kernel. Kernel duration is
// max(launch floor, compute/occupancy + memory), matching the property the
// paper leans on: individual kernels are far shorter than a scheduler time
// slice, so single-layer times are load-independent while multi-layer
// partitions queue between kernels (Section III-C). core::GraphCostProfile
// prices every position with kernel_time once per model, and
// core::suffix_kernels builds each simulated suffix dispatch from that
// table; segment_kernels and segment_time serve offline callers.
#pragma once

#include <vector>

#include "common/units.h"
#include "flops/flops.h"
#include "graph/graph.h"
#include "hw/calibration.h"

namespace lp::hw {

/// There is one simulated GPU: every GpuModel prices the calibration
/// constants of hw/calibration.h, so a table built from one instance holds
/// for all of them.
class GpuModel {
 public:
  const GpuModelParams& params() const { return params_; }

  /// Deterministic device-side duration of the kernel implementing one
  /// node — what the offline profiler measures and the LR models predict.
  /// Excludes host-side framework dispatch.
  DurationNs kernel_time(const flops::NodeConfig& cfg) const;

  /// Durations the execution stream actually occupies per node in a
  /// backbone segment [begin, end] (inclusive positions; position 0 =
  /// virtual L0 contributes nothing): kernel_time plus the per-op
  /// framework dispatch.
  std::vector<DurationNs> segment_kernels(const graph::Graph& g,
                                          std::size_t begin,
                                          std::size_t end) const;

  /// Contention-free execution time of a segment (sum of segment_kernels).
  DurationNs segment_time(const graph::Graph& g, std::size_t begin,
                          std::size_t end) const;

  /// Contention-free execution time of a segment with framework operator
  /// fusion enabled (extension; see graph/fusion.h).
  DurationNs fused_segment_time(const graph::Graph& g, std::size_t begin,
                                std::size_t end) const;

 private:
  /// Like segment_kernels, but fused: each fusion group executes as a
  /// single kernel — the anchor's full cost, a small residual for the
  /// absorbed epilogue, and one dispatch for the whole group.
  std::vector<DurationNs> fused_segment_kernels(const graph::Graph& g,
                                                std::size_t begin,
                                                std::size_t end) const;

  GpuModelParams params_;
};

}  // namespace lp::hw

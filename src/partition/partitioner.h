// DNN partitioner (Section IV, Fig. 5).
//
// Given a partition point p in the backbone order, extracts the device
// segment {L0..Lp} and the server segment {Lp+1..Ln} as standalone graphs:
//   * predecessors outside a segment become Parameters named after the
//     producing node, so boundary tensors can be bound by name;
//   * segment outputs consumed by the other segment (or the graph output)
//     feed a MakeTuple (when more than one) linked to a Return node.
// Executing the device segment, shipping the boundary tensors, and running
// the server segment reproduces the whole graph's output exactly (tested
// against the reference interpreter). Plans are for code that executes
// partitions (examples, exec benches). The simulated runtime never builds
// one: core::GraphCostProfile prices each side's segment and the boundary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace lp::partition {

struct PartitionPlan {
  std::size_t p = 0;

  /// {L0..Lp}; absent when p == 0 (full offloading: nothing runs locally).
  std::optional<graph::Graph> device_part;

  /// {Lp+1..Ln}; absent when p == n (local inference).
  std::optional<graph::Graph> server_part;

  /// Names of the tensors crossing the cut, in the order the device
  /// segment returns them. For p == 0 this is the graph input; for p == n
  /// it is empty (nothing is shipped; the result is already local).
  std::vector<std::string> boundary;

  /// Total bytes of the boundary tensors (== s_p for p < n).
  std::int64_t boundary_bytes = 0;
};

/// Extracts backbone positions [begin, end] of `g` as a standalone graph
/// that returns every tensor consumed after `end`, and the graph output.
graph::Graph extract_segment(const graph::Graph& g, std::size_t begin,
                             std::size_t end, const std::string& name);

/// Builds the partition plan for cut point p (0 <= p <= n).
PartitionPlan partition_at(const graph::Graph& g, std::size_t p);

}  // namespace lp::partition

#include "partition/partitioner.h"

#include <unordered_map>

#include "common/check.h"
#include "graph/cut.h"

namespace lp::partition {

using graph::Graph;
using graph::Node;
using graph::NodeId;
using graph::NodeKind;
using graph::OpType;

namespace {

std::vector<std::int64_t> positions_of(const Graph& g) {
  std::vector<std::int64_t> pos(g.node_count(), -1);
  for (std::size_t i = 0; i < g.backbone().size(); ++i)
    pos[static_cast<std::size_t>(g.backbone()[i])] =
        static_cast<std::int64_t>(i);
  return pos;
}

/// Backbone nodes in [begin, end] whose output is consumed after `end`, or
/// which are the graph output — the segment's boundary, in backbone order.
std::vector<NodeId> boundary_nodes(const Graph& g, std::size_t begin,
                                   std::size_t end) {
  const auto pos = positions_of(g);
  std::vector<NodeId> out;
  for (std::size_t i = begin; i <= end; ++i) {
    const NodeId id = g.backbone()[i];
    bool external = id == g.output_id();
    for (NodeId c : g.consumers()[static_cast<std::size_t>(id)]) {
      if (pos[static_cast<std::size_t>(c)] > static_cast<std::int64_t>(end))
        external = true;
    }
    if (external) out.push_back(id);
  }
  return out;
}

}  // namespace

Graph extract_segment(const Graph& g, std::size_t begin, std::size_t end,
                      const std::string& name) {
  LP_CHECK(begin <= end && end < g.backbone().size());
  const auto pos = positions_of(g);
  Graph seg(name);
  std::unordered_map<NodeId, NodeId> id_map;

  auto map_input = [&](NodeId in) -> NodeId {
    auto it = id_map.find(in);
    if (it != id_map.end()) return it->second;
    const Node& src = g.node(in);
    if (src.is_param()) {
      // Weight/bias Parameter: clone with the same name so both halves
      // derive identical deterministic values.
      Node clone;
      clone.kind = NodeKind::kParameter;
      clone.name = src.name;
      clone.output = src.output;
      const NodeId nid = seg.add_node(std::move(clone));
      id_map.emplace(in, nid);
      return nid;
    }
    // CNode produced before the segment: becomes a boundary Parameter
    // named after the producer (Fig. 5).
    LP_CHECK_MSG(pos[static_cast<std::size_t>(in)] <
                     static_cast<std::int64_t>(begin),
                 "segment input from the future: " + src.name);
    Node boundary;
    boundary.kind = NodeKind::kParameter;
    boundary.name = src.name;
    boundary.output = src.output;
    boundary.boundary = true;
    const NodeId nid = seg.add_node(std::move(boundary));
    id_map.emplace(in, nid);
    return nid;
  };

  for (std::size_t i = begin; i <= end; ++i) {
    const Node& src = g.node(g.backbone()[i]);
    Node clone;
    clone.kind = NodeKind::kCNode;
    clone.op = src.op;
    clone.name = src.name;
    clone.output = src.output;
    clone.attrs = src.attrs;
    for (NodeId in : src.inputs) clone.inputs.push_back(map_input(in));
    const NodeId nid = seg.add_node(std::move(clone));
    id_map.emplace(src.id, nid);
    if (src.op == OpType::kInput) seg.set_input(nid);
  }

  // Segment outputs -> (MakeTuple) -> Return.
  const auto boundary = boundary_nodes(g, begin, end);
  LP_CHECK_MSG(!boundary.empty(), "segment produces nothing");
  NodeId result;
  std::int64_t result_bytes = 0;
  if (boundary.size() > 1) {
    Node tuple;
    tuple.kind = NodeKind::kCNode;
    tuple.op = OpType::kMakeTuple;
    tuple.name = name + ".tuple";
    for (NodeId b : boundary) {
      tuple.inputs.push_back(id_map.at(b));
      result_bytes += g.node(b).output.bytes();
    }
    // A tuple's "tensor" is the concatenation of its elements for sizing
    // purposes; shape is a flat element count.
    tuple.output =
        TensorDesc{Shape{std::max<std::int64_t>(1, result_bytes / 4)}};
    result = seg.add_node(std::move(tuple));
  } else {
    result = id_map.at(boundary.front());
  }
  Node ret;
  ret.kind = NodeKind::kCNode;
  ret.op = OpType::kReturn;
  ret.name = name + ".return";
  ret.inputs.push_back(result);
  ret.output = seg.node(result).output;
  const NodeId ret_id = seg.add_node(std::move(ret));
  seg.set_output(ret_id);
  seg.validate();
  return seg;
}

PartitionPlan partition_at(const Graph& g, std::size_t p) {
  const std::size_t n = g.n();
  LP_CHECK_MSG(p <= n, "partition point out of range");
  PartitionPlan plan;
  plan.p = p;

  if (p > 0)
    plan.device_part = extract_segment(g, 0, p, g.name() + ".device");
  if (p < n)
    plan.server_part = extract_segment(g, p + 1, n, g.name() + ".server");

  if (p < n) {
    for (NodeId id : boundary_nodes(g, 0, p)) {
      plan.boundary.push_back(g.node(id).name);
      plan.boundary_bytes += g.node(id).output.bytes();
    }
  }
  return plan;
}

}  // namespace lp::partition

// Text serialization of computation graphs (a MindIR-file stand-in).
//
// The paper's system loads "the DNN model file" on both the user-end
// device and the edge server; this line-oriented format plays that role:
// dependency-free, diffable, and stable across the two sides.
//
// Format (whitespace-separated; one node per line, ids implicit by order):
//   graph <name>
//   param <name> f32 <rank> <dims...> <boundary:0|1>
//   cnode <op> <name> f32 <rank> <dims...> <num_inputs> <input ids...>
//         [attr fields...]
//   input <node id>
//   output <node id>
// Node names must not contain whitespace (the builders never produce any).
// f32 is the only dtype token; any other is rejected.
#pragma once

#include <string>

#include "graph/graph.h"

namespace lp::graph {

/// Serializes a validated graph.
std::string serialize(const Graph& g);

/// Parses serialize() output; validates the result. Throws ContractError
/// on malformed input.
Graph deserialize(const std::string& text);

/// File round-trip helpers.
void save_graph(const Graph& g, const std::string& path);
Graph load_graph(const std::string& path);

}  // namespace lp::graph

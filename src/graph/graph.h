// Computation-graph IR (MindIR-like).
//
// A Graph holds two node populations, mirroring MindSpore's MindIR:
//   * CNodes   — computation nodes; their DAG is the paper's "backbone DAG"
//   * Parameters — weight/bias tensors attached to CNodes
// The partition point p of Algorithm 1 indexes the topological order of the
// backbone DAG, with the Input node playing the role of the virtual L0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/attrs.h"
#include "tensor/shape.h"

namespace lp::graph {

using NodeId = std::int32_t;
constexpr NodeId kInvalidNode = -1;

enum class NodeKind { kCNode, kParameter };

struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kCNode;
  OpType op = OpType::kInput;  // meaningful for CNodes only
  std::string name;
  std::vector<NodeId> inputs;  // producer ids (CNodes and Parameters)
  TensorDesc output;           // inferred output tensor
  Attrs attrs;
  /// Parameters only: true when this Parameter stands in for a tensor
  /// produced by the other half of a partition (Fig. 5), as opposed to a
  /// weight/bias.
  bool boundary = false;

  bool is_cnode() const { return kind == NodeKind::kCNode; }
  bool is_param() const { return kind == NodeKind::kParameter; }
};

class Graph {
 public:
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  const Node& node(NodeId id) const;
  Node& node(NodeId id);
  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }

  NodeId input_id() const { return input_; }
  NodeId output_id() const { return output_; }
  const TensorDesc& input_desc() const { return node(input_).output; }
  const TensorDesc& output_desc() const { return node(output_).output; }

  /// CNode ids only (excludes Parameters), in insertion order; insertion
  /// order is required to be topological (validate() checks).
  ///
  /// backbone()[0] is the Input node = L0, so the partition point p of
  /// Algorithm 1 is an index into this vector and n = backbone().size()-1.
  const std::vector<NodeId>& backbone() const { return backbone_; }

  /// Number of real computation nodes n (excludes the virtual L0).
  std::size_t n() const { return backbone_.size() - 1; }

  /// Parameter node ids.
  const std::vector<NodeId>& parameters() const { return params_; }

  /// CNode consumers of each node's output (indexed by NodeId).
  const std::vector<std::vector<NodeId>>& consumers() const {
    return consumers_;
  }

  /// Checks structural invariants: single input, reachable single output,
  /// topologically-ordered insertion, inputs defined before use, parameters
  /// never consume, CNode arity matches the op. Throws ContractError.
  void validate() const;

  /// Total parameter bytes (model size).
  std::int64_t parameter_bytes() const;

  // -- construction (used by GraphBuilder and the partitioner) --
  NodeId add_node(Node node);
  void set_input(NodeId id);
  void set_output(NodeId id);

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> backbone_;
  std::vector<NodeId> params_;
  std::vector<std::vector<NodeId>> consumers_;
  NodeId input_ = kInvalidNode;
  NodeId output_ = kInvalidNode;
};

/// Fluent builder producing validated graphs; expands framework-level layers
/// into the computation nodes the paper counts (Conv layer -> Conv + BiasAdd,
/// FC layer -> MatMul + BiasAdd).
class GraphBuilder {
 public:
  explicit GraphBuilder(std::string name);

  /// Declares the single graph input; must be called exactly once, first.
  NodeId input(Shape shape, std::string name = "input");

  /// Conv layer: Conv node (+ BiasAdd node when with_bias). Returns the id
  /// of the last node added.
  NodeId conv2d(NodeId x, std::int64_t out_channels, std::int64_t kernel,
                std::int64_t stride, std::int64_t pad, bool with_bias = true,
                std::string name = "");

  /// Conv layer with a rectangular kernel (e.g. Inception's 1x7 / 7x1).
  NodeId conv2d_rect(NodeId x, std::int64_t out_channels, std::int64_t kh,
                     std::int64_t kw, std::int64_t stride, std::int64_t pad_h,
                     std::int64_t pad_w, bool with_bias = true,
                     std::string name = "");

  /// Depth-wise conv layer (channel multiplier 1): DWConv (+ BiasAdd).
  NodeId dwconv2d(NodeId x, std::int64_t kernel, std::int64_t stride,
                  std::int64_t pad, bool with_bias = true,
                  std::string name = "");

  /// Fully-connected layer: MatMul (+ BiasAdd). Input must be rank-2.
  NodeId fc(NodeId x, std::int64_t out_features, bool with_bias = true,
            std::string name = "");

  NodeId maxpool(NodeId x, std::int64_t kernel, std::int64_t stride,
                 std::int64_t pad = 0, bool ceil_mode = false,
                 std::string name = "");
  NodeId avgpool(NodeId x, std::int64_t kernel, std::int64_t stride,
                 std::int64_t pad = 0, std::string name = "");
  /// Average pool over the full spatial extent -> N x C x 1 x 1.
  NodeId global_avgpool(NodeId x, std::string name = "");

  NodeId relu(NodeId x, std::string name = "");
  NodeId sigmoid(NodeId x, std::string name = "");
  NodeId tanh(NodeId x, std::string name = "");
  NodeId softmax(NodeId x, std::string name = "");
  NodeId batchnorm(NodeId x, std::string name = "");
  NodeId add(NodeId a, NodeId b, std::string name = "");
  NodeId concat(const std::vector<NodeId>& xs, std::string name = "");
  NodeId flatten(NodeId x, std::string name = "");

  /// Finalizes: sets the output node, validates, and returns the graph.
  Graph build(NodeId output);

  const TensorDesc& desc(NodeId id) const { return graph_.node(id).output; }

 private:
  NodeId add_parameter(Shape shape, std::string name);
  NodeId add_cnode(OpType op, std::vector<NodeId> inputs, TensorDesc out,
                   Attrs attrs, std::string name);
  NodeId bias_add(NodeId x, std::int64_t channels, std::string name);
  std::string auto_name(OpType op, const std::string& given);

  Graph graph_;
  bool have_input_ = false;
  int counter_ = 0;
};

}  // namespace lp::graph

#include "graph/graph.h"

#include <unordered_set>

#include "common/check.h"
#include "graph/shape_infer.h"

namespace lp::graph {

const Node& Graph::node(NodeId id) const {
  LP_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

Node& Graph::node(NodeId id) {
  LP_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId Graph::add_node(Node node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  node.id = id;
  for (NodeId in : node.inputs) {
    LP_CHECK_MSG(in >= 0 && in < id, "inputs must be defined before use");
  }
  consumers_.emplace_back();
  if (node.kind == NodeKind::kCNode) {
    backbone_.push_back(id);
  } else {
    LP_CHECK_MSG(node.inputs.empty(), "parameters cannot consume nodes");
    params_.push_back(id);
  }
  for (NodeId in : node.inputs)
    consumers_[static_cast<std::size_t>(in)].push_back(id);
  nodes_.push_back(std::move(node));
  return id;
}

void Graph::set_input(NodeId id) {
  LP_CHECK(node(id).op == OpType::kInput);
  LP_CHECK_MSG(input_ == kInvalidNode, "graph already has an input");
  input_ = id;
}

void Graph::set_output(NodeId id) {
  LP_CHECK(node(id).is_cnode());
  output_ = id;
}

void Graph::validate() const {
  // Segment graphs produced by the partitioner may have no Input node:
  // their boundary tensors arrive as Parameters (Fig. 5).
  LP_CHECK_MSG(output_ != kInvalidNode, "graph has no output");
  if (input_ != kInvalidNode) {
    LP_CHECK_MSG(!backbone_.empty() && backbone_.front() == input_,
                 "input must be the first CNode (L0)");
  }
  for (const auto& n : nodes_) {
    if (!n.is_cnode()) continue;
    if (n.op == OpType::kInput) {
      LP_CHECK_MSG(n.id == input_, "only one Input node allowed");
      LP_CHECK(n.inputs.empty());
      continue;
    }
    LP_CHECK_MSG(!n.inputs.empty(), "computation node without inputs");
    // Arity checks for binary / n-ary CNodes. Data inputs are CNodes plus
    // boundary Parameters (partition-segment stand-ins); weight Parameters
    // are excluded.
    std::size_t cnode_inputs = 0;
    for (NodeId in : n.inputs) {
      const Node& src = node(in);
      if (src.is_cnode() || src.boundary) ++cnode_inputs;
    }
    switch (n.op) {
      case OpType::kAdd:
        LP_CHECK_MSG(cnode_inputs == 2, "Add requires two tensor inputs");
        break;
      case OpType::kConcat:
      case OpType::kMakeTuple:
        LP_CHECK_MSG(cnode_inputs >= 1, "Concat/MakeTuple need inputs");
        break;
      default:
        LP_CHECK_MSG(cnode_inputs == 1,
                     op_name(n.op) + " requires one tensor input");
        break;
    }
  }
  // Every non-output CNode must be consumed (no dead computation).
  for (NodeId id : backbone_) {
    if (id == output_) continue;
    LP_CHECK_MSG(!consumers_[static_cast<std::size_t>(id)].empty(),
                 "dead computation node: " + node(id).name);
  }
}

std::int64_t Graph::parameter_bytes() const {
  std::int64_t total = 0;
  for (NodeId id : params_) total += node(id).output.bytes();
  return total;
}

GraphBuilder::GraphBuilder(std::string name, DType dtype)
    : graph_(std::move(name)), dtype_(dtype) {}

std::string GraphBuilder::auto_name(OpType op, const std::string& given) {
  if (!given.empty()) return given;
  return op_name(op) + "_" + std::to_string(counter_++);
}

NodeId GraphBuilder::add_parameter(Shape shape, std::string name) {
  Node n;
  n.kind = NodeKind::kParameter;
  n.name = std::move(name);
  n.output = TensorDesc{std::move(shape), dtype_};
  return graph_.add_node(std::move(n));
}

NodeId GraphBuilder::add_cnode(OpType op, std::vector<NodeId> inputs,
                               TensorDesc out, Attrs attrs, std::string name) {
  Node n;
  n.kind = NodeKind::kCNode;
  n.op = op;
  n.name = auto_name(op, name);
  n.inputs = std::move(inputs);
  n.output = std::move(out);
  n.attrs = std::move(attrs);
  return graph_.add_node(std::move(n));
}

NodeId GraphBuilder::input(Shape shape, std::string name) {
  LP_CHECK_MSG(!have_input_, "input() may only be called once");
  have_input_ = true;
  const NodeId id = add_cnode(OpType::kInput, {},
                              TensorDesc{std::move(shape), dtype_}, {},
                              std::move(name));
  graph_.set_input(id);
  return id;
}

NodeId GraphBuilder::bias_add(NodeId x, std::int64_t channels,
                              std::string name) {
  const NodeId bias = add_parameter(Shape{channels}, name + ".bias");
  return add_cnode(OpType::kBiasAdd, {x, bias}, desc(x), {},
                   name + ".biasadd");
}

NodeId GraphBuilder::conv2d(NodeId x, std::int64_t out_channels,
                            std::int64_t kernel, std::int64_t stride,
                            std::int64_t pad, bool with_bias,
                            std::string name) {
  name = auto_name(OpType::kConv, name);
  // Copy: adding Parameters below reallocates the node vector.
  const Shape in = desc(x).shape;
  ConvAttrs attrs{out_channels, kernel, kernel, stride, stride, pad, pad};
  const NodeId weight = add_parameter(
      Shape{out_channels, in.c(), kernel, kernel}, name + ".weight");
  const Shape out = conv_output_shape(in, attrs, /*depthwise=*/false);
  NodeId y = add_cnode(OpType::kConv, {x, weight}, TensorDesc{out, dtype_},
                       attrs, name);
  if (with_bias) y = bias_add(y, out_channels, name);
  return y;
}

NodeId GraphBuilder::conv2d_rect(NodeId x, std::int64_t out_channels,
                                 std::int64_t kh, std::int64_t kw,
                                 std::int64_t stride, std::int64_t pad_h,
                                 std::int64_t pad_w, bool with_bias,
                                 std::string name) {
  name = auto_name(OpType::kConv, name);
  // Copy: adding Parameters below reallocates the node vector.
  const Shape in = desc(x).shape;
  ConvAttrs attrs{out_channels, kh, kw, stride, stride, pad_h, pad_w};
  const NodeId weight =
      add_parameter(Shape{out_channels, in.c(), kh, kw}, name + ".weight");
  const Shape out = conv_output_shape(in, attrs, /*depthwise=*/false);
  NodeId y = add_cnode(OpType::kConv, {x, weight}, TensorDesc{out, dtype_},
                       attrs, name);
  if (with_bias) y = bias_add(y, out_channels, name);
  return y;
}

NodeId GraphBuilder::dwconv2d(NodeId x, std::int64_t kernel,
                              std::int64_t stride, std::int64_t pad,
                              bool with_bias, std::string name) {
  name = auto_name(OpType::kDWConv, name);
  // Copy: adding Parameters below reallocates the node vector.
  const Shape in = desc(x).shape;
  ConvAttrs attrs{in.c(), kernel, kernel, stride, stride, pad, pad};
  const NodeId weight =
      add_parameter(Shape{in.c(), 1, kernel, kernel}, name + ".weight");
  const Shape out = conv_output_shape(in, attrs, /*depthwise=*/true);
  NodeId y = add_cnode(OpType::kDWConv, {x, weight}, TensorDesc{out, dtype_},
                       attrs, name);
  if (with_bias) y = bias_add(y, in.c(), name);
  return y;
}

NodeId GraphBuilder::fc(NodeId x, std::int64_t out_features, bool with_bias,
                        std::string name) {
  name = auto_name(OpType::kMatMul, name);
  // Copy: adding Parameters below reallocates the node vector.
  const Shape in = desc(x).shape;
  MatMulAttrs attrs{out_features};
  const NodeId weight =
      add_parameter(Shape{in.dim(1), out_features}, name + ".weight");
  const Shape out = matmul_output_shape(in, attrs);
  NodeId y = add_cnode(OpType::kMatMul, {x, weight}, TensorDesc{out, dtype_},
                       attrs, name);
  if (with_bias) y = bias_add(y, out_features, name);
  return y;
}

NodeId GraphBuilder::maxpool(NodeId x, std::int64_t kernel,
                             std::int64_t stride, std::int64_t pad,
                             bool ceil_mode, std::string name) {
  PoolAttrs attrs{kernel, kernel, stride, stride, pad, pad, ceil_mode};
  const Shape out = pool_output_shape(desc(x).shape, attrs);
  return add_cnode(OpType::kMaxPool, {x}, TensorDesc{out, dtype_}, attrs,
                   std::move(name));
}

NodeId GraphBuilder::avgpool(NodeId x, std::int64_t kernel,
                             std::int64_t stride, std::int64_t pad,
                             std::string name) {
  PoolAttrs attrs{kernel, kernel, stride, stride, pad, pad, false};
  const Shape out = pool_output_shape(desc(x).shape, attrs);
  return add_cnode(OpType::kAvgPool, {x}, TensorDesc{out, dtype_}, attrs,
                   std::move(name));
}

NodeId GraphBuilder::global_avgpool(NodeId x, std::string name) {
  // Copy: adding Parameters below reallocates the node vector.
  const Shape in = desc(x).shape;
  return avgpool(x, in.h(), in.h(), 0, std::move(name));
}

NodeId GraphBuilder::relu(NodeId x, std::string name) {
  return add_cnode(OpType::kRelu, {x}, desc(x), {}, std::move(name));
}
NodeId GraphBuilder::sigmoid(NodeId x, std::string name) {
  return add_cnode(OpType::kSigmoid, {x}, desc(x), {}, std::move(name));
}
NodeId GraphBuilder::tanh(NodeId x, std::string name) {
  return add_cnode(OpType::kTanh, {x}, desc(x), {}, std::move(name));
}
NodeId GraphBuilder::softmax(NodeId x, std::string name) {
  return add_cnode(OpType::kSoftmax, {x}, desc(x), {}, std::move(name));
}

NodeId GraphBuilder::batchnorm(NodeId x, std::string name) {
  name = auto_name(OpType::kBatchNorm, name);
  // Copy: adding Parameters below reallocates the node vector.
  const Shape in = desc(x).shape;
  LP_CHECK_MSG(in.rank() == 4, "batchnorm input must be NCHW");
  std::vector<NodeId> inputs{x};
  for (const char* suffix : {".gamma", ".beta", ".mean", ".var"})
    inputs.push_back(add_parameter(Shape{in.c()}, name + suffix));
  return add_cnode(OpType::kBatchNorm, std::move(inputs), desc(x), {}, name);
}

NodeId GraphBuilder::add(NodeId a, NodeId b, std::string name) {
  LP_CHECK_MSG(desc(a).shape == desc(b).shape, "add operand shape mismatch");
  return add_cnode(OpType::kAdd, {a, b}, desc(a), {}, std::move(name));
}

NodeId GraphBuilder::concat(const std::vector<NodeId>& xs, std::string name) {
  LP_CHECK(!xs.empty());
  std::vector<Shape> shapes;
  shapes.reserve(xs.size());
  for (NodeId x : xs) shapes.push_back(desc(x).shape);
  ConcatAttrs attrs{1};
  const Shape out = concat_output_shape(shapes, attrs.axis);
  return add_cnode(OpType::kConcat, xs, TensorDesc{out, dtype_}, attrs,
                   std::move(name));
}

NodeId GraphBuilder::flatten(NodeId x, std::string name) {
  const Shape out = flatten_output_shape(desc(x).shape);
  return add_cnode(OpType::kFlatten, {x}, TensorDesc{out, dtype_}, {},
                   std::move(name));
}

Graph GraphBuilder::build(NodeId output) {
  graph_.set_output(output);
  graph_.validate();
  return std::move(graph_);
}

}  // namespace lp::graph

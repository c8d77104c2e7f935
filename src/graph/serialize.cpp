#include "graph/serialize.h"

#include <fstream>
#include <sstream>

#include "common/check.h"

namespace lp::graph {

namespace {

// Every tensor is float32. The token stays in the format so that existing
// model files read back unchanged.
constexpr const char* kDtypeToken = "f32";

void emit_desc(std::ostream& out, const TensorDesc& desc) {
  out << ' ' << kDtypeToken << ' ' << desc.shape.rank();
  for (auto d : desc.shape.dims()) out << ' ' << d;
}

TensorDesc read_desc(std::istream& in) {
  std::string dtype;
  std::size_t rank = 0;
  LP_CHECK_MSG(static_cast<bool>(in >> dtype >> rank), "truncated desc");
  LP_CHECK_MSG(dtype == kDtypeToken, "unsupported dtype token: " + dtype);
  // Append dim by dim: a rank larger than the dims on the line fails as
  // truncated without first allocating `rank` elements.
  std::vector<std::int64_t> dims;
  for (std::size_t i = 0; i < rank; ++i) {
    std::int64_t d = 0;
    LP_CHECK_MSG(static_cast<bool>(in >> d), "truncated shape");
    dims.push_back(d);
  }
  return TensorDesc{Shape(std::move(dims))};
}

void emit_attrs(std::ostream& out, const Node& node) {
  if (const auto* conv = std::get_if<ConvAttrs>(&node.attrs)) {
    out << ' ' << conv->out_channels << ' ' << conv->kernel_h << ' '
        << conv->kernel_w << ' ' << conv->stride_h << ' ' << conv->stride_w
        << ' ' << conv->pad_h << ' ' << conv->pad_w;
  } else if (const auto* pool = std::get_if<PoolAttrs>(&node.attrs)) {
    out << ' ' << pool->kernel_h << ' ' << pool->kernel_w << ' '
        << pool->stride_h << ' ' << pool->stride_w << ' ' << pool->pad_h
        << ' ' << pool->pad_w << ' ' << (pool->ceil_mode ? 1 : 0);
  } else if (const auto* mm = std::get_if<MatMulAttrs>(&node.attrs)) {
    out << ' ' << mm->out_features;
  } else if (const auto* cat = std::get_if<ConcatAttrs>(&node.attrs)) {
    out << ' ' << cat->axis;
  }
}

Attrs read_attrs(std::istream& in, OpType op) {
  switch (op) {
    case OpType::kConv:
    case OpType::kDWConv: {
      ConvAttrs a;
      LP_CHECK_MSG(static_cast<bool>(in >> a.out_channels >> a.kernel_h >>
                                     a.kernel_w >> a.stride_h >>
                                     a.stride_w >> a.pad_h >> a.pad_w),
                   "truncated conv attrs");
      return a;
    }
    case OpType::kMaxPool:
    case OpType::kAvgPool: {
      PoolAttrs a;
      int ceil_flag = 0;
      LP_CHECK_MSG(static_cast<bool>(in >> a.kernel_h >> a.kernel_w >>
                                     a.stride_h >> a.stride_w >> a.pad_h >>
                                     a.pad_w >> ceil_flag),
                   "truncated pool attrs");
      a.ceil_mode = ceil_flag != 0;
      return a;
    }
    case OpType::kMatMul: {
      MatMulAttrs a;
      LP_CHECK_MSG(static_cast<bool>(in >> a.out_features),
                   "truncated matmul attrs");
      return a;
    }
    case OpType::kConcat: {
      ConcatAttrs a;
      LP_CHECK_MSG(static_cast<bool>(in >> a.axis),
                   "truncated concat attrs");
      return a;
    }
    default:
      return {};
  }
}

}  // namespace

std::string serialize(const Graph& g) {
  std::ostringstream out;
  LP_CHECK_MSG(g.name().find_first_of(" \t\n") == std::string::npos,
               "graph name must not contain whitespace");
  out << "graph " << g.name() << '\n';
  for (const auto& node : g.nodes()) {
    LP_CHECK_MSG(node.name.find_first_of(" \t\n") == std::string::npos,
                 "node name must not contain whitespace: " + node.name);
    if (node.is_param()) {
      out << "param " << node.name;
      emit_desc(out, node.output);
      out << ' ' << (node.boundary ? 1 : 0) << '\n';
      continue;
    }
    out << "cnode " << op_name(node.op) << ' ' << node.name;
    emit_desc(out, node.output);
    out << ' ' << node.inputs.size();
    for (NodeId in : node.inputs) out << ' ' << in;
    emit_attrs(out, node);
    out << '\n';
  }
  if (g.input_id() != kInvalidNode) out << "input " << g.input_id() << '\n';
  out << "output " << g.output_id() << '\n';
  return out.str();
}

Graph deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  LP_CHECK_MSG(static_cast<bool>(std::getline(in, line)), "empty model file");
  std::istringstream header(line);
  std::string tag, name;
  LP_CHECK_MSG(static_cast<bool>(header >> tag >> name) && tag == "graph",
               "model file must start with 'graph <name>'");
  Graph g(name);
  bool have_output = false;

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    LP_CHECK(static_cast<bool>(fields >> tag));
    if (tag == "param") {
      Node node;
      node.kind = NodeKind::kParameter;
      LP_CHECK_MSG(static_cast<bool>(fields >> node.name),
                   "param without name");
      node.output = read_desc(fields);
      int boundary = 0;
      LP_CHECK_MSG(static_cast<bool>(fields >> boundary),
                   "param without boundary flag");
      node.boundary = boundary != 0;
      g.add_node(std::move(node));
    } else if (tag == "cnode") {
      Node node;
      node.kind = NodeKind::kCNode;
      std::string op;
      LP_CHECK_MSG(static_cast<bool>(fields >> op >> node.name),
                   "cnode without op/name");
      node.op = op_from_name(op);
      node.output = read_desc(fields);
      std::size_t arity = 0;
      LP_CHECK_MSG(static_cast<bool>(fields >> arity), "cnode without arity");
      // Appended id by id, like read_desc's dims.
      for (std::size_t i = 0; i < arity; ++i) {
        NodeId id = kInvalidNode;
        LP_CHECK_MSG(static_cast<bool>(fields >> id), "truncated inputs");
        node.inputs.push_back(id);
      }
      node.attrs = read_attrs(fields, node.op);
      const NodeId id = g.add_node(std::move(node));
      if (g.node(id).op == OpType::kInput) g.set_input(id);
    } else if (tag == "input") {
      NodeId id = kInvalidNode;
      LP_CHECK(static_cast<bool>(fields >> id));
      LP_CHECK_MSG(g.input_id() == id, "input marker mismatch");
    } else if (tag == "output") {
      NodeId id = kInvalidNode;
      LP_CHECK(static_cast<bool>(fields >> id));
      g.set_output(id);
      have_output = true;
    } else {
      LP_CHECK_MSG(false, "unknown record: " + tag);
    }
  }
  LP_CHECK_MSG(have_output, "model file missing output marker");
  g.validate();
  return g;
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  LP_CHECK_MSG(out.good(), "cannot open " + path + " for writing");
  out << serialize(g);
}

Graph load_graph(const std::string& path) {
  std::ifstream in(path);
  LP_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str());
}

}  // namespace lp::graph

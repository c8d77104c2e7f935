#include "exec/interpreter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "exec/kernels.h"
#include "exec/thread_pool.h"

namespace lp::exec {

namespace {

using graph::Node;
using graph::OpType;

// ---------------------------------------------------------------------------
// Reference kernels: deliberately naive per-element loops. These define the
// numerics every optimized kernel must reproduce bit-for-bit. Each output
// element keeps one double accumulator fed in ascending (ic, kh, kw) / k
// order; taps that land in the padding are skipped.
//
// Sizes are read once per call into plain integers because Shape::dim is
// out of line and checked: calling it per multiply-accumulate would cost
// several times the arithmetic, and the exec differential tests run these
// loops over six full models.
// ---------------------------------------------------------------------------

/// NCHW sizes of one tensor and its flat offsets (Tensor::at4's layout).
struct Dims4 {
  explicit Dims4(const Shape& s) : n(s.n()), c(s.c()), h(s.h()), w(s.w()) {}
  std::int64_t at(std::int64_t in, std::int64_t ic, std::int64_t ih,
                  std::int64_t iw) const {
    return ((in * c + ic) * h + ih) * w + iw;
  }
  std::int64_t n, c, h, w;
};

Tensor conv2d(const Tensor& x, const Tensor& w, const graph::ConvAttrs& a,
              const Shape& out_shape, bool depthwise) {
  Tensor y(out_shape);
  const Dims4 xd(x.shape()), wd(w.shape()), yd(out_shape);
  for (std::int64_t n = 0; n < yd.n; ++n)
    for (std::int64_t oc = 0; oc < yd.c; ++oc)
      for (std::int64_t oh = 0; oh < yd.h; ++oh)
        for (std::int64_t ow = 0; ow < yd.w; ++ow) {
          // The window's top-left input pixel and the taps that fall
          // inside the input.
          const std::int64_t ih0 = oh * a.stride_h - a.pad_h;
          const std::int64_t iw0 = ow * a.stride_w - a.pad_w;
          const std::int64_t kh_begin = std::max<std::int64_t>(0, -ih0);
          const std::int64_t kh_end =
              std::min<std::int64_t>(a.kernel_h, xd.h - ih0);
          const std::int64_t kw_begin = std::max<std::int64_t>(0, -iw0);
          const std::int64_t kw_end =
              std::min<std::int64_t>(a.kernel_w, xd.w - iw0);
          const std::int64_t ic_begin = depthwise ? oc : 0;
          const std::int64_t ic_end = depthwise ? oc + 1 : xd.c;
          double acc = 0.0;
          for (std::int64_t ic = ic_begin; ic < ic_end; ++ic)
            for (std::int64_t kh = kh_begin; kh < kh_end; ++kh)
              for (std::int64_t kw = kw_begin; kw < kw_end; ++kw) {
                const float xv = x.at(xd.at(n, ic, ih0 + kh, iw0 + kw));
                const float wv = w.at(wd.at(oc, depthwise ? 0 : ic, kh, kw));
                acc += static_cast<double>(xv) * static_cast<double>(wv);
              }
          y.at(yd.at(n, oc, oh, ow)) = static_cast<float>(acc);
        }
  return y;
}

Tensor pool2d(const Tensor& x, const graph::PoolAttrs& a,
              const Shape& out_shape, bool is_max) {
  Tensor y(out_shape);
  const Dims4 xd(x.shape()), yd(out_shape);
  for (std::int64_t n = 0; n < yd.n; ++n)
    for (std::int64_t c = 0; c < yd.c; ++c)
      for (std::int64_t oh = 0; oh < yd.h; ++oh)
        for (std::int64_t ow = 0; ow < yd.w; ++ow) {
          // -inf is the true max identity: windows of arbitrarily negative
          // activations still reduce correctly.
          double acc =
              is_max ? -std::numeric_limits<double>::infinity() : 0.0;
          int valid = 0;
          for (std::int64_t kh = 0; kh < a.kernel_h; ++kh)
            for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
              const std::int64_t ih = oh * a.stride_h - a.pad_h + kh;
              const std::int64_t iw = ow * a.stride_w - a.pad_w + kw;
              if (ih < 0 || ih >= xd.h || iw < 0 || iw >= xd.w) continue;
              const double v = x.at(xd.at(n, c, ih, iw));
              if (is_max)
                acc = std::max(acc, v);
              else
                acc += v;
              ++valid;
            }
          LP_CHECK_MSG(valid > 0, "pool window entirely in padding");
          y.at(yd.at(n, c, oh, ow)) =
              static_cast<float>(is_max ? acc : acc / valid);
        }
  return y;
}

Tensor matmul(const Tensor& x, const Tensor& w, const Shape& out_shape) {
  Tensor y(out_shape);
  const auto rows = x.shape().dim(0);
  const auto inner = x.shape().dim(1);
  const auto w_cols = w.shape().dim(1);
  const auto cols = out_shape.dim(1);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < inner; ++k)
        acc += static_cast<double>(x.at(r * inner + k)) *
               static_cast<double>(w.at(k * w_cols + c));
      y.at(r * cols + c) = static_cast<float>(acc);
    }
  return y;
}

Tensor bias_add(const Tensor& x, const Tensor& bias) {
  Tensor y = x;
  if (x.shape().rank() == 4) {
    const Dims4 d(x.shape());
    for (std::int64_t n = 0; n < d.n; ++n)
      for (std::int64_t c = 0; c < d.c; ++c)
        for (std::int64_t h = 0; h < d.h; ++h)
          for (std::int64_t w = 0; w < d.w; ++w)
            y.at(d.at(n, c, h, w)) += bias.at(c);
  } else {
    LP_CHECK(x.shape().rank() == 2);
    const auto rows = x.shape().dim(0);
    const auto cols = x.shape().dim(1);
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < cols; ++c)
        y.at(r * cols + c) += bias.at(c);
  }
  return y;
}

constexpr float kBatchNormEps = 1e-5f;

Tensor batchnorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 const Tensor& mean, const Tensor& var) {
  Tensor y = x;
  const Dims4 d(x.shape());
  for (std::int64_t n = 0; n < d.n; ++n)
    for (std::int64_t c = 0; c < d.c; ++c) {
      // Deterministic pseudo-random "variance" values can be negative;
      // clamp so normalization stays finite (value equality across the two
      // partition halves is what matters, not statistical realism).
      const float denom =
          std::sqrt(std::max(var.at(c), 0.0f) + kBatchNormEps);
      for (std::int64_t h = 0; h < d.h; ++h)
        for (std::int64_t w = 0; w < d.w; ++w)
          y.at(d.at(n, c, h, w)) =
              gamma.at(c) * (x.at(d.at(n, c, h, w)) - mean.at(c)) / denom +
              beta.at(c);
    }
  return y;
}

Tensor elementwise(const Tensor& x, OpType op) {
  Tensor y = x;
  const auto count = y.elements();
  switch (op) {
    case OpType::kRelu:
      for (std::int64_t i = 0; i < count; ++i)
        y.at(i) = std::max(0.0f, y.at(i));
      break;
    case OpType::kSigmoid:
      for (std::int64_t i = 0; i < count; ++i)
        y.at(i) = 1.0f / (1.0f + std::exp(-y.at(i)));
      break;
    case OpType::kTanh:
      for (std::int64_t i = 0; i < count; ++i)
        y.at(i) = std::tanh(y.at(i));
      break;
    default:
      LP_CHECK_MSG(false, "not an elementwise unary op");
  }
  return y;
}

Tensor softmax(const Tensor& x) {
  // Softmax over the last axis.
  Tensor y = x;
  const auto last = static_cast<std::int64_t>(x.shape().rank()) - 1;
  const auto width = x.shape().dim(static_cast<std::size_t>(last));
  const auto rows = x.elements() / width;
  for (std::int64_t r = 0; r < rows; ++r) {
    float maxv = -1e30f;
    for (std::int64_t c = 0; c < width; ++c)
      maxv = std::max(maxv, x.at(r * width + c));
    double sum = 0.0;
    for (std::int64_t c = 0; c < width; ++c) {
      const float e = std::exp(x.at(r * width + c) - maxv);
      y.at(r * width + c) = e;
      sum += e;
    }
    for (std::int64_t c = 0; c < width; ++c)
      y.at(r * width + c) = static_cast<float>(y.at(r * width + c) / sum);
  }
  return y;
}

Tensor concat(const std::vector<const Tensor*>& xs, const Shape& out_shape) {
  // Channel (axis-1) concatenation of NCHW tensors.
  Tensor y(out_shape);
  std::int64_t c_off = 0;
  const Dims4 yd(out_shape);
  for (const Tensor* x : xs) {
    const Dims4 xd(x->shape());
    for (std::int64_t n = 0; n < xd.n; ++n)
      for (std::int64_t c = 0; c < xd.c; ++c)
        for (std::int64_t h = 0; h < xd.h; ++h)
          for (std::int64_t w = 0; w < xd.w; ++w)
            y.at(yd.at(n, c_off + c, h, w)) = x->at(xd.at(n, c, h, w));
    c_off += xd.c;
  }
  return y;
}

}  // namespace

Interpreter::Interpreter(const graph::Graph& g, Options options)
    : graph_(&g), options_(options) {
  if (options_.mode == ExecMode::kOptimized) {
    groups_ = graph::fuse_for_execution(g);
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

Interpreter::~Interpreter() = default;

std::vector<std::string> Interpreter::output_names() const {
  const auto& g = *graph_;
  const Node& out = g.node(g.output_id());
  const Node* tuple_src = &out;
  if (out.op == OpType::kReturn)
    tuple_src = &g.node(out.inputs.front());
  if (tuple_src->op == OpType::kMakeTuple) {
    std::vector<std::string> names;
    for (graph::NodeId in : tuple_src->inputs)
      names.push_back(g.node(in).name);
    return names;
  }
  return {tuple_src->name};
}

std::vector<Tensor> Interpreter::run(const TensorMap& bindings,
                                     RunStats* stats) const {
  const auto& g = *graph_;
  const bool optimized = options_.mode == ExecMode::kOptimized;

  // Values indexed by node id; MakeTuple holds no tensor of its own.
  std::vector<Tensor> values(g.node_count());

  // Bound tensors, resolved once: the Input node's and every bound
  // Parameter's. They stay the caller's and are read in place.
  std::vector<const Tensor*> bound(g.node_count(), nullptr);
  for (const Node& node : g.nodes()) {
    const bool input = node.is_cnode() && node.op == OpType::kInput;
    if (!input && !node.is_param()) continue;
    const auto it = bindings.find(node.name);
    if (it == bindings.end()) {
      LP_CHECK_MSG(!input, "missing input binding: " + node.name);
      continue;
    }
    LP_CHECK_MSG(it->second.shape() == node.output.shape,
                 input ? "input shape mismatch"
                       : "bound tensor shape mismatch for " + node.name);
    bound[static_cast<std::size_t>(node.id)] = &it->second;
  }

  // Liveness: remaining reads per node. Each consumer's retirement is one
  // read; collecting a graph output at the end is one more.
  std::vector<std::int32_t> uses(g.node_count(), 0);
  for (std::size_t id = 0; id < g.node_count(); ++id)
    uses[id] = static_cast<std::int32_t>(g.consumers()[id].size());

  const Node* out_node = &g.node(g.output_id());
  if (out_node->op == OpType::kReturn)
    out_node = &g.node(out_node->inputs.front());
  std::vector<graph::NodeId> out_ids;
  if (out_node->op == OpType::kMakeTuple)
    out_ids = out_node->inputs;
  else
    out_ids = {out_node->id};
  for (graph::NodeId id : out_ids) ++uses[static_cast<std::size_t>(id)];

  std::int64_t cur = 0, peak = 0, released = 0, moved = 0, fused = 0;

  auto at = [&](graph::NodeId id) -> Tensor& {
    return values[static_cast<std::size_t>(id)];
  };
  auto bound_at = [&](graph::NodeId id) {
    return bound[static_cast<std::size_t>(id)];
  };

  auto track = [&](const Tensor& t) {
    cur += t.bytes();
    peak = std::max(peak, cur);
  };

  // Returns node id's tensor: the bound one in place, or a computed value,
  // or an unbound Parameter materialized deterministically on first use.
  auto ensure = [&](graph::NodeId id) -> const Tensor& {
    if (const Tensor* b = bound_at(id)) return *b;
    Tensor& v = at(id);
    if (!v.empty()) return v;
    const Node& node = g.node(id);
    LP_CHECK_MSG(node.is_param(),
                 "use of an unmaterialized tensor: " + node.name);
    v = deterministic_param(node.name, node.output.shape);
    track(v);
    return v;
  };

  // Retires one read of `id`; releases the buffer after the last one.
  auto dec = [&](graph::NodeId id) {
    auto& u = uses[static_cast<std::size_t>(id)];
    LP_CHECK(u > 0);
    if (--u == 0) {
      Tensor& v = at(id);
      cur -= v.bytes();
      released += v.bytes();
      v = Tensor();
    }
  };

  // Moves the tensor out when this is its final read and the interpreter
  // owns it (in-place ops reuse the buffer); copies otherwise, so a bound
  // tensor is never written.
  auto take_or_copy = [&](graph::NodeId id) -> Tensor {
    const Tensor& v = ensure(id);
    if (bound_at(id) == nullptr && uses[static_cast<std::size_t>(id)] == 1) {
      ++moved;
      cur -= v.bytes();
      return std::move(at(id));
    }
    return v;
  };

  auto store = [&](graph::NodeId id, Tensor t) {
    track(t);
    at(id) = std::move(t);
  };

  // One fused-epilogue step from a BiasAdd/BatchNorm/activation node.
  auto make_step = [&](const Node& node) {
    EpilogueStep step;
    step.op = node.op;
    switch (node.op) {
      case OpType::kBiasAdd:
        step.bias = ensure(node.inputs[1]).data();
        break;
      case OpType::kBatchNorm: {
        step.gamma = ensure(node.inputs[1]).data();
        step.beta = ensure(node.inputs[2]).data();
        step.mean = ensure(node.inputs[3]).data();
        const Tensor& var = ensure(node.inputs[4]);
        step.denom.resize(static_cast<std::size_t>(var.elements()));
        for (std::int64_t c = 0; c < var.elements(); ++c)
          step.denom[static_cast<std::size_t>(c)] =
              std::sqrt(std::max(var.at(c), 0.0f) + kBatchNormEps);
        break;
      }
      case OpType::kRelu:
      case OpType::kSigmoid:
      case OpType::kTanh:
        break;
      default:
        LP_CHECK_MSG(false, "not a fusable epilogue op: " + node.name);
    }
    return step;
  };

  // Executes one node (or one fused group ending at `out_id`) with the
  // optimized kernels.
  auto exec_optimized = [&](const graph::FusionGroup& group) {
    const Node& node = g.node(group.anchor());
    const graph::NodeId out_id = group.nodes.back();
    Epilogue ep;
    for (std::size_t i = 1; i < group.size(); ++i)
      ep.steps.push_back(make_step(g.node(group.nodes[i])));
    if (group.size() > 1) ++fused;

    switch (node.op) {
      case OpType::kInput:
        break;  // bound before the schedule runs
      case OpType::kConv:
      case OpType::kDWConv: {
        const auto& a = std::get<graph::ConvAttrs>(node.attrs);
        store(out_id, conv2d_fast(ensure(node.inputs[0]),
                                  ensure(node.inputs[1]), a,
                                  node.output.shape,
                                  node.op == OpType::kDWConv, ep, *pool_));
        break;
      }
      case OpType::kMatMul: {
        // An unbound weight is streamed: the kernel synthesizes each row
        // slice just before using it, so the weight is never resident.
        const Node& w = g.node(node.inputs[1]);
        const Tensor& x = ensure(node.inputs[0]);
        if (w.is_param() && bound_at(w.id) == nullptr && at(w.id).empty()) {
          const ParamGenerator synth(w.name, w.output.shape);
          store(out_id, matmul_fast(x, WeightRows(synth), node.output.shape,
                                    ep, *pool_));
        } else {
          store(out_id, matmul_fast(x, WeightRows(ensure(w.id)),
                                    node.output.shape, ep, *pool_));
        }
        break;
      }
      case OpType::kMaxPool:
      case OpType::kAvgPool: {
        const auto& a = std::get<graph::PoolAttrs>(node.attrs);
        store(out_id, pool2d_fast(ensure(node.inputs[0]), a,
                                  node.output.shape,
                                  node.op == OpType::kMaxPool, *pool_));
        break;
      }
      case OpType::kAdd: {
        Tensor y = take_or_copy(node.inputs[0]);
        add_inplace(y, ensure(node.inputs[1]), *pool_);
        epilogue_inplace(y, ep, *pool_);
        store(out_id, std::move(y));
        break;
      }
      case OpType::kBiasAdd:
      case OpType::kBatchNorm:
      case OpType::kRelu:
      case OpType::kSigmoid:
      case OpType::kTanh: {
        // Standalone elementwise node: a one-step epilogue applied in
        // place on the (possibly moved-through) input.
        Epilogue solo;
        solo.steps.push_back(make_step(node));
        Tensor y = take_or_copy(node.inputs[0]);
        epilogue_inplace(y, solo, *pool_);
        store(out_id, std::move(y));
        break;
      }
      case OpType::kSoftmax: {
        Tensor y = take_or_copy(node.inputs[0]);
        softmax_inplace(y);
        store(out_id, std::move(y));
        break;
      }
      case OpType::kConcat: {
        std::vector<const Tensor*> xs;
        for (graph::NodeId in : node.inputs) xs.push_back(&ensure(in));
        store(out_id, concat_fast(xs, node.output.shape));
        break;
      }
      case OpType::kFlatten: {
        Tensor y = take_or_copy(node.inputs[0]);
        store(out_id, Tensor::reshaped(std::move(y), node.output.shape));
        break;
      }
      case OpType::kMakeTuple:
      case OpType::kReturn:
        break;  // structural; handled when collecting outputs
    }
  };

  // Executes one node with the reference kernels (always unfused).
  auto exec_reference = [&](const Node& node) {
    switch (node.op) {
      case OpType::kInput:
        break;  // bound before the schedule runs
      case OpType::kConv:
      case OpType::kDWConv: {
        const auto& a = std::get<graph::ConvAttrs>(node.attrs);
        store(node.id, conv2d(ensure(node.inputs[0]),
                              ensure(node.inputs[1]), a, node.output.shape,
                              node.op == OpType::kDWConv));
        break;
      }
      case OpType::kMatMul:
        store(node.id, matmul(ensure(node.inputs[0]),
                              ensure(node.inputs[1]), node.output.shape));
        break;
      case OpType::kMaxPool:
      case OpType::kAvgPool: {
        const auto& a = std::get<graph::PoolAttrs>(node.attrs);
        store(node.id, pool2d(ensure(node.inputs[0]), a, node.output.shape,
                              node.op == OpType::kMaxPool));
        break;
      }
      case OpType::kBiasAdd:
        store(node.id, bias_add(ensure(node.inputs[0]),
                                ensure(node.inputs[1])));
        break;
      case OpType::kAdd: {
        Tensor y = ensure(node.inputs[0]);
        const Tensor& b = ensure(node.inputs[1]);
        const auto count = y.elements();
        for (std::int64_t i = 0; i < count; ++i) y.at(i) += b.at(i);
        store(node.id, std::move(y));
        break;
      }
      case OpType::kBatchNorm:
        store(node.id, batchnorm(ensure(node.inputs[0]),
                                 ensure(node.inputs[1]),
                                 ensure(node.inputs[2]),
                                 ensure(node.inputs[3]),
                                 ensure(node.inputs[4])));
        break;
      case OpType::kRelu:
      case OpType::kSigmoid:
      case OpType::kTanh:
        store(node.id, elementwise(ensure(node.inputs[0]), node.op));
        break;
      case OpType::kSoftmax:
        store(node.id, softmax(ensure(node.inputs[0])));
        break;
      case OpType::kConcat: {
        std::vector<const Tensor*> xs;
        for (graph::NodeId in : node.inputs) xs.push_back(&ensure(in));
        store(node.id, concat(xs, node.output.shape));
        break;
      }
      case OpType::kFlatten: {
        const Tensor& x = ensure(node.inputs[0]);
        store(node.id,
              Tensor(node.output.shape,
                     std::vector<float>(x.data(), x.data() + x.elements())));
        break;
      }
      case OpType::kMakeTuple:
      case OpType::kReturn:
        break;  // structural; handled when collecting outputs
    }
  };

  if (optimized) {
    for (const auto& group : groups_) {
      exec_optimized(group);
      for (graph::NodeId nid : group.nodes)
        for (graph::NodeId in : g.node(nid).inputs) dec(in);
    }
  } else {
    for (graph::NodeId nid : g.backbone()) {
      const Node& node = g.node(nid);
      exec_reference(node);
      for (graph::NodeId in : node.inputs) dec(in);
    }
  }

  // A bound tensor that is itself a graph output is returned as a copy:
  // the caller keeps the original.
  for (graph::NodeId id : out_ids)
    if (const Tensor* b = bound_at(id); b != nullptr && at(id).empty())
      store(id, *b);

  if (stats) {
    stats->peak_resident_bytes = peak;
    stats->final_resident_bytes = cur;
    stats->released_bytes = released;
    stats->moved_tensors = moved;
    stats->fused_groups = fused;
  }

  // Collect outputs, moving each tensor out at its last occurrence.
  std::vector<Tensor> results;
  results.reserve(out_ids.size());
  for (std::size_t i = 0; i < out_ids.size(); ++i) {
    bool last = true;
    for (std::size_t j = i + 1; j < out_ids.size(); ++j)
      if (out_ids[j] == out_ids[i]) last = false;
    if (last)
      results.push_back(std::move(at(out_ids[i])));
    else
      results.push_back(at(out_ids[i]));
  }
  return results;
}

}  // namespace lp::exec

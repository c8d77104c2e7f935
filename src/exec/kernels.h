// Optimized execution kernels: im2col convolution on vector lanes (a
// micro-kernel per ISA, chosen once per process by CPU), a row-order matmul
// over resident or streamed weights, parallel pooling/elementwise, and a
// fused elementwise epilogue driven by graph::fusion groups.
//
// Determinism contract: every kernel reproduces the reference interpreter's
// per-output-element operation order exactly — double-precision
// accumulation in ascending (ic, kh, kw) / k order, identical float
// expressions for the epilogue ops — so optimized output is bit-identical
// to the reference. Parallelism, blocking and vector lanes only
// re-partition the output index space: each lane holds one output's
// chain, widened from float exactly and fed by a separate multiply and add
// (no FMA), so no single element's accumulation is ever split or
// reordered. Padding contributes exact 0.0f entries to the im2col panel,
// which leave a running double accumulator bit-unchanged (weights must be
// finite, which graph parameters are).
#pragma once

#include <cmath>
#include <vector>

#include "exec/tensor.h"
#include "exec/thread_pool.h"
#include "graph/attrs.h"

namespace lp::exec {

/// One fused elementwise op applied to a kernel's output elements.
struct EpilogueStep {
  graph::OpType op = graph::OpType::kRelu;
  const float* bias = nullptr;   // kBiasAdd
  const float* gamma = nullptr;  // kBatchNorm
  const float* beta = nullptr;   // kBatchNorm
  const float* mean = nullptr;   // kBatchNorm
  /// kBatchNorm: sqrt(max(var, 0) + eps) per channel, precomputed once so
  /// the per-element expression matches the reference exactly.
  std::vector<float> denom;
};

/// A fusion group's epilogue, applied to each output element in group
/// order. `c` is the channel (NCHW) or column (rank-2) index.
struct Epilogue {
  std::vector<EpilogueStep> steps;

  bool empty() const { return steps.empty(); }

  /// True if any step indexes per-channel parameters.
  bool per_channel() const {
    for (const auto& s : steps)
      if (s.op == graph::OpType::kBiasAdd ||
          s.op == graph::OpType::kBatchNorm)
        return true;
    return false;
  }

  float apply(float v, std::int64_t c) const {
    for (const auto& s : steps) {
      switch (s.op) {
        case graph::OpType::kBiasAdd:
          v += s.bias[c];
          break;
        case graph::OpType::kBatchNorm: {
          const float d = s.denom[static_cast<std::size_t>(c)];
          v = s.gamma[c] * (v - s.mean[c]) / d + s.beta[c];
          break;
        }
        case graph::OpType::kRelu:
          v = std::max(0.0f, v);
          break;
        case graph::OpType::kSigmoid:
          v = 1.0f / (1.0f + std::exp(-v));
          break;
        case graph::OpType::kTanh:
          v = std::tanh(v);
          break;
        default:
          break;  // unreachable; epilogue ops are validated on construction
      }
    }
    return v;
  }
};

/// The vector path the optimized conv and the weight fill take on this
/// CPU: "avx512", "avx2" or "baseline", chosen once per process.
const char* kernel_isa();

/// Convolution (im2col into k-major strips and a vector micro-kernel;
/// direct loops for depthwise) with the epilogue fused into the output
/// store.
Tensor conv2d_fast(const Tensor& x, const Tensor& w, const graph::ConvAttrs& a,
                   const Shape& out_shape, bool depthwise, const Epilogue& ep,
                   ThreadPool& pool);

/// A matmul's [inner, cols] weight, read one row slice at a time: from a
/// resident tensor, or synthesized into the reader's buffer just before it
/// is used, so a streamed weight never exists in memory as a whole.
class WeightRows {
 public:
  explicit WeightRows(const Tensor& resident) : resident_(&resident) {}
  explicit WeightRows(const ParamGenerator& synth) : synth_(&synth) {}

  /// Elements [c0, c0 + n) of row k of a weight with `cols` columns. `buf`
  /// holds n floats and backs the slice when the weight is synthesized.
  const float* row(std::int64_t k, std::int64_t cols, std::int64_t c0,
                   std::int64_t n, float* buf) const {
    if (resident_ != nullptr) return resident_->data() + k * cols + c0;
    synth_->fill(k * cols + c0, n, buf);
    return buf;
  }

 private:
  const Tensor* resident_ = nullptr;
  const ParamGenerator* synth_ = nullptr;
};

/// Fully-connected matmul. W is walked in row order, k outer, and the pool
/// splits the output columns into fixed slices, each with one double
/// accumulator per output fed in ascending k. Epilogue fused into the store.
Tensor matmul_fast(const Tensor& x, const WeightRows& w,
                   const Shape& out_shape, const Epilogue& ep,
                   ThreadPool& pool);

/// Max/avg pooling, parallel over (n, c) planes.
Tensor pool2d_fast(const Tensor& x, const graph::PoolAttrs& a,
                   const Shape& out_shape, bool is_max, ThreadPool& pool);

/// a += b, element-wise and in place.
void add_inplace(Tensor& a, const Tensor& b, ThreadPool& pool);

/// Applies an epilogue to every element of `t` in place (standalone
/// BiasAdd/BatchNorm/activation nodes and Add-anchored fusion groups).
void epilogue_inplace(Tensor& t, const Epilogue& ep, ThreadPool& pool);

/// Softmax over the last axis, in place.
void softmax_inplace(Tensor& t);

/// Channel (axis-1) concatenation of NCHW tensors.
Tensor concat_fast(const std::vector<const Tensor*>& xs,
                   const Shape& out_shape);

}  // namespace lp::exec

// Optimized execution kernels: im2col convolution on vector lanes (a
// micro-kernel per ISA, chosen once per process by CPU), a row-order matmul
// GEMV over resident or streamed weights (per ISA too), parallel
// pooling/elementwise, and a fused elementwise epilogue driven by
// graph::fusion groups.
//
// Determinism contract: every kernel reproduces the reference interpreter's
// per-output-element operation order exactly — double-precision
// accumulation in ascending (ic, kh, kw) / k order, identical float
// expressions for the epilogue ops — so optimized output is bit-identical
// to the reference. Parallelism, blocking and vector lanes only
// re-partition the output index space: each lane holds one output's
// chain, so no single element's accumulation is ever split or reordered.
// Every product in a chain is of two floats widened exactly to double, so
// it is exact, and each step rounds once, at the sum, whether it is a
// multiply and an add (the reference, the GEMV, the SSE2 conv) or one
// fused multiply-add (the AVX2 and AVX-512 conv). The conv widens both
// operands once, outside its inner loop:
// the im2col panel and each tile's weight rows are packed as doubles, and
// a conv deeper than one panel runs its K in ascending slices, each
// chain carried across them in double. Padding contributes exact 0.0
// entries to the panel, which leave a running double accumulator
// bit-unchanged (weights must be finite, which graph parameters are).
// BiasAdd, BatchNorm and ReLU run a vector of an output row at a time;
// Sigmoid and Tanh one element at a time.
#pragma once

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
/// order with the reference's float expression per op. An element's
/// parameters are its channel's (NCHW) or its column's (rank 2).
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
};

/// The vector path the optimized conv, the matmul GEMV and the weight fill
/// take on this CPU: "avx512" (AVX-512F and DQ), "avx2" (AVX2 and FMA) or
/// "baseline" (SSE2), chosen once per process.
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

/// Fully-connected matmul, a GEMV per batch row on the host's vector path.
/// W is walked in row order, k outer, and the pool splits the output
/// columns into fixed slices, each with one double accumulator per output
/// fed in ascending k. Epilogue fused into the store, per-column constants
/// read as vectors.
Tensor matmul_fast(const Tensor& x, const WeightRows& w,
                   const Shape& out_shape, const Epilogue& ep,
                   ThreadPool& pool);

/// Max/avg pooling, parallel over (n, c) planes. Each window's in-bounds
/// taps are found once, then read without a bounds test: a float max, or
/// the reference's double sum for the average.
Tensor pool2d_fast(const Tensor& x, const graph::PoolAttrs& a,
                   const Shape& out_shape, bool is_max, ThreadPool& pool);

/// a += b, element-wise and in place.
void add_inplace(Tensor& a, const Tensor& b, ThreadPool& pool);

/// Applies an epilogue to every element of `t` in place, a row of a channel
/// plane or a matrix at a time (standalone BiasAdd/BatchNorm/activation
/// nodes and Add-anchored fusion groups).
void epilogue_inplace(Tensor& t, const Epilogue& ep, ThreadPool& pool);

/// Softmax over the last axis, in place.
void softmax_inplace(Tensor& t);

/// Channel (axis-1) concatenation of NCHW tensors.
Tensor concat_fast(const std::vector<const Tensor*>& xs,
                   const Shape& out_shape);

}  // namespace lp::exec

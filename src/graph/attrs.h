// Operator kinds and per-operator attributes of the computation-graph IR.
//
// The operator set covers the 8 node categories LoADPart models (Table I)
// plus the structural nodes MindIR uses when partitioning (MakeTuple,
// Return) and shape plumbing (Flatten, Concat).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace lp::graph {

enum class OpType {
  kInput,    // graph input placeholder; the paper's virtual node L0
  kConv,     // 2-D convolution (weights in a Parameter)
  kDWConv,   // depth-wise 2-D convolution
  kMatMul,   // fully-connected matrix multiply
  kMaxPool,
  kAvgPool,
  kBiasAdd,
  kAdd,        // element-wise add (residual connections)
  kBatchNorm,  // inference-mode batch normalization
  kRelu,
  kSigmoid,
  kTanh,
  kSoftmax,
  kConcat,   // channel concatenation (Inception / SqueezeNet fire)
  kFlatten,  // NCHW -> N x (CHW)
  kMakeTuple,  // bundles multiple boundary tensors of a partition segment
  kReturn,     // segment output marker
};

std::string op_name(OpType op);

/// Inverse of op_name; throws ContractError for unknown strings.
OpType op_from_name(const std::string& name);

/// Attributes of convolution nodes (Conv and DWConv).
struct ConvAttrs {
  std::int64_t out_channels = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;  // symmetric padding
  std::int64_t pad_w = 0;
};

/// Attributes of pooling nodes.
struct PoolAttrs {
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  bool ceil_mode = false;  // AlexNet/SqueezeNet pools use ceil rounding
};

/// Attributes of fully-connected (MatMul) nodes.
struct MatMulAttrs {
  std::int64_t out_features = 0;
};

/// Attributes of concatenation nodes.
struct ConcatAttrs {
  std::int64_t axis = 1;  // channel axis in NCHW
};

using Attrs =
    std::variant<std::monostate, ConvAttrs, PoolAttrs, MatMulAttrs,
                 ConcatAttrs>;

}  // namespace lp::graph

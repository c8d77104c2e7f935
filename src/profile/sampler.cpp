#include "profile/sampler.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "common/check.h"
#include "graph/shape_infer.h"

namespace lp::profile {

using flops::ModelKind;
using flops::NodeConfig;
using graph::OpType;

namespace {

/// Representative operator for a model kind (inverse of model_kind()).
OpType op_for_kind(ModelKind kind) {
  switch (kind) {
    case ModelKind::kConv:
      return OpType::kConv;
    case ModelKind::kDWConv:
      return OpType::kDWConv;
    case ModelKind::kMatMul:
      return OpType::kMatMul;
    case ModelKind::kAvgPool:
      return OpType::kAvgPool;
    case ModelKind::kMaxPool:
      return OpType::kMaxPool;
    case ModelKind::kBiasAdd:
      return OpType::kBiasAdd;
    case ModelKind::kAdd:
      return OpType::kAdd;
    case ModelKind::kBatchNorm:
      return OpType::kBatchNorm;
    case ModelKind::kRelu:
      return OpType::kRelu;
    case ModelKind::kSigmoid:
      return OpType::kSigmoid;
    case ModelKind::kTanh:
      return OpType::kTanh;
    case ModelKind::kSoftmax:
      return OpType::kSoftmax;
    case ModelKind::kNone:
      break;
  }
  LP_CHECK_MSG(false, "no operator for kind");
  return OpType::kInput;
}

std::int64_t pick(Rng& rng, std::initializer_list<std::int64_t> values) {
  const auto idx = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1));
  return *(values.begin() + static_cast<std::ptrdiff_t>(idx));
}

/// Realistic "stage" of a CNN: spatial extent correlates inversely with
/// channel count, as in every zoo model. Sampling (H, C) jointly keeps the
/// profiled FLOPs range representative — uncorrelated uniform sampling
/// produces absurd configurations (512 channels at 299x299) whose squared
/// errors dominate the NNLS fit and skew the coefficients.
struct Stage {
  std::int64_t h;
  std::initializer_list<std::int64_t> channels;
};

const Stage kStages[] = {
    {299, {3}},          {227, {3}},           {224, {3}},
    {149, {32, 64}},     {147, {64, 96}},      {112, {32, 64, 96, 128}},
    {74, {128}},         {56, {64, 128, 192, 256}},
    {55, {64, 96}},      {37, {128, 256}},     {35, {192, 256, 288}},
    {28, {128, 192, 256, 384, 512}},           {27, {128, 256}},
    {19, {256, 728}},    {17, {768}},          {14, {256, 384, 512}},
    {13, {256, 384, 512}},                     {8, {1280, 2048}},
    {7, {512, 1024, 2048}},
};

NodeConfig sample_conv(Rng& rng, bool depthwise) {
  NodeConfig cfg;
  cfg.op = depthwise ? OpType::kDWConv : OpType::kConv;
  const auto& stage = kStages[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(std::size(kStages)) - 1))];
  std::int64_t cin = *(stage.channels.begin() +
                       static_cast<std::ptrdiff_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(
                                  stage.channels.size()) -
                                  1)));
  if (depthwise && cin < 16) cin = 32;  // no depthwise RGB stems exist
  std::int64_t h = stage.h;
  // Kernel size: mostly 1x1/3x3, large kernels only in high-res stems.
  std::int64_t k;
  if (depthwise) {
    k = pick(rng, {3, 3, 3, 5});
  } else if (h >= 112) {
    k = pick(rng, {3, 3, 5, 7, 11});
  } else {
    k = pick(rng, {1, 1, 3, 3, 3, 5});
  }
  const std::int64_t stride = pick(rng, {1, 1, 1, 2});
  std::int64_t pad = rng.bernoulli(0.7) ? k / 2 : 0;
  if (h + 2 * pad < k) h = k;  // keep the window inside the input
  cfg.kernel_h = cfg.kernel_w = k;
  cfg.pad_h = cfg.pad_w = pad;
  cfg.in = Shape{1, cin, h, h};
  // Output channels stay within a small factor of the input width.
  const std::int64_t cout = depthwise
                                ? cin
                                : std::clamp<std::int64_t>(
                                      cin * pick(rng, {1, 1, 2, 2, 4}) /
                                          pick(rng, {1, 1, 2}),
                                      16, 2048);
  graph::ConvAttrs attrs{cout, k, k, stride, stride, pad, pad};
  cfg.out = graph::conv_output_shape(cfg.in, attrs, depthwise);
  return cfg;
}

NodeConfig sample_matmul(Rng& rng) {
  NodeConfig cfg;
  cfg.op = OpType::kMatMul;
  const std::int64_t cin =
      pick(rng, {1024, 2048, 4096, 9216, 25088});
  const std::int64_t cout = pick(rng, {100, 1000, 2048, 4096});
  cfg.in = Shape{1, cin};
  cfg.out = Shape{1, cout};
  return cfg;
}

NodeConfig sample_pool(Rng& rng, bool is_max) {
  NodeConfig cfg;
  cfg.op = is_max ? OpType::kMaxPool : OpType::kAvgPool;
  const auto& stage = kStages[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(std::size(kStages)) - 1))];
  const std::int64_t c = std::max<std::int64_t>(
      16, *(stage.channels.begin() +
            static_cast<std::ptrdiff_t>(rng.uniform_int(
                0,
                static_cast<std::int64_t>(stage.channels.size()) - 1))));
  std::int64_t h = stage.h;
  // Global average pools (k == h) appear in every zoo head.
  const std::int64_t k =
      !is_max && h <= 14 && rng.bernoulli(0.3) ? h : pick(rng, {2, 3, 7});
  const std::int64_t stride = pick(rng, {1, 2});
  if (h < k) h = k;
  cfg.kernel_h = cfg.kernel_w = k;
  cfg.in = Shape{1, c, h, h};
  graph::PoolAttrs attrs{k, k, stride, stride, 0, 0, false};
  cfg.out = graph::pool_output_shape(cfg.in, attrs);
  return cfg;
}

NodeConfig sample_elementwise(Rng& rng, OpType op) {
  NodeConfig cfg;
  cfg.op = op;
  // Sizes follow the larger activation-map volumes the zoo produces; the
  // tiniest maps are launch-floor-bound on the GPU and would only teach the
  // regression about a constant it cannot represent.
  const std::int64_t c = pick(rng, {64, 128, 256, 512, 728});
  const std::int64_t h = pick(rng, {28, 56, 112, 149});
  cfg.in = Shape{1, c, h, h};
  cfg.out = cfg.in;
  return cfg;
}

}  // namespace

NodeConfig sample_config(ModelKind kind, Rng& rng) {
  switch (kind) {
    case ModelKind::kConv:
      return sample_conv(rng, false);
    case ModelKind::kDWConv:
      return sample_conv(rng, true);
    case ModelKind::kMatMul:
      return sample_matmul(rng);
    case ModelKind::kMaxPool:
      return sample_pool(rng, true);
    case ModelKind::kAvgPool:
      return sample_pool(rng, false);
    default:
      return sample_elementwise(rng, op_for_kind(kind));
  }
}

}  // namespace lp::profile

#include "flops/features.h"

#include "common/check.h"

namespace lp::flops {

std::string device_name(Device device) {
  return device == Device::kUser ? "user" : "edge";
}

namespace {

/// Size of a single conv filter: s_f = C_in * K_H * K_W.
std::int64_t filter_size(const NodeConfig& cfg) {
  return cfg.in.c() * cfg.kernel_h * cfg.kernel_w;
}

/// Total size of the padded input feature map (DWConv feature).
std::int64_t padded_size(const NodeConfig& cfg) {
  return cfg.in.n() * cfg.in.c() * (cfg.in.h() + 2 * cfg.pad_h) *
         (cfg.in.w() + 2 * cfg.pad_w);
}

}  // namespace

std::vector<double> features_of(const NodeConfig& cfg, Device device) {
  const auto kind = model_kind(cfg.op);
  LP_CHECK_MSG(kind != ModelKind::kNone, "node kind has no prediction model");
  const auto f = static_cast<double>(flops_of(cfg));
  switch (kind) {
    case ModelKind::kConv: {
      const auto sf = static_cast<double>(filter_size(cfg));
      return {f, sf, static_cast<double>(cfg.in.h()) * sf,
              static_cast<double>(cfg.out.c()) * sf};
    }
    case ModelKind::kDWConv: {
      const auto sf = static_cast<double>(filter_size(cfg));
      if (device == Device::kEdge)
        return {f, sf, static_cast<double>(padded_size(cfg))};
      return {f, static_cast<double>(cfg.in.n() * cfg.out.c()) * sf};
    }
    case ModelKind::kMatMul: {
      const auto n = static_cast<double>(cfg.in.dim(0));
      const auto cin = static_cast<double>(cfg.in.dim(1));
      const auto cout = static_cast<double>(cfg.out.dim(1));
      return {f, n * cin, n * cout, cin * cout};
    }
    case ModelKind::kMaxPool:
    case ModelKind::kAvgPool: {
      return {f,
              static_cast<double>(cfg.in.n() * cfg.in.c() * cfg.in.h() *
                                  cfg.in.w()),
              static_cast<double>(cfg.out.n() * cfg.out.c() * cfg.out.h() *
                                  cfg.out.w()),
              static_cast<double>(cfg.out.h() * cfg.out.w())};
    }
    default:
      // BiasAdd / element-wise / BatchNorm / activations: FLOPs only.
      return {f};
  }
}

std::vector<std::string> feature_names(ModelKind kind, Device device) {
  switch (kind) {
    case ModelKind::kConv:
      return {"FLOPs", "s_f", "H_in*s_f", "C_out*s_f"};
    case ModelKind::kDWConv:
      if (device == Device::kEdge) return {"FLOPs", "s_f", "padded_size"};
      return {"FLOPs", "N*C_out*s_f"};
    case ModelKind::kMatMul:
      return {"FLOPs", "N*C_in", "N*C_out", "C_in*C_out"};
    case ModelKind::kMaxPool:
    case ModelKind::kAvgPool:
      return {"FLOPs", "N*C_in*H_in*W_in", "N*C_out*H_out*W_out",
              "H_out*W_out"};
    default:
      return {"FLOPs"};
  }
}

std::vector<double> candidate_features_of(const NodeConfig& cfg) {
  const auto kind = model_kind(cfg.op);
  LP_CHECK(kind != ModelKind::kNone);
  const auto f = static_cast<double>(flops_of(cfg));
  switch (kind) {
    case ModelKind::kConv:
    case ModelKind::kDWConv: {
      const auto sf = static_cast<double>(filter_size(cfg));
      return {f,
              sf,
              static_cast<double>(cfg.in.h()) * sf,
              static_cast<double>(cfg.out.c()) * sf,
              static_cast<double>(padded_size(cfg)),
              static_cast<double>(cfg.in.n() * cfg.out.c()) * sf,
              static_cast<double>(cfg.in.c()),
              static_cast<double>(cfg.out.c()),
              static_cast<double>(cfg.kernel_h * cfg.kernel_w),
              static_cast<double>(cfg.out.h() * cfg.out.w())};
    }
    case ModelKind::kMatMul: {
      const auto n = static_cast<double>(cfg.in.dim(0));
      const auto cin = static_cast<double>(cfg.in.dim(1));
      const auto cout = static_cast<double>(cfg.out.dim(1));
      return {f, n * cin, n * cout, cin * cout, n, cin, cout};
    }
    case ModelKind::kMaxPool:
    case ModelKind::kAvgPool: {
      return {f,
              static_cast<double>(cfg.in.n() * cfg.in.c() * cfg.in.h() *
                                  cfg.in.w()),
              static_cast<double>(cfg.out.n() * cfg.out.c() * cfg.out.h() *
                                  cfg.out.w()),
              static_cast<double>(cfg.out.h() * cfg.out.w()),
              static_cast<double>(cfg.kernel_h * cfg.kernel_w),
              static_cast<double>(cfg.in.c())};
    }
    default:
      return {f, static_cast<double>(cfg.in.elements())};
  }
}

std::vector<std::string> candidate_feature_names(ModelKind kind) {
  switch (kind) {
    case ModelKind::kConv:
    case ModelKind::kDWConv:
      return {"FLOPs",       "s_f",         "H_in*s_f", "C_out*s_f",
              "padded_size", "N*C_out*s_f", "C_in",     "C_out",
              "K_H*K_W",     "H_out*W_out"};
    case ModelKind::kMatMul:
      return {"FLOPs", "N*C_in", "N*C_out", "C_in*C_out", "N", "C_in",
              "C_out"};
    case ModelKind::kMaxPool:
    case ModelKind::kAvgPool:
      return {"FLOPs",       "N*C_in*H_in*W_in", "N*C_out*H_out*W_out",
              "H_out*W_out", "K_H*K_W",          "C_in"};
    default:
      return {"FLOPs", "input_elements"};
  }
}

}  // namespace lp::flops

#include "hw/gpu_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "graph/fusion.h"
#include "hw/cpu_model.h"

namespace lp::hw {

DurationNs GpuModel::kernel_time(const flops::NodeConfig& cfg) const {
  const auto kind = flops::model_kind(cfg.op);
  using flops::ModelKind;

  double body_s = 0.0;
  if (kind != ModelKind::kNone || cfg.op == graph::OpType::kConcat ||
      cfg.op == graph::OpType::kFlatten) {
    const auto f = static_cast<double>(flops::flops_of(cfg));
    double compute_s = 0.0;
    switch (kind) {
      case ModelKind::kConv: {
        // Small kernels cannot fill the SMs: occupancy scales with the
        // output volume until saturation.
        const double occupancy = std::min(
            1.0, static_cast<double>(cfg.out.elements()) /
                     params_.saturation_elems);
        compute_s = f / (params_.mac_per_sec * std::max(occupancy, 0.02));
        break;
      }
      case ModelKind::kMatMul:
        // Inference GEMV parallelizes across weight rows; streaming the
        // weight matrix (the memory term below) is the real bottleneck.
        compute_s = f / params_.mac_per_sec;
        break;
      case ModelKind::kDWConv:
        // Depthwise is memory bound on GPUs; give it a tenth of peak.
        compute_s = f / (params_.mac_per_sec * 0.1);
        break;
      case ModelKind::kMaxPool:
      case ModelKind::kAvgPool:
        compute_s = f / (params_.mac_per_sec * 0.05);
        break;
      default:
        compute_s = 0.0;  // element-wise & data movement: memory bound
        break;
    }
    const double mem_s = static_cast<double>(node_memory_bytes(cfg)) /
                         params_.mem_bytes_per_sec;
    body_s = std::max(compute_s, mem_s);
  } else if (cfg.op == graph::OpType::kInput) {
    return 0;
  }

  return seconds(std::max(body_s, 0.0) + params_.kernel_launch_sec);
}

std::vector<DurationNs> GpuModel::segment_kernels(const graph::Graph& g,
                                                  std::size_t begin,
                                                  std::size_t end) const {
  LP_CHECK(begin <= end && end < g.backbone().size());
  std::vector<DurationNs> kernels;
  kernels.reserve(end - begin + 1);
  const DurationNs dispatch = seconds(params_.framework_dispatch_sec);
  for (std::size_t i = std::max<std::size_t>(begin, 1); i <= end; ++i) {
    const auto t = kernel_time(flops::config_of(g, g.backbone()[i]));
    if (t > 0) kernels.push_back(t + dispatch);
  }
  return kernels;
}

DurationNs GpuModel::segment_time(const graph::Graph& g, std::size_t begin,
                                  std::size_t end) const {
  DurationNs total = 0;
  for (auto t : segment_kernels(g, begin, end)) total += t;
  return total;
}

std::vector<DurationNs> GpuModel::fused_segment_kernels(
    const graph::Graph& g, std::size_t begin, std::size_t end) const {
  LP_CHECK(begin <= end && end < g.backbone().size());
  const auto groups =
      graph::fuse_segment(g, std::max<std::size_t>(begin, 1), end);
  const DurationNs dispatch = seconds(params_.framework_dispatch_sec);
  const DurationNs launch = seconds(params_.kernel_launch_sec);

  std::vector<DurationNs> kernels;
  kernels.reserve(groups.size());
  for (const auto& group : groups) {
    DurationNs t = 0;
    bool first = true;
    for (graph::NodeId id : group.nodes) {
      const auto body = kernel_time(flops::config_of(g, id));
      if (body <= 0) continue;
      if (first) {
        t += body;
        first = false;
      } else {
        // Epilogue work rides in the anchor kernel's registers; only a
        // small residual of its standalone cost remains.
        t += std::max<DurationNs>(0, (body - launch) * 15 / 100);
      }
    }
    if (t > 0) kernels.push_back(t + dispatch);
  }
  return kernels;
}

DurationNs GpuModel::fused_segment_time(const graph::Graph& g,
                                        std::size_t begin,
                                        std::size_t end) const {
  DurationNs total = 0;
  for (auto t : fused_segment_kernels(g, begin, end)) total += t;
  return total;
}

}  // namespace lp::hw

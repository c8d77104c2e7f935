// Per-graph costs consumed by the partition decision algorithm and the
// simulated runtime.
//
// f(L_i) = M_user(L_i) and g(L_i, k) = k * M_edge(L_i) (Section IV). The
// profile precomputes f, the base M_edge, their prefix/suffix sums, the
// transmission sizes s_i, and the size of each side's partition once per
// (model, predictor) pair; Algorithm 1 then answers each query in O(n) with
// the most recent k and bandwidth, and the runtime prices every partition
// cache miss and upload from the same profile without building a partition.
// The profile also holds the simulated hardware's exact times
// (hw::CpuModel::node_time, hw::GpuModel::kernel_time) per position, which
// the client and both servers charge instead of re-deriving each layer's
// configuration on every request.
#pragma once

#include <vector>

#include "common/units.h"
#include "graph/cut.h"
#include "graph/graph.h"
#include "profile/trainer.h"

namespace lp::core {

/// Bundle of the two trained predictor sets loaded on both sides.
struct PredictorBundle {
  profile::NodePredictor user;
  profile::NodePredictor edge;
};

/// Trains M_user and M_edge against the default simulated hardware
/// (deterministic given the seed). Reports, when requested, are the rows of
/// Table III.
PredictorBundle train_default_predictors(
    std::uint64_t seed = 1234,
    std::vector<profile::TrainReport>* reports = nullptr);

class GraphCostProfile {
 public:
  GraphCostProfile(const graph::Graph& g, const PredictorBundle& predictors);

  const graph::Graph& graph() const { return *graph_; }
  std::size_t n() const { return f_.size() - 1; }

  /// Predicted device time of node at backbone position i (f(L_i)).
  double f(std::size_t i) const { return f_[i]; }
  /// Predicted *unloaded* server time of node at position i (M_edge(L_i)).
  double g_base(std::size_t i) const { return g_[i]; }

  /// Sum of f over positions [0, p].
  double prefix_f(std::size_t p) const { return prefix_f_[p + 1]; }
  /// Sum of M_edge over positions [p+1, n] (multiply by k for g).
  double suffix_g(std::size_t p) const { return suffix_g_[p + 1]; }

  /// Exact simulated device time of {L1..Lp}: hw::CpuModel::segment_time
  /// (g, 0, p), from an int64 prefix sum of node_time.
  DurationNs device_prefix_ns(std::size_t p) const {
    return device_prefix_ns_[p];
  }
  /// Exact simulated device time of {Lp+1..Ln} (0 at p = n): the difference
  /// of two prefix sums over the same int64 terms, so it equals
  /// segment_time(g, p + 1, n) bit for bit.
  DurationNs device_suffix_ns(std::size_t p) const {
    return device_prefix_ns_[n()] - device_prefix_ns_[p];
  }
  /// hw::GpuModel::kernel_time of the node at backbone position i; 0 at the
  /// virtual L0.
  DurationNs kernel_ns(std::size_t i) const { return kernel_ns_[i]; }

  /// Transmission bytes s_p of the cut after position p.
  std::int64_t s(std::size_t p) const { return s_[p]; }

  /// Predicted end-to-end latency of cutting at p (Problem 1). Ignores the
  /// download term when download_bps <= 0, as the implementation does
  /// (Section IV).
  double predicted_latency(std::size_t p, double k, double upload_bps,
                           double download_bps = 0.0) const;

  /// Computation nodes of the device segment the partitioner
  /// (partition/partitioner.h) builds for cut p: {L0..Lp}, a Return, and a
  /// MakeTuple when more than one tensor crosses the cut; 0 at p = 0
  /// (nothing runs on the device).
  std::size_t device_nodes(std::size_t p) const { return device_nodes_[p]; }
  /// Computation nodes of the server segment: {Lp+1..Ln} and a Return; 0 at
  /// p = n (nothing runs on the server).
  std::size_t server_nodes(std::size_t p) const {
    return p < n() ? n() - p + 1 : 0;
  }

 private:
  const graph::Graph* graph_;
  std::vector<double> f_;
  std::vector<double> g_;
  std::vector<double> prefix_f_;  // prefix_f_[i] = sum f over first i nodes
  std::vector<double> suffix_g_;  // suffix_g_[i] = sum g over positions >= i
  std::vector<DurationNs> device_prefix_ns_;  // node_time over L1..Li
  std::vector<DurationNs> kernel_ns_;
  std::vector<std::int64_t> s_;
  std::vector<std::size_t> device_nodes_;
};

/// Fusion-aware server-side prediction of a backbone segment (extension;
/// cf. NN-Meter in Section VI): each fusion group is predicted as its
/// anchor kernel alone, instead of summing every member layer-by-layer —
/// the summing error the paper warns about on fusing frameworks.
double fused_edge_prediction(const graph::Graph& g,
                             const profile::NodePredictor& edge,
                             std::size_t begin, std::size_t end);

}  // namespace lp::core

// The partition decision algorithm (Algorithm 1).
//
// Linear search over the cut positions of the backbone topological order,
// using prefix sums of f and suffix sums of g to evaluate each candidate in
// O(1) — O(n) total, the paper's light-weight alternative to O(n^3)
// min-cut partitioning (DADS). Two entry points:
//   * partition_decision(): the pseudocode verbatim, operating on raw cost
//     arrays (used by tests to cross-check);
//   * decide(): the Section IV implementation over a GraphCostProfile,
//     multiplying the cached M_edge suffix sums by the latest k and
//     ignoring the download term.
#pragma once

#include <cstdint>
#include <span>

#include "core/predictor.h"

namespace lp::core {

struct Decision {
  std::size_t p = 0;               ///< optimal partition point
  double predicted_latency = 0.0;  ///< t_p in seconds
};

/// Algorithm 1 verbatim. f and g are the per-position predicted times
/// (seconds) including the virtual L0 at index 0; g must already reflect k;
/// s are the transmission sizes in bytes (s[0]..s[n]); bandwidths in bits/s.
/// Pass download_bps <= 0 to drop the s_n/B_d term.
Decision partition_decision(std::span<const double> f,
                            std::span<const double> g,
                            std::span<const std::int64_t> s,
                            double upload_bps, double download_bps);

/// Incremental form over a prebuilt profile: t_p = prefix_f(p) + s_p/B_u +
/// k * suffix_g(p), local when p = n. Ties break toward larger p as in the
/// pseudocode (the `<=` in line 15).
Decision decide(const GraphCostProfile& profile, double k, double upload_bps);

/// O(n^2) brute force over Problem 1 (test oracle).
Decision decide_brute_force(const GraphCostProfile& profile, double k,
                            double upload_bps);

}  // namespace lp::core

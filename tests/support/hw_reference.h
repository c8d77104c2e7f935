// Layer-by-layer reference for the simulated hardware times that
// core::GraphCostProfile tables once per model: the device side from
// hw::CpuModel::segment_time, the server side rebuilt from
// hw::GpuModel::kernel_time(config_of(...)) for every position.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/offload_runtime.h"
#include "flops/flops.h"

namespace lp::test {

/// The profile's device times at cut p equal segment_time over {L1..Lp}
/// and {Lp+1..Ln} (0 at p = n), exactly.
inline void expect_device_times_match(const graph::Graph& g,
                                      const core::GraphCostProfile& profile,
                                      std::size_t p) {
  const hw::CpuModel cpu;
  EXPECT_EQ(profile.device_prefix_ns(p), cpu.segment_time(g, 0, p));
  EXPECT_EQ(profile.device_suffix_ns(p),
            p < g.n() ? cpu.segment_time(g, p + 1, g.n()) : 0);
}

/// core::suffix_kernels at cut p < n equals, for batch in {1, 2, 4} and
/// straggle in {1.0, 2.0}, the simulated GPU's kernels built here from
/// kernel_time(config_of(...)) of each position: one kernel per positive
/// time, its body scaled by 1 + (batch - 1) * batch_compute_frac plus one
/// framework dispatch (at batch 1, segment_kernels), then scaled by
/// straggle and one clamped jitter draw per kernel from an Rng seeded alike.
inline void expect_suffix_kernels_match(const graph::Graph& g,
                                        const core::GraphCostProfile& profile,
                                        std::size_t p) {
  const hw::GpuModel gpu;
  const hw::GpuModelParams& params = gpu.params();
  const DurationNs dispatch = seconds(params.framework_dispatch_sec);
  for (std::size_t batch : {1, 2, 4}) {
    const double scale =
        1.0 + static_cast<double>(batch - 1) * params.batch_compute_frac;
    std::vector<DurationNs> body;
    for (std::size_t i = p + 1; i <= g.n(); ++i) {
      const DurationNs t =
          gpu.kernel_time(flops::config_of(g, g.backbone()[i]));
      if (t <= 0) continue;
      body.push_back(
          static_cast<DurationNs>(static_cast<double>(t) * scale) + dispatch);
    }
    if (batch == 1) {
      EXPECT_EQ(body, gpu.segment_kernels(g, p + 1, g.n()));
    }
    for (double straggle : {1.0, 2.0}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " straggle=" + std::to_string(straggle));
      Rng expected_rng(p * 31 + batch);
      std::vector<DurationNs> expected = body;
      for (auto& k : expected)
        k = std::max<DurationNs>(
            1, static_cast<DurationNs>(
                   static_cast<double>(k) * straggle *
                   std::max(0.2, 1.0 + params.jitter_frac *
                                           expected_rng.normal())));
      Rng rng(p * 31 + batch);
      EXPECT_EQ(core::suffix_kernels(gpu, profile, p, batch, straggle, rng),
                expected);
      EXPECT_EQ(rng(), expected_rng());  // one draw per kernel, no more
    }
  }
}

}  // namespace lp::test

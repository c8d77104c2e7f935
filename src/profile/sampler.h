// Synthetic node-configuration sampler for the offline profiler.
//
// "We investigate some common DNNs to decide the value ranges of attributes
// of different computation nodes. Then, for each kind of computation node,
// we sample uniformly in its corresponding ranges" (Section III-B). Ranges
// below bracket what the zoo models actually contain.
#pragma once

#include "common/rng.h"
#include "flops/flops.h"

namespace lp::profile {

/// Draws one well-formed configuration of the given model kind.
flops::NodeConfig sample_config(flops::ModelKind kind, Rng& rng);

}  // namespace lp::profile

// Input features of the inference-time prediction models (Table II).
//
// Features differ between the edge server and the user-end device for
// depth-wise convolutions; all other kinds share one feature set. The
// offline profiler also exposes the wider *candidate* feature sets that the
// paper scored with XGBoost before selecting these.
#pragma once

#include <string>
#include <vector>

#include "flops/flops.h"

namespace lp::flops {

enum class Device { kUser, kEdge };

std::string device_name(Device device);

/// Selected features (Table II) for one node configuration.
std::vector<double> features_of(const NodeConfig& cfg, Device device);

/// Human-readable names matching features_of ordering.
std::vector<std::string> feature_names(ModelKind kind, Device device);

/// Candidate features considered during offline feature selection
/// (superset of Table II; scored by GBT importance in bench/table2).
std::vector<double> candidate_features_of(const NodeConfig& cfg);
std::vector<std::string> candidate_feature_names(ModelKind kind);

}  // namespace lp::flops

// Persistence of trained predictors.
//
// "The trained prediction models are stored on both the user-end device and
// the edge server" (Section III-A). A small line-oriented text format keeps
// the store diffable and dependency-free.
#pragma once

#include <string>

#include "profile/trainer.h"

namespace lp::profile {

/// Serializes a predictor bundle: one "<kind> <coef...>" line per model.
std::string serialize_predictor(const NodePredictor& predictor);

/// Parses serialize_predictor output; throws ContractError on malformed
/// input: an unknown or repeated kind, a line that does not parse to its
/// end, or a coefficient count other than the kind's feature count on
/// `device`.
NodePredictor deserialize_predictor(const std::string& text,
                                    flops::Device device);

/// File round-trip helpers.
void save_predictor(const NodePredictor& predictor, const std::string& path);
NodePredictor load_predictor(const std::string& path, flops::Device device);

}  // namespace lp::profile

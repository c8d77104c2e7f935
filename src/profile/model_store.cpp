#include "profile/model_store.h"

#include <fstream>
#include <sstream>

#include "common/check.h"
#include "flops/features.h"

namespace lp::profile {

using flops::ModelKind;

std::string serialize_predictor(const NodePredictor& predictor) {
  std::ostringstream out;
  out.precision(17);
  for (ModelKind kind : flops::all_model_kinds()) {
    const auto* model = predictor.model(kind);
    if (model == nullptr) continue;
    out << static_cast<int>(kind);
    for (double c : model->coefficients()) out << ' ' << c;
    out << '\n';
  }
  return out.str();
}

NodePredictor deserialize_predictor(const std::string& text,
                                    flops::Device device) {
  NodePredictor predictor(device);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    int kind_raw = -1;
    fields >> kind_raw;
    LP_CHECK_MSG(kind_raw >= 0 && kind_raw < flops::kNumModelKinds,
                 "bad model kind in store");
    const auto kind = static_cast<ModelKind>(kind_raw);
    LP_CHECK_MSG(predictor.model(kind) == nullptr,
                 "model kind listed twice in store");
    std::vector<double> coef;
    double c = 0.0;
    while (fields >> c) coef.push_back(c);
    // Extraction stops at the first non-number; only the end of the line
    // may stop it.
    LP_CHECK_MSG(fields.eof(), "unparsable coefficient in store: " + line);
    LP_CHECK_MSG(coef.size() == flops::feature_names(kind, device).size(),
                 "coefficient count differs from the kind's feature count");
    predictor.set_model(kind, ml::LinearModel(std::move(coef)));
  }
  return predictor;
}

void save_predictor(const NodePredictor& predictor, const std::string& path) {
  std::ofstream out(path);
  LP_CHECK_MSG(out.good(), "cannot open " + path + " for writing");
  out << serialize_predictor(predictor);
}

NodePredictor load_predictor(const std::string& path, flops::Device device) {
  std::ifstream in(path);
  LP_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize_predictor(buf.str(), device);
}

}  // namespace lp::profile

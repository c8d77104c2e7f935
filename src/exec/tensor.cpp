#include "exec/tensor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace lp::exec {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.elements()), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  LP_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.elements());
}

Tensor Tensor::reshaped(Tensor&& t, Shape shape) {
  LP_CHECK_MSG(shape.elements() == t.elements(),
               "reshape must preserve the element count");
  Tensor out;
  out.shape_ = std::move(shape);
  out.data_ = std::move(t.data_);
  t.shape_ = Shape{};
  return out;
}

double Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  LP_CHECK_MSG(a.shape() == b.shape(), "shape mismatch in comparison");
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.elements(); ++i) {
    const double d = std::abs(static_cast<double>(a.at(i)) -
                              static_cast<double>(b.at(i)));
    if (std::isnan(d)) return d;
    worst = std::max(worst, d);
  }
  return worst;
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.elements(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

namespace {

// SplitMix64's Weyl increment: 2^64 / golden ratio.
constexpr std::uint64_t kWeylStep = 0x9E3779B97F4A7C15ull;

/// SplitMix64's output function.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Four uniform 16-bit lanes sum to mean 4 * 65535 / 2 with variance
// 4 * (65536^2 - 1) / 12.
constexpr std::int32_t kLaneSumMean = 2 * 65535;
constexpr double kLaneSumVar = (65536.0 * 65536.0 - 1.0) / 3.0;

}  // namespace

ParamGenerator::ParamGenerator(const std::string& name, const Shape& shape) {
  seed_ = 1469598103934665603ull;  // FNV-1a over the name
  for (char ch : name) {
    seed_ ^= static_cast<unsigned char>(ch);
    seed_ *= 1099511628211ull;
  }
  mean_ = 1.0f;
  double sd = 0.25;
  if (shape.rank() >= 2) {
    // fan_in: dim 0 of an FC weight [in, out], the product of the other
    // dims of a conv weight [out, in, kh, kw].
    std::int64_t fan_in = shape.dim(0);
    if (shape.rank() > 2) {
      fan_in = 1;
      for (std::size_t d = 1; d < shape.rank(); ++d) fan_in *= shape.dim(d);
    }
    mean_ = 0.0f;
    sd = std::sqrt(2.0 /
                   static_cast<double>(std::max<std::int64_t>(1, fan_in)));
  }
  scale_ = static_cast<float>(sd / std::sqrt(kLaneSumVar));
}

void ParamGenerator::fill(std::int64_t first, std::int64_t count,
                          float* out) const {
  // Locals, so stores through `out` cannot force reloads of the members.
  const float mean = mean_, scale = scale_;
  std::uint64_t z = seed_ + static_cast<std::uint64_t>(first) * kWeylStep;
  for (std::int64_t j = 0; j < count; ++j) {
    z += kWeylStep;
    const std::uint64_t r = mix64(z);
    // The four 16-bit lanes summed in pairs, then the two pair sums.
    const std::uint64_t pairs = (r & 0x0000FFFF0000FFFFull) +
                                ((r >> 16) & 0x0000FFFF0000FFFFull);
    const auto lanes =
        static_cast<std::int32_t>((pairs & 0xFFFFFFFFull) + (pairs >> 32));
    out[j] = mean + scale * static_cast<float>(lanes - kLaneSumMean);
  }
}

Tensor deterministic_param(const std::string& name, const Shape& shape) {
  Tensor t(shape);
  ParamGenerator(name, shape).fill(0, t.elements(), t.data());
  return t;
}

}  // namespace lp::exec

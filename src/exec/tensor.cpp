#include "exec/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "exec/isa.h"

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

namespace {

/// ParamGenerator::fill's loop, one element at a time.
void fill_scalar(std::uint64_t seed, float mean, float scale,
                 std::int64_t first, std::int64_t count, float* out) {
  std::uint64_t z = seed + static_cast<std::uint64_t>(first) * kWeylStep;
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

#if defined(__x86_64__)
/// fill_scalar eight elements per step, one SplitMix64 stream per lane:
/// each lane computes the scalar loop's int32 lane sum, its conversion to
/// float and mean + scale * x (a float multiply, then an add). AVX-512DQ
/// multiplies 64-bit lanes natively; where that multiply must be emulated
/// (AVX2), the scalar loop is faster, so only this path has one.
__attribute__((target("avx512f,avx512dq"))) void fill_avx512(
    std::uint64_t seed, float mean, float scale, std::int64_t first,
    std::int64_t count, float* out) {
  using V8u = std::uint64_t __attribute__((vector_size(64)));
  using V8i = std::int32_t __attribute__((vector_size(32)));
  using V8f = float __attribute__((vector_size(32)));
  const V8u lane = {0, 1, 2, 3, 4, 5, 6, 7};
  // Lane l's counter before element j + l: step first + j + l.
  V8u z = seed + (static_cast<std::uint64_t>(first) + lane) * kWeylStep;
  std::int64_t j = 0;
  for (; j + 8 <= count; j += 8) {
    V8u r = z + kWeylStep;
    z += 8 * kWeylStep;
    r = (r ^ (r >> 30)) * 0xBF58476D1CE4E5B9ull;
    r = (r ^ (r >> 27)) * 0x94D049BB133111EBull;
    r ^= r >> 31;
    const V8u pairs = (r & 0x0000FFFF0000FFFFull) +
                      ((r >> 16) & 0x0000FFFF0000FFFFull);
    const V8i lanes =
        __builtin_convertvector((pairs & 0xFFFFFFFFull) + (pairs >> 32), V8i);
    const V8f x = __builtin_convertvector(lanes - kLaneSumMean, V8f);
    const V8f v = mean + scale * x;
    std::memcpy(out + j, &v, sizeof v);
  }
  fill_scalar(seed, mean, scale, first + j, count - j, out + j);
}
#endif

}  // namespace

void isa::fill_params(Isa isa, std::uint64_t seed, float mean, float scale,
                      std::int64_t first, std::int64_t count, float* out) {
  LP_CHECK_MSG(supported(isa), std::string("this CPU cannot run the ") +
                                   name(isa) + " fill path");
#if defined(__x86_64__)
  if (isa == Isa::kAvx512) {
    fill_avx512(seed, mean, scale, first, count, out);
    return;
  }
#endif
  fill_scalar(seed, mean, scale, first, count, out);
}

void ParamGenerator::fill(std::int64_t first, std::int64_t count,
                          float* out) const {
  isa::fill_params(isa::host(), seed_, mean_, scale_, first, count, out);
}

Tensor deterministic_param(const std::string& name, const Shape& shape) {
  Tensor t(shape);
  ParamGenerator(name, shape).fill(0, t.elements(), t.data());
  return t;
}

}  // namespace lp::exec

// Dense float32 tensors for the graph interpreter.
//
// Element accessors are inline and, in Release builds, check-free: bounds
// and rank contracts are LP_DCHECKs, active only in Debug builds, so hot
// kernel loops pay nothing for them while indexing bugs still trap during
// development.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "tensor/shape.h"

namespace lp::exec {

/// std::allocator, except that an element it constructs with no value is
/// default-initialized: a vector of floats or doubles sized through it
/// leaves its elements unset instead of zero-filling them.
template <class T>
struct UninitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) { ::new (static_cast<void*>(p)) U; }
};

template <class T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

/// n unset elements, for a buffer its user writes before reading any of
/// it. Where LP_DCHECK is active they start as NaN instead, so an element
/// a kernel reads before writing, or never writes, shows in its output.
template <class T>
UninitVector<T> uninit_vector(std::int64_t n) {
  UninitVector<T> v(static_cast<std::size_t>(n));
#ifndef NDEBUG
  std::fill(v.begin(), v.end(), std::numeric_limits<T>::quiet_NaN());
#endif
  return v;
}

class Tensor {
 public:
  Tensor() = default;
  /// Every element 0.0f.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, const std::vector<float>& data);

  // Each copy is one memmove: a vector with a non-standard allocator
  // copies element by element, in a scalar loop.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  /// A tensor whose elements are unset (NaN where LP_DCHECK is active),
  /// for a kernel that writes every one of them.
  static Tensor uninitialized(Shape shape);

  const Shape& shape() const { return shape_; }
  std::int64_t elements() const { return shape_.elements(); }

  /// True for a default-constructed (or moved-from / released) tensor that
  /// holds no buffer.
  bool empty() const { return data_.empty(); }

  /// Buffer size in bytes (0 when empty).
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(float));
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(std::int64_t i) {
    LP_DCHECK(i >= 0 && i < elements());
    return data_[static_cast<std::size_t>(i)];
  }
  float at(std::int64_t i) const {
    LP_DCHECK(i >= 0 && i < elements());
    return data_[static_cast<std::size_t>(i)];
  }

  /// NCHW element access; requires rank 4 and in-range indices.
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    LP_DCHECK(shape_.rank() == 4);
    LP_DCHECK(n >= 0 && n < shape_.n() && c >= 0 && c < shape_.c() &&
              h >= 0 && h < shape_.h() && w >= 0 && w < shape_.w());
    return data_[static_cast<std::size_t>(
        ((n * shape_.c() + c) * shape_.h() + h) * shape_.w() + w)];
  }
  float at4(std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w) const {
    LP_DCHECK(shape_.rank() == 4);
    LP_DCHECK(n >= 0 && n < shape_.n() && c >= 0 && c < shape_.c() &&
              h >= 0 && h < shape_.h() && w >= 0 && w < shape_.w());
    return data_[static_cast<std::size_t>(
        ((n * shape_.c() + c) * shape_.h() + h) * shape_.w() + w)];
  }

  /// Rank-2 element access.
  float& at2(std::int64_t r, std::int64_t c) {
    LP_DCHECK(shape_.rank() == 2);
    LP_DCHECK(r >= 0 && r < shape_.dim(0) && c >= 0 && c < shape_.dim(1));
    return data_[static_cast<std::size_t>(r * shape_.dim(1) + c)];
  }
  float at2(std::int64_t r, std::int64_t c) const {
    LP_DCHECK(shape_.rank() == 2);
    LP_DCHECK(r >= 0 && r < shape_.dim(0) && c >= 0 && c < shape_.dim(1));
    return data_[static_cast<std::size_t>(r * shape_.dim(1) + c)];
  }

  /// Steals `t`'s buffer into a tensor of `shape` without copying; element
  /// counts must match. Used to pass tensors through Flatten for free.
  static Tensor reshaped(Tensor&& t, Shape shape);

  /// Largest absolute element-wise difference; shapes must match. NaN when
  /// either tensor holds a NaN, so a comparison against 0 or a tolerance
  /// fails on NaN outputs instead of reading them as equal.
  static double max_abs_diff(const Tensor& a, const Tensor& b);

 private:
  Shape shape_;
  UninitVector<float> data_;
};

/// Uniform [-1, 1) tensor from a seed.
Tensor random_tensor(const Shape& shape, std::uint64_t seed);

/// Counter-based synthesis of a parameter's stand-in values. Element i is a
/// libm-free function of (FNV-1a(name), i): SplitMix64's output function
/// applied to step i + 1 of a Weyl sequence seeded by the name's hash, and
/// its four 16-bit lanes summed and centred (an Irwin-Hall(4) draw, roughly
/// normal). Any slice can therefore be generated on its own, by any
/// thread and in any order, and it equals the same elements of the whole
/// tensor bit for bit.
///
/// Scaling keeps every zoo model's activations finite:
///   * rank >= 2 (weights): mean 0, sd sqrt(2 / fan_in), where fan_in is
///     dim 0 of an FC weight [in, out] and the product of dims 1.. of a
///     conv weight [out, in, kh, kw] (He initialisation);
///   * rank <= 1 (bias, BatchNorm gamma/beta/mean/var): mean 1, sd 0.25,
///     so every value lies in (0.13, 1.87).
class ParamGenerator {
 public:
  ParamGenerator(const std::string& name, const Shape& shape);

  /// Writes elements [first, first + count) to out[0, count): eight at a
  /// time on CPUs with AVX-512DQ, one at a time elsewhere, same bits.
  void fill(std::int64_t first, std::int64_t count, float* out) const;

 private:
  std::uint64_t seed_ = 0;
  float mean_ = 0.0f;
  float scale_ = 0.0f;  // target sd per unit of the centred lane sum
};

/// The whole of ParamGenerator(name, shape), so both halves of a partitioned
/// graph see identical weights without any shared state.
Tensor deterministic_param(const std::string& name, const Shape& shape);

}  // namespace lp::exec

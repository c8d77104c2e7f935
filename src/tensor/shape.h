// Tensor shapes.
//
// Shapes are NCHW for feature maps; arbitrary ranks are supported for
// flattened/FC tensors. Element counts and byte sizes drive both the FLOPs
// formulas (Table I) and the transmission sizes s_i used by Algorithm 1.
// Every tensor is float32.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace lp {

/// Dense tensor shape; axis sizes must be positive, and the float32 byte
/// size must fit in int64 (both checked at construction).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  std::size_t rank() const { return dims_.size(); }
  std::int64_t dim(std::size_t i) const;
  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Total element count (1 for rank-0).
  std::int64_t elements() const;

  /// NCHW accessors; require rank() == 4.
  std::int64_t n() const { return dim(0); }
  std::int64_t c() const { return dim(1); }
  std::int64_t h() const { return dim(2); }
  std::int64_t w() const { return dim(3); }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string to_string() const;  ///< e.g. "1x3x224x224"

 private:
  std::vector<std::int64_t> dims_;
};

/// A float32 tensor's shape: everything needed to size a transmission.
struct TensorDesc {
  Shape shape;

  std::int64_t bytes() const {
    return shape.elements() * static_cast<std::int64_t>(sizeof(float));
  }
  bool operator==(const TensorDesc& other) const = default;
};

}  // namespace lp

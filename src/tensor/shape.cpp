#include "tensor/shape.h"

#include <sstream>

#include "common/check.h"

namespace lp {

Shape::Shape(std::initializer_list<std::int64_t> dims)
    : Shape(std::vector<std::int64_t>(dims)) {}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  // Bound the byte size once here, so elements() and TensorDesc::bytes()
  // can multiply unchecked without signed overflow.
  std::int64_t bytes = static_cast<std::int64_t>(sizeof(float));
  for (auto d : dims_) {
    LP_CHECK_MSG(d > 0, "axis sizes must be positive");
    const bool overflow = __builtin_mul_overflow(bytes, d, &bytes);
    LP_CHECK_MSG(!overflow, "byte size overflows int64: " + to_string());
  }
}

std::int64_t Shape::dim(std::size_t i) const {
  LP_CHECK(i < dims_.size());
  return dims_[i];
}

std::int64_t Shape::elements() const {
  std::int64_t total = 1;
  for (auto d : dims_) total *= d;
  return total;
}

std::string Shape::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out << 'x';
    out << dims_[i];
  }
  return out.str();
}

}  // namespace lp

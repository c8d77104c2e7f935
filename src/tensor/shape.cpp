#include "tensor/shape.h"

#include <sstream>

#include "common/check.h"

namespace lp {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
  for (auto d : dims_) LP_CHECK_MSG(d > 0, "axis sizes must be positive");
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  for (auto d : dims_) LP_CHECK_MSG(d > 0, "axis sizes must be positive");
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

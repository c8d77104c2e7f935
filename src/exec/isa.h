// The vector instruction sets the optimized convolution and the weight fill
// are compiled for, and a hook that runs either on a named one. Private to
// src/exec and its tests: everyone else gets the host's path through
// conv2d_fast and ParamGenerator::fill, chosen once per process.
//
// Every path gives the same bits. The conv keeps one double chain per
// output fed in ascending (ic, kh, kw) with a separate multiply and add,
// at any vector width; the fill computes each element from its own counter.
#pragma once

#include <cstdint>

#include "exec/kernels.h"

namespace lp::exec::isa {

enum class Isa { kBaseline, kAvx2, kAvx512 };

inline constexpr Isa kAll[] = {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512};

/// "baseline", "avx2" or "avx512".
const char* name(Isa isa);

/// Whether this CPU runs `isa`'s path. The baseline always runs; the
/// others exist on x86-64 only.
bool supported(Isa isa);

/// The widest supported path, chosen on first use.
Isa host();

/// conv2d_fast's im2col path on `isa`, which must be supported.
Tensor conv2d_im2col(Isa isa, const Tensor& x, const Tensor& w,
                     const graph::ConvAttrs& a, const Shape& out_shape,
                     const Epilogue& ep, ThreadPool& pool);

/// ParamGenerator::fill's loop on `isa`, which must be supported: elements
/// [first, first + count) of the stream seeded by `seed`, each
/// mean + scale * (its centred lane sum), written to out[0, count).
void fill_params(Isa isa, std::uint64_t seed, float mean, float scale,
                 std::int64_t first, std::int64_t count, float* out);

}  // namespace lp::exec::isa

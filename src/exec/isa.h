// The vector instruction sets the optimized convolution, the matmul GEMV
// and the weight fill are compiled for, and hooks that run each on a named
// one. Private to src/exec and its tests: everyone else gets the host's
// path through conv2d_fast, matmul_fast and ParamGenerator::fill, chosen
// once per process.
//
// Every path gives the same bits. The conv and the GEMV keep one double
// chain per output fed in ascending (ic, kh, kw) or k, at any vector
// width. A product of two widened floats is exact in double, so a step
// rounds once, at the sum, whether it is a multiply and an add (the GEMV
// everywhere, the conv on the baseline) or one explicit fused
// multiply-add (the conv on AVX2 and AVX-512). Their fused BiasAdd,
// BatchNorm and ReLU compute the reference's float expression in every
// lane; the fill computes each element from its own counter.
#pragma once

#include <cstdint>

#include "exec/kernels.h"

namespace lp::exec::isa {

enum class Isa { kBaseline, kAvx2, kAvx512 };

inline constexpr Isa kAll[] = {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512};

/// "baseline", "avx2" or "avx512".
const char* name(Isa isa);

/// Whether this CPU runs `isa`'s path: SSE2 for the baseline, which always
/// runs; AVX2 and FMA for avx2; AVX-512F and DQ for avx512. The last two
/// exist on x86-64 only.
bool supported(Isa isa);

/// The widest supported path, chosen on first use.
Isa host();

/// conv2d_fast's im2col path on `isa`, which must be supported.
Tensor conv2d_im2col(Isa isa, const Tensor& x, const Tensor& w,
                     const graph::ConvAttrs& a, const Shape& out_shape,
                     const Epilogue& ep, ThreadPool& pool);

/// matmul_fast's GEMV on `isa`, which must be supported.
Tensor matmul(Isa isa, const Tensor& x, const WeightRows& w,
              const Shape& out_shape, const Epilogue& ep, ThreadPool& pool);

/// ParamGenerator::fill's loop on `isa`, which must be supported: elements
/// [first, first + count) of the stream seeded by `seed`, each
/// mean + scale * (its centred lane sum), written to out[0, count).
void fill_params(Isa isa, std::uint64_t seed, float mean, float scale,
                 std::int64_t first, std::int64_t count, float* out);

}  // namespace lp::exec::isa

#include "exec/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/check.h"
#include "exec/isa.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lp::exec {

namespace isa {

const char* name(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool supported(Isa isa) {
  if (isa == Isa::kBaseline) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (isa == Isa::kAvx2)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (isa == Isa::kAvx512)
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
#endif
  return false;
}

Isa host() {
  static const Isa chosen = supported(Isa::kAvx512) ? Isa::kAvx512
                            : supported(Isa::kAvx2) ? Isa::kAvx2
                                                    : Isa::kBaseline;
  return chosen;
}

}  // namespace isa

const char* kernel_isa() { return isa::name(isa::host()); }

namespace {

// Doubles in one register of each ISA (one output's chain per lane), the
// floats they narrow into, and the floats of a full register. Each path
// uses only its own ISA's native width: a wider generic vector would be
// split by the compiler and its halves shuffled through memory. No
// function takes or returns one by value, so no ABI depends on the ISA.
using V2d = double __attribute__((vector_size(16)));
using V2f = float __attribute__((vector_size(8)));
using V4d = double __attribute__((vector_size(32)));
using V4f = float __attribute__((vector_size(16)));
using V8d = double __attribute__((vector_size(64)));
using V8f = float __attribute__((vector_size(32)));
using V16f = float __attribute__((vector_size(64)));

// Each ISA's register shapes: VD holds doubles, VN the floats a VD narrows
// into, VF a full register of floats. The conv tile is kMr output
// channels by kNv VDs of pixels; it grows with the register file: 2 x 8
// lanes in SSE2's sixteen 2-double registers, 4 x 8 in AVX2's sixteen
// 4-double ones, 8 x 16 in AVX-512's thirty-two 8-double ones.
//
// madd(acc, w, x) is the conv chain's step, acc + w * x in every lane. Both
// operands are widened floats, whose product is exact in double, so a
// multiply and then an add round once, at the sum, exactly where a fused
// multiply-add rounds. AVX2 and AVX-512 issue one explicit FMA under their
// own target; SSE2 has none. The helpers are plain (implicitly) inline:
// GCC refuses to inline an always_inline one with a target into the
// target-less micro-kernel template, and inlines a plain one once that
// template lands in the ISA's wrapper.
struct Baseline {
  using VD = V2d;
  using VN = V2f;
  using VF = V4f;
  static constexpr int kMr = 2, kNv = 4;
  static void madd(VD& acc, double w, const VD& x) { acc += w * x; }
};
#if defined(__x86_64__)
struct Avx2 {
  using VD = V4d;
  using VN = V4f;
  using VF = V8f;
  static constexpr int kMr = 4, kNv = 2;
  __attribute__((target("avx2,fma"))) static void madd(VD& acc, double w,
                                                       const VD& x) {
    acc = _mm256_fmadd_pd(_mm256_set1_pd(w), x, acc);
  }
};
struct Avx512 {
  using VD = V8d;
  using VN = V8f;
  using VF = V16f;
  static constexpr int kMr = 8, kNv = 2;
  __attribute__((target("avx512f"))) static void madd(VD& acc, double w,
                                                      const VD& x) {
    acc = _mm512_fmadd_pd(_mm512_set1_pd(w), x, acc);
  }
};
#endif

template <typename V>
constexpr int kLanes = sizeof(V) / sizeof(V{}[0]);

/// dst[j] = src[j] widened to double for j < N. The count is a constant,
/// so the compiler turns the loop into the target's widening converts;
/// __builtin_convertvector splits a widening into halves and shuffles.
template <int N>
[[gnu::always_inline]] inline void widen(const float* src, double* dst) {
  for (int j = 0; j < N; ++j) dst[j] = static_cast<double>(src[j]);
}

/// The same for any count: 16 at a time, then one at a time.
[[gnu::always_inline]] inline void widen_n(const float* src, std::int64_t n,
                                           double* dst) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) widen<16>(src + j, dst + j);
  for (; j < n; ++j) dst[j] = static_cast<double>(src[j]);
}

/// dst[j] = float(src[j]) for j < n, one VD at a time, then one at a time.
template <class T>
[[gnu::always_inline]] inline void narrow_n(const double* src, std::int64_t n,
                                            float* dst) {
  using VD = typename T::VD;
  using VN = typename T::VN;
  std::int64_t j = 0;
  for (; j + kLanes<VD> <= n; j += kLanes<VD>) {
    VD d;
    std::memcpy(&d, src + j, sizeof d);
    const VN f = __builtin_convertvector(d, VN);
    std::memcpy(dst + j, &f, sizeof f);
  }
  for (; j < n; ++j) dst[j] = static_cast<float>(src[j]);
}

/// kLanes<VF> consecutive floats, loaded from p.
template <typename VF>
struct Lanes {
  explicit Lanes(const float* p) { std::memcpy(&v, p, sizeof v); }
  VF v;
};

/// op(v[j], p[j]...) for j < n, a VF at a time and then one float at a
/// time, where each parameter p is params[c] for every j (a channel's
/// constant) or, with kColumns, params[c + j] (a column's). The op is one
/// generic lambda that updates its first argument in place, so a lane and
/// the tail compute the same float expression. Vectors go by reference
/// only: no function takes or returns one by value.
template <typename VF, bool kColumns, typename Op, typename... Params>
[[gnu::always_inline]] inline void map_span(float* v, std::int64_t n,
                                            std::int64_t c, Op op,
                                            const Params*... params) {
  constexpr std::int64_t kL = kLanes<VF>;
  std::int64_t j = 0;
  for (; j + kL <= n; j += kL) {
    VF x;
    std::memcpy(&x, v + j, sizeof x);
    if constexpr (kColumns)
      op(x, Lanes<VF>(params + c + j).v...);
    else
      op(x, params[c]...);
    std::memcpy(v + j, &x, sizeof x);
  }
  for (; j < n; ++j) op(v[j], params[kColumns ? c + j : c]...);
}

/// Applies `ep` to v[0, n) in group order, with channel c's constants
/// (kColumns false) or column c + j's at element j. BiasAdd, BatchNorm and
/// ReLU run a VF at a time with the reference's float expressions; Sigmoid
/// and Tanh stay scalar.
template <typename VF, bool kColumns>
[[gnu::always_inline]] inline void epilogue_span(const Epilogue& ep, float* v,
                                                 std::int64_t n,
                                                 std::int64_t c) {
  for (const EpilogueStep& s : ep.steps) {
    switch (s.op) {
      case graph::OpType::kBiasAdd:
        map_span<VF, kColumns>(
            v, n, c, [](auto& x, const auto& b) { x = x + b; }, s.bias);
        break;
      case graph::OpType::kBatchNorm:
        map_span<VF, kColumns>(
            v, n, c,
            [](auto& x, const auto& g, const auto& m, const auto& d,
               const auto& b) { x = g * (x - m) / d + b; },
            s.gamma, s.mean, s.denom.data(), s.beta);
        break;
      case graph::OpType::kRelu:
        // std::max(0.0f, x): x when 0 < x, else +0.0 (NaN and -0.0 too).
        map_span<VF, kColumns>(v, n, c,
                               [](auto& x) { x = x > 0.0f ? x : 0.0f; });
        break;
      case graph::OpType::kSigmoid:
        for (std::int64_t j = 0; j < n; ++j)
          v[j] = 1.0f / (1.0f + std::exp(-v[j]));
        break;
      case graph::OpType::kTanh:
        for (std::int64_t j = 0; j < n; ++j) v[j] = std::tanh(v[j]);
        break;
      default:
        break;  // unreachable; epilogue ops are validated on construction
    }
  }
}

constexpr std::int64_t kPixelBlock = 64;  // output pixels per im2col panel
constexpr int kMaxNr = 16;                // widest strip (AVX-512 tile)
constexpr int kMaxMr = 8;                 // tallest tile (AVX-512)
// Deepest K slice one panel holds: 64 pixels x 256 doubles is 128 KiB. A
// deeper conv runs its K in equal slices no deeper than this, so the
// double panel is no larger than the float one it replaced once K reaches
// 256: a task's scratch for K = 3456 and 256 output channels is 0.27 MB,
// where the float panel alone was 0.88 MB.
constexpr std::int64_t kMaxKSlice = 256;

/// What every pixel block of one convolution reads and writes.
struct ConvJob {
  const float* x = nullptr;  // input, NCHW
  const float* w = nullptr;  // weight, one row of k_extent floats per oc
  float* y = nullptr;        // output, NCHW
  const graph::ConvAttrs* attrs = nullptr;
  const Epilogue* ep = nullptr;
  std::int64_t ic_extent = 0, ih = 0, iw = 0;
  std::int64_t oc_extent = 0, ow = 0, pixels = 0;  // pixels = oh * ow
  std::int64_t k_extent = 0;                        // ic * kh * kw
  std::int64_t k_slice = 0;   // k values per panel, at most kMaxKSlice
  std::int64_t w_stride = 0;  // doubles per row of a widened weight tile
  std::int64_t blocks_per_image = 0;
};

/// One task's buffers, reused by every block it runs.
struct ConvScratch {
  explicit ConvScratch(const ConvJob& job)
      : panel(uninit_vector<double>(kPixelBlock * job.k_slice)),
        weights(uninit_vector<double>(kMaxMr * job.w_stride)),
        acc(uninit_vector<double>(
            job.k_slice < job.k_extent ? job.oc_extent * kPixelBlock
                                       : kMaxMr * kMaxNr)) {}

  // Each is written before it is read, so none is zero-filled.
  UninitVector<double> panel;    // the block's strips over one K slice
  UninitVector<double> weights;  // one tile's weight rows over that slice
  // The tile's chains between micro-kernel calls: for a sliced K, every
  // channel's 64 pixels, carried from one slice to the next.
  UninitVector<double> acc;
};

/// Packs the im2col patches of output pixels [px0, px1) of image n, for
/// k = (ic, kh, kw) in [k0, k0 + kn), into k-major strips of NR pixels as
/// doubles: strip s holds, for each k in the reference's accumulation
/// order, the NR pixels px0 + s * NR + j. Padding taps and lanes past px1
/// are 0.0. A tap whose NR pixels read NR consecutive input floats (a
/// strip in one row at stride 1, or any strip of a 1x1 stride-1 conv) is
/// a widening copy per input channel.
template <int NR>
[[gnu::always_inline]] inline void pack_strips(const ConvJob& job,
                                               std::int64_t n,
                                               std::int64_t px0,
                                               std::int64_t px1,
                                               std::int64_t k0,
                                               std::int64_t kn,
                                               double* panel) {
  const graph::ConvAttrs& a = *job.attrs;
  const std::int64_t plane = job.ih * job.iw;
  const std::int64_t taps = a.kernel_h * a.kernel_w;
  const float* xn = job.x + n * job.ic_extent * plane;
  for (std::int64_t s0 = px0; s0 < px1; s0 += NR) {
    double* strip = panel + (s0 - px0) * kn;
    const int lanes = static_cast<int>(std::min<std::int64_t>(NR, px1 - s0));
    std::int64_t h0[NR] = {}, w0[NR] = {};
    for (int j = 0; j < lanes; ++j) {
      h0[j] = (s0 + j) / job.ow * a.stride_h - a.pad_h;
      w0[j] = (s0 + j) % job.ow * a.stride_w - a.pad_w;
    }
    for (std::int64_t t = 0; t < taps; ++t) {
      // The input channels whose k = ic * taps + t lies in the slice.
      const std::int64_t ic_lo = (k0 - t + taps - 1) / taps;
      const std::int64_t ic_hi =
          std::min(job.ic_extent, (k0 + kn - t + taps - 1) / taps);
      if (ic_lo >= ic_hi) continue;
      // Each lane's offset into an input plane, -1 where the tap is
      // padding or the lane is past px1. It is the same for every ic.
      const std::int64_t kh = t / a.kernel_w, kw = t % a.kernel_w;
      std::int64_t off[NR];
      for (int j = 0; j < NR; ++j) {
        const std::int64_t y = h0[j] + kh, xw = w0[j] + kw;
        off[j] = (j >= lanes || y < 0 || y >= job.ih || xw < 0 ||
                  xw >= job.iw)
                     ? -1
                     : y * job.iw + xw;
      }
      bool contiguous = off[0] >= 0;
      for (int j = 1; j < NR; ++j)
        contiguous = contiguous && off[j] == off[0] + j;
      double* dst = strip + (ic_lo * taps + t - k0) * NR;
      const float* src = xn + ic_lo * plane;
      if (contiguous) {
        for (std::int64_t ic = ic_lo; ic < ic_hi;
             ++ic, dst += taps * NR, src += plane)
          widen<NR>(src + off[0], dst);
      } else {
        for (std::int64_t ic = ic_lo; ic < ic_hi;
             ++ic, dst += taps * NR, src += plane)
          for (int j = 0; j < NR; ++j)
            dst[j] = off[j] < 0 ? 0.0 : static_cast<double>(src[off[j]]);
      }
    }
  }
}

/// An MR x NR tile of outputs over kn values of k, NR = NV vectors of VD's
/// lanes. Row i's weights are w[i * w_stride + k] and the strip holds NR
/// doubles per k, so each k costs NV vector loads, MR broadcast loads and
/// the tile's MR x NV multiply-add steps (T::madd). Each lane is one
/// output's double chain, fed in ascending k, so it rounds exactly as the
/// reference's does. The chains start at 0.0 on the first slice and
/// otherwise continue from acc (row i at acc + i * stride), and are left
/// there.
template <class T, int MR>
[[gnu::always_inline]] inline void micro_tile(const double* w,
                                              std::int64_t w_stride,
                                              std::int64_t kn,
                                              const double* strip,
                                              double* acc, std::int64_t stride,
                                              bool first) {
  using VD = typename T::VD;
  constexpr int NV = T::kNv;
  constexpr int kL = kLanes<VD>;
  // Every loop over the tile is unrolled, so the compiler keeps a[][] and
  // xv[] in registers.
  VD a[MR][NV] = {};
  if (!first) {
#pragma GCC unroll 8
    for (int i = 0; i < MR; ++i)
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v)
        std::memcpy(&a[i][v], acc + i * stride + v * kL, sizeof(VD));
  }
  for (std::int64_t k = 0; k < kn; ++k) {
    VD xv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v)
      std::memcpy(&xv[v], strip + (k * NV + v) * kL, sizeof(VD));
#pragma GCC unroll 8
    for (int i = 0; i < MR; ++i) {
      const double wv = w[i * w_stride + k];
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) T::madd(a[i][v], wv, xv[v]);
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < MR; ++i)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v)
      std::memcpy(acc + i * stride + v * kL, &a[i][v], sizeof(VD));
}

/// Narrows the first `lanes` pixels of each of an MR-row tile's finished
/// chains into the output rows at y + i * pixels.
template <class T, int MR>
[[gnu::always_inline]] inline void store_tile(float* y, std::int64_t pixels,
                                              const double* acc,
                                              std::int64_t stride,
                                              std::int64_t lanes) {
  for (int i = 0; i < MR; ++i)
    narrow_n<T>(acc + i * stride, lanes, y + i * pixels);
}

/// Output channels [oc0, oc0 + MR) of pixel block [px0, px1) over the K
/// slice [k0, k0 + kn) held in the panel. The tile's weight rows are
/// widened once and serve every strip. After the last slice each row is
/// narrowed into the output and the epilogue runs over it in place.
template <class T, int MR>
[[gnu::always_inline]] inline void conv_tile(const ConvJob& job,
                                             ConvScratch& s, float* yn,
                                             std::int64_t oc0,
                                             std::int64_t px0,
                                             std::int64_t px1,
                                             std::int64_t k0,
                                             std::int64_t kn) {
  constexpr int kNr = T::kNv * kLanes<typename T::VD>;
  const bool sliced = job.k_slice < job.k_extent;
  const bool first = k0 == 0, last = k0 + kn == job.k_extent;
  for (int i = 0; i < MR; ++i)
    widen_n(job.w + (oc0 + i) * job.k_extent + k0, kn,
            s.weights.data() + i * job.w_stride);
  for (std::int64_t p0 = px0; p0 < px1; p0 += kNr) {
    double* acc = sliced ? s.acc.data() + oc0 * kPixelBlock + (p0 - px0)
                         : s.acc.data();
    const std::int64_t stride = sliced ? kPixelBlock : kNr;
    micro_tile<T, MR>(s.weights.data(), job.w_stride, kn,
                      s.panel.data() + (p0 - px0) * kn, acc, stride, first);
    if (last)
      store_tile<T, MR>(yn + oc0 * job.pixels + p0, job.pixels, acc, stride,
                        std::min<std::int64_t>(kNr, px1 - p0));
  }
  if (last)
    for (int i = 0; i < MR; ++i)
      epilogue_span<typename T::VF, false>(
          *job.ep, yn + (oc0 + i) * job.pixels + px0, px1 - px0, oc0 + i);
}

/// Output pixel block `blk` (image, then 64-pixel run) for every output
/// channel, one K slice at a time: MR channels per tile, then leftover
/// channels one at a time.
template <class T>
[[gnu::always_inline]] inline void conv_block(const ConvJob& job,
                                              std::int64_t blk,
                                              ConvScratch& s) {
  constexpr int kNr = T::kNv * kLanes<typename T::VD>;
  const std::int64_t n = blk / job.blocks_per_image;
  const std::int64_t px0 = (blk % job.blocks_per_image) * kPixelBlock;
  const std::int64_t px1 = std::min(px0 + kPixelBlock, job.pixels);
  float* yn = job.y + n * job.oc_extent * job.pixels;
  for (std::int64_t k0 = 0; k0 < job.k_extent; k0 += job.k_slice) {
    const std::int64_t kn = std::min(job.k_slice, job.k_extent - k0);
    pack_strips<kNr>(job, n, px0, px1, k0, kn, s.panel.data());
    std::int64_t oc0 = 0;
    for (; oc0 + T::kMr <= job.oc_extent; oc0 += T::kMr)
      conv_tile<T, T::kMr>(job, s, yn, oc0, px0, px1, k0, kn);
    for (; oc0 < job.oc_extent; ++oc0)
      conv_tile<T, 1>(job, s, yn, oc0, px0, px1, k0, kn);
  }
}

// Fewest output columns worth a matmul task of their own.
constexpr std::int64_t kMinColSlice = 256;

/// What every column slice of one matmul reads and writes.
struct MatmulJob {
  const float* x = nullptr;  // [rows, inner]
  const WeightRows* w = nullptr;
  float* y = nullptr;  // [rows, cols]
  const Epilogue* ep = nullptr;
  std::int64_t rows = 0, inner = 0, cols = 0;
};

/// acc[j] += xv * w[j] for j < n, each product and sum in double as the
/// reference computes it. Fixed-size blocks let the compiler vectorize at
/// the target's width; every element still gets exactly one multiply and
/// one add.
[[gnu::always_inline]] inline void axpy(double xv, const float* w,
                                        std::int64_t n, double* acc) {
  constexpr std::int64_t kBlock = 16;
  std::int64_t j = 0;
  for (; j + kBlock <= n; j += kBlock)
    for (std::int64_t b = 0; b < kBlock; ++b)
      acc[j + b] += xv * static_cast<double>(w[j + b]);
  for (; j < n; ++j) acc[j] += xv * static_cast<double>(w[j]);
}

/// Output columns [c0, c1) of every row: W's rows are streamed in order,
/// each output's accumulator sees ascending k, and each finished row is
/// narrowed and run through the epilogue with per-column constants.
template <class T>
[[gnu::always_inline]] inline void matmul_slice(const MatmulJob& job,
                                                std::int64_t c0,
                                                std::int64_t c1) {
  const std::int64_t width = c1 - c0;
  std::vector<double> acc(static_cast<std::size_t>(job.rows * width), 0.0);
  std::vector<float> buf(static_cast<std::size_t>(width));
  for (std::int64_t k = 0; k < job.inner; ++k) {
    const float* wrow = job.w->row(k, job.cols, c0, width, buf.data());
    for (std::int64_t r = 0; r < job.rows; ++r)
      axpy(static_cast<double>(job.x[r * job.inner + k]), wrow, width,
           acc.data() + r * width);
  }
  for (std::int64_t r = 0; r < job.rows; ++r) {
    float* out = job.y + r * job.cols + c0;
    narrow_n<T>(acc.data() + r * width, width, out);
    epilogue_span<typename T::VF, true>(*job.ep, out, width, c0);
  }
}

// The conv block and the matmul slice, compiled once per ISA, each inside
// a wrapper with that ISA's target.
using ConvBlockFn = void (*)(const ConvJob&, std::int64_t, ConvScratch&);
using MatmulSliceFn = void (*)(const MatmulJob&, std::int64_t, std::int64_t);

struct IsaKernels {
  ConvBlockFn conv_block;
  MatmulSliceFn matmul_slice;
};

void conv_block_baseline(const ConvJob& job, std::int64_t blk,
                         ConvScratch& s) {
  conv_block<Baseline>(job, blk, s);
}
void matmul_slice_baseline(const MatmulJob& job, std::int64_t c0,
                           std::int64_t c1) {
  matmul_slice<Baseline>(job, c0, c1);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void conv_block_avx2(const ConvJob& job,
                                                         std::int64_t blk,
                                                         ConvScratch& s) {
  conv_block<Avx2>(job, blk, s);
}
__attribute__((target("avx2,fma"))) void matmul_slice_avx2(const MatmulJob& job,
                                                           std::int64_t c0,
                                                           std::int64_t c1) {
  matmul_slice<Avx2>(job, c0, c1);
}

__attribute__((target("avx512f,avx512dq"))) void conv_block_avx512(
    const ConvJob& job, std::int64_t blk, ConvScratch& s) {
  conv_block<Avx512>(job, blk, s);
}
__attribute__((target("avx512f,avx512dq"))) void matmul_slice_avx512(
    const MatmulJob& job, std::int64_t c0, std::int64_t c1) {
  matmul_slice<Avx512>(job, c0, c1);
}
#endif

IsaKernels kernels_for(isa::Isa which) {
  LP_CHECK_MSG(isa::supported(which),
               std::string("this CPU cannot run the ") + isa::name(which) +
                   " kernel path");
#if defined(__x86_64__)
  if (which == isa::Isa::kAvx512)
    return {conv_block_avx512, matmul_slice_avx512};
  if (which == isa::Isa::kAvx2) return {conv_block_avx2, matmul_slice_avx2};
#endif
  return {conv_block_baseline, matmul_slice_baseline};
}

}  // namespace

Tensor isa::conv2d_im2col(Isa isa, const Tensor& x, const Tensor& w,
                          const graph::ConvAttrs& a, const Shape& out_shape,
                          const Epilogue& ep, ThreadPool& pool) {
  const ConvBlockFn block = kernels_for(isa).conv_block;
  Tensor out = Tensor::uninitialized(out_shape);
  const std::int64_t pixels = out_shape.h() * out_shape.w();
  const std::int64_t k_extent = x.shape().c() * a.kernel_h * a.kernel_w;
  const std::int64_t slices = (k_extent + kMaxKSlice - 1) / kMaxKSlice;
  const std::int64_t k_slice = (k_extent + slices - 1) / slices;
  const ConvJob job{
      .x = x.data(),
      .w = w.data(),
      .y = out.data(),
      .attrs = &a,
      .ep = &ep,
      .ic_extent = x.shape().c(),
      .ih = x.shape().h(),
      .iw = x.shape().w(),
      .oc_extent = out_shape.c(),
      .ow = out_shape.w(),
      .pixels = pixels,
      .k_extent = k_extent,
      .k_slice = k_slice,
      // An odd number of cache lines, so the tile's rows never share
      // cache sets the way rows 4 KiB apart do.
      .w_stride = ((k_slice + 7) / 8 | 1) * 8,
      .blocks_per_image = (pixels + kPixelBlock - 1) / kPixelBlock};

  pool.parallel_for(0, out_shape.n() * job.blocks_per_image, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      ConvScratch scratch(job);
                      for (std::int64_t blk = lo; blk < hi; ++blk)
                        block(job, blk, scratch);
                    });
  return out;
}

Tensor isa::matmul(Isa isa, const Tensor& x, const WeightRows& w,
                   const Shape& out_shape, const Epilogue& ep,
                   ThreadPool& pool) {
  const MatmulSliceFn slice = kernels_for(isa).matmul_slice;
  Tensor out = Tensor::uninitialized(out_shape);
  const MatmulJob job{
      .x = x.data(),
      .w = &w,
      .y = out.data(),
      .ep = &ep,
      .rows = x.shape().dim(0),
      .inner = x.shape().dim(1),
      .cols = out_shape.dim(1)};
  // Each task owns the output columns [c0, c1) of every row and streams
  // the matching slice of W's rows in order, so W is read front to back
  // once per task.
  pool.parallel_for(0, job.cols, kMinColSlice,
                    [&](std::int64_t c0, std::int64_t c1) {
                      slice(job, c0, c1);
                    });
  return out;
}

namespace {

Tensor conv2d_depthwise(const Tensor& x, const Tensor& w,
                        const graph::ConvAttrs& a, const Shape& out_shape,
                        const Epilogue& ep, ThreadPool& pool) {
  Tensor out = Tensor::uninitialized(out_shape);
  const std::int64_t batch = out_shape.n(), channels = out_shape.c();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t ih = x.shape().h(), iw = x.shape().w();

  pool.parallel_for(
      0, batch * channels, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t row = lo; row < hi; ++row) {
          const std::int64_t c = row % channels;
          const float* xc = x.data() + row * ih * iw;
          const float* wc = w.data() + c * a.kernel_h * a.kernel_w;
          float* yc = out.data() + row * oh * ow;
          for (std::int64_t y = 0; y < oh; ++y)
            for (std::int64_t z = 0; z < ow; ++z) {
              double acc = 0.0;
              for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
                const std::int64_t sy = y * a.stride_h - a.pad_h + kh;
                if (sy < 0 || sy >= ih) continue;
                for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
                  const std::int64_t sx = z * a.stride_w - a.pad_w + kw;
                  if (sx < 0 || sx >= iw) continue;
                  acc += static_cast<double>(xc[sy * iw + sx]) *
                         static_cast<double>(wc[kh * a.kernel_w + kw]);
                }
              }
              yc[y * ow + z] = static_cast<float>(acc);
            }
          epilogue_span<V4f, false>(ep, yc, oh * ow, c);
        }
      });
  return out;
}

}  // namespace

Tensor conv2d_fast(const Tensor& x, const Tensor& w, const graph::ConvAttrs& a,
                   const Shape& out_shape, bool depthwise, const Epilogue& ep,
                   ThreadPool& pool) {
  return depthwise ? conv2d_depthwise(x, w, a, out_shape, ep, pool)
                   : isa::conv2d_im2col(isa::host(), x, w, a, out_shape, ep,
                                        pool);
}

Tensor matmul_fast(const Tensor& x, const WeightRows& w,
                   const Shape& out_shape, const Epilogue& ep,
                   ThreadPool& pool) {
  return isa::matmul(isa::host(), x, w, out_shape, ep, pool);
}

namespace {

/// Outputs [z, z + G) of one output row, whose windows all cover the taps
/// kh in [kh0, kh1) and kw in [kw0, kw1): tap (kh, kw) of output z + l is
/// x[at + l * step + kh * iw + kw]. G independent chains, each in the
/// reference's (kh, kw) order with no bounds test. A float max picks the
/// value the reference's double max does (widening is exact and keeps the
/// order, and a NaN tap loses every comparison); the average keeps the
/// reference's double chain.
template <int G, bool kMax>
[[gnu::always_inline]] inline void pool_outputs(
    const float* x, std::int64_t iw, std::int64_t at, std::int64_t step,
    std::int64_t kh0, std::int64_t kh1, std::int64_t kw0, std::int64_t kw1,
    float* y) {
  using Acc = std::conditional_t<kMax, float, double>;
  Acc acc[G];
  for (int l = 0; l < G; ++l)
    acc[l] = kMax ? -std::numeric_limits<Acc>::infinity() : 0.0;
  for (std::int64_t kh = kh0; kh < kh1; ++kh)
    for (std::int64_t kw = kw0; kw < kw1; ++kw) {
      const float* tap = x + (at + kh * iw + kw);
#pragma GCC unroll 8
      for (int l = 0; l < G; ++l) {
        const float v = tap[l * step];
        if constexpr (kMax)
          acc[l] = acc[l] < v ? v : acc[l];
        else
          acc[l] += static_cast<double>(v);
      }
    }
  const int valid = static_cast<int>((kh1 - kh0) * (kw1 - kw0));
  for (int l = 0; l < G; ++l)
    y[l] = kMax ? static_cast<float>(acc[l])
                : static_cast<float>(acc[l] / valid);
}

/// One (n, c) plane: each output's in-bounds taps are a rectangle found
/// once, and runs of 8 outputs whose windows lie inside the input run as 8
/// chains at once. A row's last run may start before the previous run's
/// end; it rewrites those outputs with the same bits.
template <bool kMax>
void pool_plane(const float* x, std::int64_t ih, std::int64_t iw,
                const graph::PoolAttrs& a, float* y, std::int64_t oh,
                std::int64_t ow) {
  constexpr int kRun = 8;
  // Whether outputs [z, z + kRun) of a row all have their windows inside
  // the input's columns.
  auto inside = [&](std::int64_t z) {
    return z >= 0 && z + kRun <= ow && z * a.stride_w - a.pad_w >= 0 &&
           (z + kRun - 1) * a.stride_w - a.pad_w + a.kernel_w <= iw;
  };
  for (std::int64_t r = 0; r < oh; ++r) {
    const std::int64_t y0 = r * a.stride_h - a.pad_h;
    const std::int64_t kh0 = std::max<std::int64_t>(0, -y0);
    const std::int64_t kh1 = std::min<std::int64_t>(a.kernel_h, ih - y0);
    float* yr = y + r * ow;
    for (std::int64_t z = 0; z < ow;) {
      const std::int64_t run =
          inside(z) ? z : z + kRun > ow && inside(ow - kRun) ? ow - kRun : -1;
      if (run >= 0) {
        pool_outputs<kRun, kMax>(x, iw, y0 * iw + run * a.stride_w - a.pad_w,
                                 a.stride_w, kh0, kh1, 0, a.kernel_w,
                                 yr + run);
        z = run + kRun;
        continue;
      }
      const std::int64_t x0 = z * a.stride_w - a.pad_w;
      const std::int64_t kw0 = std::max<std::int64_t>(0, -x0);
      const std::int64_t kw1 = std::min<std::int64_t>(a.kernel_w, iw - x0);
      LP_DCHECK(kh1 > kh0 && kw1 > kw0);
      pool_outputs<1, kMax>(x, iw, y0 * iw + x0, a.stride_w, kh0, kh1, kw0,
                            kw1, yr + z);
      ++z;
    }
  }
}

}  // namespace

Tensor pool2d_fast(const Tensor& x, const graph::PoolAttrs& a,
                   const Shape& out_shape, bool is_max, ThreadPool& pool) {
  Tensor out = Tensor::uninitialized(out_shape);
  const std::int64_t planes = out_shape.n() * out_shape.c();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t ih = x.shape().h(), iw = x.shape().w();
  pool.parallel_for(0, planes, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t p = lo; p < hi; ++p) {
      const float* xc = x.data() + p * ih * iw;
      float* yc = out.data() + p * oh * ow;
      if (is_max)
        pool_plane<true>(xc, ih, iw, a, yc, oh, ow);
      else
        pool_plane<false>(xc, ih, iw, a, yc, oh, ow);
    }
  });
  return out;
}

void add_inplace(Tensor& a, const Tensor& b, ThreadPool& pool) {
  LP_CHECK(a.elements() == b.elements());
  float* pa = a.data();
  const float* pb = b.data();
  pool.parallel_for(0, a.elements(), 4096,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
                    });
}

void epilogue_inplace(Tensor& t, const Epilogue& ep, ThreadPool& pool) {
  if (ep.empty()) return;
  float* d = t.data();
  if (!ep.per_channel()) {
    pool.parallel_for(0, t.elements(), 4096,
                      [&](std::int64_t lo, std::int64_t hi) {
                        epilogue_span<V4f, false>(ep, d + lo, hi - lo, 0);
                      });
    return;
  }
  if (t.shape().rank() == 4) {
    const std::int64_t channels = t.shape().c();
    const std::int64_t inner = t.shape().h() * t.shape().w();
    pool.parallel_for(0, t.shape().n() * channels, 1,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t row = lo; row < hi; ++row)
                          epilogue_span<V4f, false>(ep, d + row * inner, inner,
                                                    row % channels);
                      });
  } else {
    LP_CHECK(t.shape().rank() == 2);
    const std::int64_t cols = t.shape().dim(1);
    pool.parallel_for(0, t.shape().dim(0), 1,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t r = lo; r < hi; ++r)
                          epilogue_span<V4f, true>(ep, d + r * cols, cols, 0);
                      });
  }
}

void softmax_inplace(Tensor& t) {
  const auto last = static_cast<std::int64_t>(t.shape().rank()) - 1;
  const auto width = t.shape().dim(static_cast<std::size_t>(last));
  const auto rows = t.elements() / width;
  float* d = t.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* p = d + r * width;
    float maxv = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < width; ++c) maxv = std::max(maxv, p[c]);
    double sum = 0.0;
    for (std::int64_t c = 0; c < width; ++c) {
      const float e = std::exp(p[c] - maxv);
      p[c] = e;
      sum += e;
    }
    for (std::int64_t c = 0; c < width; ++c)
      p[c] = static_cast<float>(p[c] / sum);
  }
}

Tensor concat_fast(const std::vector<const Tensor*>& xs,
                   const Shape& out_shape) {
  Tensor out = Tensor::uninitialized(out_shape);
  const std::int64_t batch = out_shape.n();
  const std::int64_t plane = out_shape.h() * out_shape.w();
  const std::int64_t out_c = out_shape.c();
  std::int64_t c_off = 0;
  for (const Tensor* x : xs) {
    const std::int64_t span = x->shape().c() * plane;
    for (std::int64_t n = 0; n < batch; ++n)
      std::memcpy(out.data() + (n * out_c + c_off) * plane,
                  x->data() + n * span,
                  static_cast<std::size_t>(span) * sizeof(float));
    c_off += x->shape().c();
  }
  return out;
}

}  // namespace lp::exec

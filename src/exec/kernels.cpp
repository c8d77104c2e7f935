#include "exec/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "common/check.h"
#include "exec/isa.h"

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
  if (isa == Isa::kAvx2) return __builtin_cpu_supports("avx2");
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

// Doubles in one register of each ISA (one output's chain per lane), and
// the panel floats that widen into them. Each path uses only its own
// ISA's native width: a wider generic vector would be split by the
// compiler and its halves shuffled through memory. No function takes or
// returns one by value, so no ABI depends on the ISA.
using V2d = double __attribute__((vector_size(16)));
using V2f = float __attribute__((vector_size(8)));
using V4d = double __attribute__((vector_size(32)));
using V4f = float __attribute__((vector_size(16)));
using V8d = double __attribute__((vector_size(64)));
using V8f = float __attribute__((vector_size(32)));

constexpr std::int64_t kPixelBlock = 64;  // output pixels per im2col panel
constexpr int kMaxNr = 16;                // widest strip (AVX-512 tile)

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
  std::int64_t blocks_per_image = 0;
};

/// Packs the im2col patches of output pixels [px0, px1) of image n into
/// k-major strips of nr pixels: strip s holds, for each k = (ic, kh, kw) in
/// the reference's accumulation order, the nr pixels px0 + s * nr + j.
/// Padding taps and lanes past px1 are 0.0f.
void pack_strips(const ConvJob& job, std::int64_t n, std::int64_t px0,
                 std::int64_t px1, int nr, float* panel) {
  const graph::ConvAttrs& a = *job.attrs;
  const std::int64_t plane = job.ih * job.iw;
  const std::int64_t taps = a.kernel_h * a.kernel_w;
  const float* xn = job.x + n * job.ic_extent * plane;
  for (std::int64_t s0 = px0; s0 < px1; s0 += nr) {
    float* strip = panel + (s0 - px0) * job.k_extent;
    const int lanes = static_cast<int>(std::min<std::int64_t>(nr, px1 - s0));
    std::int64_t h0[kMaxNr] = {}, w0[kMaxNr] = {};
    for (int j = 0; j < lanes; ++j) {
      h0[j] = (s0 + j) / job.ow * a.stride_h - a.pad_h;
      w0[j] = (s0 + j) % job.ow * a.stride_w - a.pad_w;
    }
    for (std::int64_t kh = 0; kh < a.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
        // Each lane's offset into an input plane, -1 where the tap is
        // padding. It is the same for every ic.
        std::int64_t off[kMaxNr] = {};
        for (int j = 0; j < lanes; ++j) {
          const std::int64_t y = h0[j] + kh, xw = w0[j] + kw;
          off[j] = (y < 0 || y >= job.ih || xw < 0 || xw >= job.iw)
                       ? -1
                       : y * job.iw + xw;
        }
        float* dst = strip + (kh * a.kernel_w + kw) * nr;
        const float* src = xn;
        for (std::int64_t ic = 0; ic < job.ic_extent;
             ++ic, dst += taps * nr, src += plane) {
          for (int j = 0; j < lanes; ++j)
            dst[j] = off[j] < 0 ? 0.0f : src[off[j]];
          for (int j = lanes; j < nr; ++j) dst[j] = 0.0f;
        }
      }
  }
}

/// An MR x NR tile of outputs over the whole K extent, NR = NV vectors of
/// VD's lanes. Row i reads W's row at w + i * k_extent and the strip holds
/// NR floats per k. Each lane is one output's double chain, fed in
/// ascending k by a separate multiply and add, so it rounds exactly as the
/// reference's does.
template <int MR, int NV, typename VD, typename VF>
[[gnu::always_inline]] inline void micro_tile(const float* w,
                                              std::int64_t k_extent,
                                              const float* strip,
                                              double* out) {
  constexpr int kLanes = sizeof(VD) / sizeof(double);
  VD acc[MR][NV] = {};
  for (std::int64_t k = 0; k < k_extent; ++k) {
    VD xv[NV] = {};
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      VF f = {};
      std::memcpy(&f, strip + (k * NV + v) * kLanes, sizeof f);
      xv[v] = __builtin_convertvector(f, VD);
    }
#pragma GCC unroll 8
    for (int i = 0; i < MR; ++i) {
      const double wv = w[i * k_extent + k];
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[i][v] += wv * xv[v];
    }
  }
  std::memcpy(out, acc, sizeof acc);
}

/// Stores the lanes of an mr x nr tile that hold pixels below px1, each
/// through the epilogue.
void store_tile(const ConvJob& job, float* yn, const double* acc, int mr,
                int nr, std::int64_t oc0, std::int64_t p0, std::int64_t px1) {
  const std::int64_t lanes = std::min<std::int64_t>(nr, px1 - p0);
  for (int i = 0; i < mr; ++i) {
    float* row = yn + (oc0 + i) * job.pixels + p0;
    for (std::int64_t j = 0; j < lanes; ++j)
      row[j] = job.ep->apply(static_cast<float>(acc[i * nr + j]), oc0 + i);
  }
}

/// Output pixel block `blk` (image, then 64-pixel run) for every output
/// channel: MR channels per tile, then leftover channels one at a time.
template <int MR, int NV, typename VD, typename VF>
[[gnu::always_inline]] inline void conv_block(const ConvJob& job,
                                              std::int64_t blk,
                                              float* panel) {
  constexpr int kNr = NV * static_cast<int>(sizeof(VD) / sizeof(double));
  const std::int64_t n = blk / job.blocks_per_image;
  const std::int64_t px0 = (blk % job.blocks_per_image) * kPixelBlock;
  const std::int64_t px1 = std::min(px0 + kPixelBlock, job.pixels);
  pack_strips(job, n, px0, px1, kNr, panel);

  const std::int64_t k_extent = job.k_extent;
  float* yn = job.y + n * job.oc_extent * job.pixels;
  double acc[MR * kNr] = {};
  std::int64_t oc0 = 0;
  for (; oc0 + MR <= job.oc_extent; oc0 += MR)
    for (std::int64_t p0 = px0; p0 < px1; p0 += kNr) {
      micro_tile<MR, NV, VD, VF>(job.w + oc0 * k_extent, k_extent,
                                 panel + (p0 - px0) * k_extent, acc);
      store_tile(job, yn, acc, MR, kNr, oc0, p0, px1);
    }
  for (; oc0 < job.oc_extent; ++oc0)
    for (std::int64_t p0 = px0; p0 < px1; p0 += kNr) {
      micro_tile<1, NV, VD, VF>(job.w + oc0 * k_extent, k_extent,
                                panel + (p0 - px0) * k_extent, acc);
      store_tile(job, yn, acc, 1, kNr, oc0, p0, px1);
    }
}

// One conv_block instantiation per ISA, each compiled for its own target.
// The tile grows with the register file: 2 x 8 lanes in SSE2's sixteen
// 2-double registers, 4 x 8 in AVX2's sixteen 4-double ones, 8 x 16 in
// AVX-512's thirty-two 8-double ones.
using BlockFn = void (*)(const ConvJob&, std::int64_t, float*);

void conv_block_baseline(const ConvJob& job, std::int64_t blk,
                         float* panel) {
  conv_block<2, 4, V2d, V2f>(job, blk, panel);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void conv_block_avx2(const ConvJob& job,
                                                     std::int64_t blk,
                                                     float* panel) {
  conv_block<4, 2, V4d, V4f>(job, blk, panel);
}

__attribute__((target("avx512f,avx512dq"))) void conv_block_avx512(
    const ConvJob& job, std::int64_t blk, float* panel) {
  conv_block<8, 2, V8d, V8f>(job, blk, panel);
}
#endif

BlockFn block_fn(isa::Isa which) {
  LP_CHECK_MSG(isa::supported(which),
               std::string("this CPU cannot run the ") + isa::name(which) +
                   " conv path");
#if defined(__x86_64__)
  if (which == isa::Isa::kAvx512) return conv_block_avx512;
  if (which == isa::Isa::kAvx2) return conv_block_avx2;
#endif
  return conv_block_baseline;
}

}  // namespace

Tensor isa::conv2d_im2col(Isa isa, const Tensor& x, const Tensor& w,
                          const graph::ConvAttrs& a, const Shape& out_shape,
                          const Epilogue& ep, ThreadPool& pool) {
  const BlockFn block = block_fn(isa);
  Tensor out(out_shape);
  const std::int64_t pixels = out_shape.h() * out_shape.w();
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
      .k_extent = x.shape().c() * a.kernel_h * a.kernel_w,
      .blocks_per_image = (pixels + kPixelBlock - 1) / kPixelBlock};

  pool.parallel_for(0, out_shape.n() * job.blocks_per_image, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      std::vector<float> panel(static_cast<std::size_t>(
                          kPixelBlock * job.k_extent));
                      for (std::int64_t blk = lo; blk < hi; ++blk)
                        block(job, blk, panel.data());
                    });
  return out;
}

namespace {

Tensor conv2d_depthwise(const Tensor& x, const Tensor& w,
                        const graph::ConvAttrs& a, const Shape& out_shape,
                        const Epilogue& ep, ThreadPool& pool) {
  Tensor out(out_shape);
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
              yc[y * ow + z] = ep.apply(static_cast<float>(acc), c);
            }
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

namespace {

// Fewest output columns worth a matmul task of their own.
constexpr std::int64_t kMinColSlice = 256;

/// acc[j] += xv * w[j] for j < n, each product and sum in double as the
/// reference computes it. Fixed-size blocks let the compiler vectorize;
/// every element still gets exactly one multiply and one add.
void axpy(double xv, const float* w, std::int64_t n, double* acc) {
  constexpr std::int64_t kBlock = 16;
  std::int64_t j = 0;
  for (; j + kBlock <= n; j += kBlock)
    for (std::int64_t b = 0; b < kBlock; ++b)
      acc[j + b] += xv * static_cast<double>(w[j + b]);
  for (; j < n; ++j) acc[j] += xv * static_cast<double>(w[j]);
}

}  // namespace

Tensor matmul_fast(const Tensor& x, const WeightRows& w,
                   const Shape& out_shape, const Epilogue& ep,
                   ThreadPool& pool) {
  Tensor out(out_shape);
  const std::int64_t rows = x.shape().dim(0);
  const std::int64_t inner = x.shape().dim(1);
  const std::int64_t cols = out_shape.dim(1);

  // Each task owns the output columns [c0, c1) of every row and streams
  // the matching slice of W's rows in order, so W is read front to back
  // once per task and each accumulator sees ascending k.
  pool.parallel_for(0, cols, kMinColSlice, [&](std::int64_t c0,
                                               std::int64_t c1) {
    const std::int64_t width = c1 - c0;
    std::vector<double> acc(static_cast<std::size_t>(rows * width), 0.0);
    std::vector<float> buf(static_cast<std::size_t>(width));
    for (std::int64_t k = 0; k < inner; ++k) {
      const float* wrow = w.row(k, cols, c0, width, buf.data());
      for (std::int64_t r = 0; r < rows; ++r)
        axpy(static_cast<double>(x.data()[r * inner + k]), wrow, width,
             acc.data() + r * width);
    }
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t j = 0; j < width; ++j)
        out.data()[r * cols + c0 + j] = ep.apply(
            static_cast<float>(acc[static_cast<std::size_t>(r * width + j)]),
            c0 + j);
  });
  return out;
}

Tensor pool2d_fast(const Tensor& x, const graph::PoolAttrs& a,
                   const Shape& out_shape, bool is_max, ThreadPool& pool) {
  Tensor out(out_shape);
  const std::int64_t planes = out_shape.n() * out_shape.c();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t ih = x.shape().h(), iw = x.shape().w();

  pool.parallel_for(0, planes, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const float* xc = x.data() + row * ih * iw;
      float* yc = out.data() + row * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t z = 0; z < ow; ++z) {
          double acc =
              is_max ? -std::numeric_limits<double>::infinity() : 0.0;
          int valid = 0;
          for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
            const std::int64_t sy = y * a.stride_h - a.pad_h + kh;
            if (sy < 0 || sy >= ih) continue;
            for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
              const std::int64_t sx = z * a.stride_w - a.pad_w + kw;
              if (sx < 0 || sx >= iw) continue;
              const double v = static_cast<double>(xc[sy * iw + sx]);
              if (is_max)
                acc = std::max(acc, v);
              else
                acc += v;
              ++valid;
            }
          }
          LP_DCHECK(valid > 0);
          yc[y * ow + z] =
              static_cast<float>(is_max ? acc : acc / valid);
        }
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
                        for (std::int64_t i = lo; i < hi; ++i)
                          d[i] = ep.apply(d[i], 0);
                      });
    return;
  }
  if (t.shape().rank() == 4) {
    const std::int64_t channels = t.shape().c();
    const std::int64_t inner = t.shape().h() * t.shape().w();
    pool.parallel_for(0, t.shape().n() * channels, 1,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t row = lo; row < hi; ++row) {
                          const std::int64_t c = row % channels;
                          float* p = d + row * inner;
                          for (std::int64_t i = 0; i < inner; ++i)
                            p[i] = ep.apply(p[i], c);
                        }
                      });
  } else {
    LP_CHECK(t.shape().rank() == 2);
    const std::int64_t cols = t.shape().dim(1);
    pool.parallel_for(0, t.shape().dim(0), 1,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t r = lo; r < hi; ++r) {
                          float* p = d + r * cols;
                          for (std::int64_t c = 0; c < cols; ++c)
                            p[c] = ep.apply(p[c], c);
                        }
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
  Tensor out(out_shape);
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

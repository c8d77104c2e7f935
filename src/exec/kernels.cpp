#include "exec/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace lp::exec {

namespace {

// GEMM micro-kernel: an MR x NR tile of output elements, each accumulated
// in its own double chain over the full K extent in ascending k order —
// exactly the reference's per-element order, but with MR*NR independent
// chains in flight for instruction-level parallelism.
template <int MR, int NR>
void micro_kernel(const float* const* wr, const float* const* cl,
                  std::int64_t k_extent, double* acc) {
  double a[MR * NR] = {};
  for (std::int64_t k = 0; k < k_extent; ++k) {
    double bv[NR];
    for (int j = 0; j < NR; ++j) bv[j] = static_cast<double>(cl[j][k]);
    for (int i = 0; i < MR; ++i) {
      const double av = static_cast<double>(wr[i][k]);
      for (int j = 0; j < NR; ++j) a[i * NR + j] += av * bv[j];
    }
  }
  for (int i = 0; i < MR * NR; ++i) acc[i] = a[i];
}

using MicroFn = void (*)(const float* const*, const float* const*,
                         std::int64_t, double*);

/// micro_kernel instantiation for a (possibly partial) mr x nr tile.
MicroFn micro_for(int mr, int nr) {
  static constexpr MicroFn kTable[4][4] = {
      {micro_kernel<1, 1>, micro_kernel<1, 2>, micro_kernel<1, 3>,
       micro_kernel<1, 4>},
      {micro_kernel<2, 1>, micro_kernel<2, 2>, micro_kernel<2, 3>,
       micro_kernel<2, 4>},
      {micro_kernel<3, 1>, micro_kernel<3, 2>, micro_kernel<3, 3>,
       micro_kernel<3, 4>},
      {micro_kernel<4, 1>, micro_kernel<4, 2>, micro_kernel<4, 3>,
       micro_kernel<4, 4>},
  };
  return kTable[mr - 1][nr - 1];
}

constexpr std::int64_t kPixelBlock = 64;  // im2col panel width (pixels)

/// Packs the im2col patches of output pixels [px0, px1) of image n into
/// `panel`, one contiguous K-column per pixel, k ordered (ic, kh, kw) to
/// match the reference accumulation order. Out-of-bounds taps become 0.0f.
void pack_panel(const float* x, std::int64_t ic_extent, std::int64_t ih,
                std::int64_t iw, const graph::ConvAttrs& a, std::int64_t ow,
                std::int64_t px0, std::int64_t px1, float* panel) {
  const std::int64_t k_extent = ic_extent * a.kernel_h * a.kernel_w;
  for (std::int64_t px = px0; px < px1; ++px) {
    float* dst = panel + (px - px0) * k_extent;
    const std::int64_t oh = px / ow;
    const std::int64_t h0 = oh * a.stride_h - a.pad_h;
    const std::int64_t w0 = (px % ow) * a.stride_w - a.pad_w;
    for (std::int64_t ic = 0; ic < ic_extent; ++ic) {
      const float* plane = x + ic * ih * iw;
      for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
        const std::int64_t y = h0 + kh;
        if (y < 0 || y >= ih) {
          std::memset(dst, 0, static_cast<std::size_t>(a.kernel_w) *
                                  sizeof(float));
          dst += a.kernel_w;
          continue;
        }
        const float* row = plane + y * iw;
        for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
          const std::int64_t xw = w0 + kw;
          *dst++ = (xw < 0 || xw >= iw) ? 0.0f : row[xw];
        }
      }
    }
  }
}

Tensor conv2d_im2col(const Tensor& x, const Tensor& w,
                     const graph::ConvAttrs& a, const Shape& out_shape,
                     const Epilogue& ep, ThreadPool& pool) {
  Tensor out(out_shape);
  const std::int64_t batch = out_shape.n(), oc_extent = out_shape.c();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t ic_extent = x.shape().c();
  const std::int64_t ih = x.shape().h(), iw = x.shape().w();
  const std::int64_t k_extent = ic_extent * a.kernel_h * a.kernel_w;
  const std::int64_t pixels = oh * ow;
  const std::int64_t blocks_per_image =
      (pixels + kPixelBlock - 1) / kPixelBlock;

  pool.parallel_for(
      0, batch * blocks_per_image, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<float> panel(
            static_cast<std::size_t>(kPixelBlock * k_extent));
        for (std::int64_t blk = lo; blk < hi; ++blk) {
          const std::int64_t n = blk / blocks_per_image;
          const std::int64_t px0 = (blk % blocks_per_image) * kPixelBlock;
          const std::int64_t px1 = std::min(px0 + kPixelBlock, pixels);
          const float* xn = x.data() + n * ic_extent * ih * iw;
          pack_panel(xn, ic_extent, ih, iw, a, ow, px0, px1, panel.data());

          float* yn = out.data() + n * oc_extent * pixels;
          for (std::int64_t oc0 = 0; oc0 < oc_extent; oc0 += 4) {
            const int mr = static_cast<int>(std::min<std::int64_t>(
                4, oc_extent - oc0));
            const float* wr[4];
            for (int i = 0; i < mr; ++i)
              wr[i] = w.data() + (oc0 + i) * k_extent;
            for (std::int64_t p0 = px0; p0 < px1; p0 += 4) {
              const int nr =
                  static_cast<int>(std::min<std::int64_t>(4, px1 - p0));
              const float* cl[4];
              for (int j = 0; j < nr; ++j)
                cl[j] = panel.data() + (p0 - px0 + j) * k_extent;
              double acc[16];
              micro_for(mr, nr)(wr, cl, k_extent, acc);
              for (int i = 0; i < mr; ++i)
                for (int j = 0; j < nr; ++j)
                  yn[(oc0 + i) * pixels + p0 + j] = ep.apply(
                      static_cast<float>(acc[i * nr + j]), oc0 + i);
            }
          }
        }
      });
  return out;
}

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
                   : conv2d_im2col(x, w, a, out_shape, ep, pool);
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
    float maxv = -1e30f;
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

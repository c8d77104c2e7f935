#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "exec/interpreter.h"
#include "exec/isa.h"
#include "exec/thread_pool.h"
#include "graph/graph.h"
#include "partition/partitioner.h"

namespace lp::exec {
namespace {

using graph::GraphBuilder;

TEST(Tensor, AccessorsAndDiff) {
  Tensor a(Shape{1, 2, 2, 2});
  a.at4(0, 1, 1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(a.at(7), 3.0f);
  Tensor b(Shape{1, 2, 2, 2});
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 3.0);
}

TEST(Tensor, MaxAbsDiffIsNanWhenEitherSideHoldsNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor with_nan(Shape{2}, {5.0f, nan});
  const Tensor finite(Shape{2}, {0.0f, 2.0f});
  EXPECT_TRUE(std::isnan(Tensor::max_abs_diff(with_nan, finite)));
  EXPECT_TRUE(std::isnan(Tensor::max_abs_diff(finite, with_nan)));
  EXPECT_TRUE(std::isnan(Tensor::max_abs_diff(with_nan, with_nan)));
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(finite, finite), 0.0);
}

/// True if `a` and `b` have the same shape and the same bits.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.bytes())) == 0;
}

TEST(ParamGenerator, SliceAtOddOffsetEqualsTheWholeTensor) {
  const Shape shape{37, 1001};
  const Tensor whole = deterministic_param("fc.weight", shape);
  const std::int64_t first = 12345, count = 777;
  std::vector<float> slice(static_cast<std::size_t>(count));
  ParamGenerator("fc.weight", shape).fill(first, count, slice.data());
  EXPECT_EQ(std::memcmp(slice.data(), whole.data() + first,
                        slice.size() * sizeof(float)),
            0);
}

/// Checks a synthesized tensor's mean and standard deviation against the
/// target ones, to within five standard errors of the mean and 3% of sd.
void expect_moments(const Tensor& t, double want_mean, double want_sd) {
  double sum = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    sum += t.at(i);
    sq += static_cast<double>(t.at(i)) * t.at(i);
  }
  const double n = static_cast<double>(t.elements());
  const double mean = sum / n;
  EXPECT_NEAR(mean, want_mean, 5.0 * want_sd / std::sqrt(n));
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), want_sd, 0.03 * want_sd);
}

TEST(ParamGenerator, WeightsScaleWithFanInAndRankOneValuesArePositive) {
  // fan_in is dim 0 of an FC weight [in, out] and the product of dims 1..
  // of a conv weight [out, in, kh, kw].
  expect_moments(deterministic_param("fc.weight", Shape{2048, 512}), 0.0,
                 std::sqrt(2.0 / 2048));
  expect_moments(deterministic_param("c.weight", Shape{96, 32, 3, 3}), 0.0,
                 std::sqrt(2.0 / 288));
  const Tensor var = deterministic_param("bn.var", Shape{100000});
  expect_moments(var, 1.0, 0.25);
  const auto [lo, hi] =
      std::minmax_element(var.data(), var.data() + var.elements());
  EXPECT_GT(*lo, 0.13f);
  EXPECT_LT(*hi, 1.87f);
}

/// FNV-1a over the bytes of n floats.
std::uint64_t fnv1a(const float* p, std::int64_t n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(p);
  for (std::int64_t i = 0; i < n * 4; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(const Tensor& t) { return fnv1a(t.data(), t.elements()); }

TEST(ParamGenerator, StandInWeightsKeepTheirBits) {
  // Hashes of the counter-based weights as first generated. Every zoo
  // output and snapshot rests on them, so no vector path and no later
  // edit may move a bit.
  EXPECT_EQ(fnv1a(deterministic_param("conv1.weight", Shape{64, 3, 7, 7})),
            0x0d7362a9f2387be6ull);
  EXPECT_EQ(fnv1a(deterministic_param("fire2.squeeze.bias", Shape{16})),
            0xcff3788594b0e81dull);
  EXPECT_EQ(fnv1a(deterministic_param("fc.weight", Shape{37, 1001})),
            0x5d6cb9d7c2bf843eull);
  EXPECT_EQ(fnv1a(deterministic_param("bn.var", Shape{100})),
            0xf90a8f03de08edb1ull);
  std::vector<float> slice(1001);
  ParamGenerator("fc6.weight", Shape{9216, 4096})
      .fill(123456789, 1001, slice.data());
  EXPECT_EQ(fnv1a(slice.data(), 1001), 0x503457f9346407b7ull);
}

TEST(Tensor, DeterministicParamStableAcrossCalls) {
  const auto a = deterministic_param("conv1.weight", Shape{4, 3, 3, 3});
  const auto b = deterministic_param("conv1.weight", Shape{4, 3, 3, 3});
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.0);
  const auto c = deterministic_param("conv2.weight", Shape{4, 3, 3, 3});
  EXPECT_GT(Tensor::max_abs_diff(a, c), 0.0);
}

TEST(Interpreter, ConvIdentityKernel) {
  GraphBuilder b("conv-id");
  auto x = b.input({1, 1, 3, 3});
  auto y = b.conv2d(x, 1, 1, 1, 0, /*with_bias=*/false, "c");
  graph::Graph g = b.build(y);

  Tensor input(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) input.at(i) = static_cast<float>(i);
  Tensor weight(Shape{1, 1, 1, 1});
  weight.at(0) = 2.0f;

  Interpreter interp(g);
  const auto out =
      interp.run({{"input", input}, {"c.weight", weight}});
  ASSERT_EQ(out.size(), 1u);
  for (int i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(out[0].at(i), 2.0f * static_cast<float>(i));
}

TEST(Interpreter, ConvPaddingAndStride) {
  // 3x3 input, 3x3 all-ones kernel, pad 1, stride 2 -> 2x2 output of
  // corner-window sums.
  GraphBuilder b("conv-pad");
  auto x = b.input({1, 1, 3, 3});
  auto y = b.conv2d(x, 1, 3, 2, 1, false, "c");
  graph::Graph g = b.build(y);

  Tensor input(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) input.at(i) = 1.0f;
  Tensor weight(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) weight.at(i) = 1.0f;

  const auto out = Interpreter(g).run({{"input", input},
                                       {"c.weight", weight}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 1, 2, 2}));
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[0].at(i), 4.0f);
}

TEST(Interpreter, MaxAndAvgPool) {
  GraphBuilder b("pool");
  auto x = b.input({1, 1, 2, 2});
  auto mx = b.maxpool(x, 2, 2, 0, false, "mx");
  graph::Graph g = b.build(mx);
  Tensor input(Shape{1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  EXPECT_FLOAT_EQ(out[0].at(0), 4.0f);

  GraphBuilder b2("pool-avg");
  auto x2 = b2.input({1, 1, 2, 2});
  auto av = b2.avgpool(x2, 2, 2, 0, "av");
  graph::Graph g2 = b2.build(av);
  const auto out2 = Interpreter(g2).run({{"input", input}});
  EXPECT_FLOAT_EQ(out2[0].at(0), 2.5f);
}

TEST(Interpreter, MatMulBias) {
  GraphBuilder b("fc");
  auto x = b.input({1, 2});
  auto y = b.fc(x, 2, true, "fc");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2}, {1.0f, 2.0f});
  Tensor weight(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor bias(Shape{2}, {10.0f, 20.0f});
  const auto out = Interpreter(g).run(
      {{"input", input}, {"fc.weight", weight}, {"fc.bias", bias}});
  EXPECT_FLOAT_EQ(out[0].at2(0, 0), 1 * 1 + 2 * 3 + 10);
  EXPECT_FLOAT_EQ(out[0].at2(0, 1), 1 * 2 + 2 * 4 + 20);
}

TEST(Interpreter, ActivationsAndSoftmax) {
  GraphBuilder b("acts");
  auto x = b.input({1, 4});
  auto y = b.softmax(b.tanh(b.relu(x)));
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 4}, {-1.0f, 0.0f, 1.0f, 2.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  double sum = 0.0;
  for (int i = 0; i < 4; ++i) sum += out[0].at(i);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // ReLU zeroed the negatives, so the first two logits are equal.
  EXPECT_FLOAT_EQ(out[0].at(0), out[0].at(1));
  EXPECT_GT(out[0].at(3), out[0].at(2));
}

TEST(Interpreter, SoftmaxOfARowBelowMinusOneE30) {
  // Row 0 is ordinary and keeps its bits. Row 1 lies wholly below -1e30,
  // where a finite max identity made every exp 0 and the row 0/0.
  GraphBuilder b("softmax");
  auto x = b.input({2, 4});
  const graph::Graph g = b.build(b.softmax(x));
  const Tensor input(Shape{2, 4}, {-1.0f, 0.5f, 2.0f, 3.25f, -2e30f, -2e30f,
                                   -2e30f, -3e30f});
  const float third = static_cast<float>(1.0 / 3.0);
  const float want[] = {0x1.568054p-7f, 0x1.7fbefcp-5f, 0x1.adf528p-3f,
                        0x1.772cc6p-1f, third,          third,
                        third,          0.0f};
  for (auto mode : {ExecMode::kReference, ExecMode::kOptimized}) {
    const auto out = Interpreter(g, {mode, 1}).run({{"input", input}});
    for (int i = 0; i < 8; ++i) EXPECT_EQ(out[0].at(i), want[i]) << i;
  }
}

TEST(Interpreter, AddAndConcat) {
  GraphBuilder b("addcat");
  auto x = b.input({1, 1, 2, 2});
  auto r = b.relu(x, "r");
  auto s = b.sigmoid(x, "s");
  auto cat = b.concat({r, s}, "cat");
  graph::Graph g = b.build(cat);
  Tensor input(Shape{1, 1, 2, 2}, {0.0f, 1.0f, -1.0f, 2.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 2, 2, 2}));
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 1), 1.0f);                   // relu
  EXPECT_NEAR(out[0].at4(0, 1, 0, 1), 1.0 / (1.0 + std::exp(-1.0)), 1e-6);
}

TEST(Interpreter, BatchNormNormalizes) {
  GraphBuilder b("bn");
  auto x = b.input({1, 2, 1, 1});
  auto y = b.batchnorm(x, "bn");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2, 1, 1}, {4.0f, 8.0f});
  Tensor gamma(Shape{2}, {1.0f, 2.0f});
  Tensor beta(Shape{2}, {0.0f, 1.0f});
  Tensor mean(Shape{2}, {2.0f, 6.0f});
  Tensor var(Shape{2}, {4.0f, 1.0f});
  const auto out = Interpreter(g).run({{"input", input},
                                       {"bn.gamma", gamma},
                                       {"bn.beta", beta},
                                       {"bn.mean", mean},
                                       {"bn.var", var}});
  EXPECT_NEAR(out[0].at(0), (4.0 - 2.0) / 2.0, 1e-4);
  EXPECT_NEAR(out[0].at(1), 2.0 * (8.0 - 6.0) / 1.0 + 1.0, 1e-3);
}

TEST(Interpreter, DepthwiseConvPerChannelFilters) {
  // 2 channels, 1x1 depthwise kernels [2, 3]: channel c is scaled by its
  // own filter only.
  GraphBuilder b("dw");
  auto x = b.input({1, 2, 2, 2});
  auto y = b.dwconv2d(x, 1, 1, 0, false, "dw");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2, 2, 2},
               {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f});
  Tensor weight(Shape{2, 1, 1, 1}, {2.0f, 3.0f});
  const auto out =
      Interpreter(g).run({{"input", input}, {"dw.weight", weight}});
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 1), 8.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 1, 0, 0), 15.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 1, 1, 1), 24.0f);
}

TEST(Interpreter, RectangularConvKernel) {
  // 1x3 all-ones kernel with pad (0,1): horizontal neighborhood sums.
  GraphBuilder b("rect");
  auto x = b.input({1, 1, 2, 3});
  auto y = b.conv2d_rect(x, 1, 1, 3, 1, 0, 1, false, "c");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 1, 2, 3}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  Tensor weight(Shape{1, 1, 1, 3}, {1.0f, 1.0f, 1.0f});
  const auto out =
      Interpreter(g).run({{"input", input}, {"c.weight", weight}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 1, 2, 3}));
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 0), 3.0f);   // 0+1+2
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 1), 6.0f);   // 1+2+3
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 2), 11.0f);  // 5+6+0
}

TEST(Interpreter, CeilModePoolClipsWindowToInput) {
  // 3x3 input, 2x2 max pool stride 2 with ceil: output 2x2, the last
  // windows clipped at the border.
  GraphBuilder b("ceil");
  auto x = b.input({1, 1, 3, 3});
  auto y = b.maxpool(x, 2, 2, 0, /*ceil_mode=*/true, "p");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) input.at(i) = static_cast<float>(i);
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 1), 5.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 1), 8.0f);
}

TEST(Interpreter, GlobalAvgPoolIsTheMean) {
  GraphBuilder b("gap");
  auto x = b.input({1, 2, 3, 3});
  auto y = b.global_avgpool(x, "gap");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2, 3, 3});
  for (int i = 0; i < 18; ++i) input.at(i) = static_cast<float>(i);
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out[0].at(0), 4.0f);   // mean of 0..8
  EXPECT_FLOAT_EQ(out[0].at(1), 13.0f);  // mean of 9..17
}

TEST(Interpreter, BatchGreaterThanOne) {
  GraphBuilder b("batch");
  auto x = b.input({2, 1, 2, 2});
  auto y = b.relu(b.maxpool(x, 2, 2, 0, false, "p"));
  graph::Graph g = b.build(y);
  Tensor input(Shape{2, 1, 2, 2},
               {-1.0f, 2.0f, 3.0f, 4.0f, -5.0f, -6.0f, -7.0f, -8.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{2, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0].at(0), 4.0f);
  EXPECT_FLOAT_EQ(out[0].at(1), 0.0f);  // max is negative, relu clamps
}

/// Runs `g` in reference mode and in optimized mode (1 and 4 threads) and
/// asserts the outputs are bit-identical.
void expect_modes_identical(const graph::Graph& g, const TensorMap& bind) {
  const auto ref =
      Interpreter(g, {ExecMode::kReference, 1}).run(bind);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto opt =
        Interpreter(g, {ExecMode::kOptimized, threads}).run(bind);
    ASSERT_EQ(opt.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(Tensor::max_abs_diff(opt[i], ref[i]), 0.0);
  }
}

TEST(Interpreter, MaxPoolVeryNegativeWindow) {
  // Every window value is far below -1e30; a finite "identity" would leak
  // into the output, the true -inf identity cannot.
  GraphBuilder b("negpool");
  auto x = b.input({1, 1, 2, 2});
  graph::Graph g = b.build(b.maxpool(x, 2, 2, 0, false, "p"));
  Tensor input(Shape{1, 1, 2, 2}, {-1e32f, -2e32f, -3e32f, -4e32f});
  for (auto mode : {ExecMode::kReference, ExecMode::kOptimized}) {
    const auto out = Interpreter(g, {mode, 1}).run({{"input", input}});
    EXPECT_FLOAT_EQ(out[0].at(0), -1e32f);
  }
}

TEST(Interpreter, DepthwiseStride2PaddedMatchesReference) {
  GraphBuilder b("dw-s2");
  auto x = b.input({1, 3, 5, 5});
  graph::Graph g = b.build(b.dwconv2d(x, 3, 2, 1, true, "dw"));
  expect_modes_identical(
      g, {{"input", random_tensor(Shape{1, 3, 5, 5}, 42)}});
}

TEST(Interpreter, ConcatThreeInputs) {
  GraphBuilder b("cat3");
  auto x = b.input({1, 2, 3, 3});
  auto r = b.relu(x, "r");
  auto s = b.sigmoid(x, "s");
  auto t = b.tanh(x, "t");
  graph::Graph g = b.build(b.concat({r, s, t}, "cat"));
  const auto input = random_tensor(Shape{1, 2, 3, 3}, 7);
  const auto out =
      Interpreter(g, {ExecMode::kOptimized, 1}).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 6, 3, 3}));
  // Channel blocks land in argument order.
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 1),
                  std::max(0.0f, input.at4(0, 0, 1, 1)));
  EXPECT_FLOAT_EQ(out[0].at4(0, 4, 2, 2), std::tanh(input.at4(0, 0, 2, 2)));
  expect_modes_identical(g, {{"input", input}});
}

TEST(Interpreter, FusedResidualDagMatchesReference) {
  // Conv+BN+ReLU stacks, a residual Add with epilogue, Flatten and FC:
  // exercises every fused-kernel path the optimized engine has.
  GraphBuilder b("resdag");
  auto x = b.input({1, 3, 8, 8});
  auto c1 = b.relu(b.batchnorm(b.conv2d(x, 8, 3, 1, 1, false, "c1"), "bn1"));
  auto c2 = b.batchnorm(b.conv2d(c1, 8, 3, 1, 1, false, "c2"), "bn2");
  auto sum = b.relu(b.add(c2, c1, "sum"));
  auto head = b.fc(b.flatten(b.maxpool(sum, 2, 2), "flat"), 10, true, "fc");
  graph::Graph g = b.build(b.softmax(head));
  expect_modes_identical(
      g, {{"input", random_tensor(Shape{1, 3, 8, 8}, 11)}});
}

TEST(Interpreter, RunStatsReportLivenessSavings) {
  GraphBuilder b("stats");
  auto x = b.input({1, 4, 16, 16});
  auto c1 = b.relu(b.conv2d(x, 8, 3, 1, 1, true, "c1"));
  auto c2 = b.relu(b.conv2d(c1, 8, 3, 1, 1, true, "c2"));
  graph::Graph g = b.build(b.flatten(b.maxpool(c2, 2, 2), "flat"));
  const auto input = random_tensor(Shape{1, 4, 16, 16}, 3);

  RunStats stats;
  const auto out =
      Interpreter(g, {ExecMode::kOptimized, 1}).run({{"input", input}}, &stats);
  EXPECT_GT(stats.fused_groups, 0);
  EXPECT_GT(stats.moved_tensors, 0);  // Flatten moves, never copies
  EXPECT_GT(stats.released_bytes, 0);
  EXPECT_GE(stats.peak_resident_bytes, stats.final_resident_bytes);
  // Only the output survives to the end.
  EXPECT_EQ(stats.final_resident_bytes, out[0].bytes());
  // Liveness keeps the peak below "everything resident at once".
  std::int64_t all_bytes = 0;
  for (const auto& node : g.nodes())
    all_bytes += node.output.shape.elements() * 4;
  EXPECT_LT(stats.peak_resident_bytes, all_bytes);
}

TEST(Interpreter, StreamedFcWeightEqualsTheBoundOne) {
  GraphBuilder b("odd-fc");
  auto x = b.input({3, 37});
  const graph::Graph g =
      b.build(b.relu(b.fc(x, 1001, /*with_bias=*/true, "fc")));
  const Tensor input = random_tensor(Shape{3, 37}, 5);
  const Tensor weight = deterministic_param("fc.weight", Shape{37, 1001});
  const auto ref = Interpreter(g, {ExecMode::kReference, 1})
                       .run({{"input", input}});
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Interpreter interp(g, {ExecMode::kOptimized, threads});
    const auto streamed = interp.run({{"input", input}});
    const auto bound =
        interp.run({{"input", input}, {"fc.weight", weight}});
    EXPECT_TRUE(same_bits(streamed[0], bound[0]));
    EXPECT_TRUE(same_bits(streamed[0], ref[0]));
  }
}

TEST(Interpreter, StreamedFcWeightIsNeverResident) {
  GraphBuilder b("big-fc");
  auto x = b.input({1, 512});
  const graph::Graph g = b.build(b.fc(x, 2048, /*with_bias=*/false, "fc"));
  const std::int64_t weight_bytes = 512 * 2048 * sizeof(float);
  RunStats stats;
  Interpreter(g, {ExecMode::kOptimized, 1})
      .run({{"input", random_tensor(Shape{1, 512}, 9)}}, &stats);
  EXPECT_GT(stats.peak_resident_bytes, 0);
  EXPECT_LT(stats.peak_resident_bytes, weight_bytes);
}

TEST(Interpreter, BoundFcWeightIsReadInPlace) {
  // A weight bound once is read where the caller keeps it: the run holds
  // less than the weight, and gives the bits of the streamed and the
  // reference runs.
  GraphBuilder b("bound-fc");
  auto x = b.input({1, 512});
  const graph::Graph g = b.build(b.fc(x, 2048, /*with_bias=*/false, "fc"));
  const std::int64_t weight_bytes = 512 * 2048 * sizeof(float);
  const Tensor input = random_tensor(Shape{1, 512}, 9);
  const Tensor weight = deterministic_param("fc.weight", Shape{512, 2048});
  const Interpreter interp(g, {ExecMode::kOptimized, 1});
  RunStats stats;
  const auto bound =
      interp.run({{"input", input}, {"fc.weight", weight}}, &stats);
  EXPECT_GT(stats.peak_resident_bytes, 0);
  EXPECT_LT(stats.peak_resident_bytes, weight_bytes);
  const auto streamed = interp.run({{"input", input}});
  const auto ref = Interpreter(g, {ExecMode::kReference, 1})
                       .run({{"input", input}});
  EXPECT_TRUE(same_bits(bound[0], streamed[0]));
  EXPECT_TRUE(same_bits(bound[0], ref[0]));
}

TEST(Interpreter, InPlaceConsumersLeaveTheBoundInputUnchanged) {
  // ReLU and Flatten reuse their input's buffer when the interpreter owns
  // it. A bound input is the caller's, so they must work on a copy.
  const Tensor original = random_tensor(Shape{1, 2, 3, 3}, 4);
  ASSERT_LT(*std::min_element(original.data(), original.data() + 18), 0.0f);
  for (ExecMode mode : {ExecMode::kOptimized, ExecMode::kReference}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const Tensor input = original;

    GraphBuilder rb("relu");
    const graph::Graph relu = rb.build(rb.relu(rb.input({1, 2, 3, 3})));
    const auto r = Interpreter(relu, {mode, 1}).run({{"input", input}});
    EXPECT_TRUE(same_bits(input, original));
    for (std::int64_t i = 0; i < input.elements(); ++i)
      EXPECT_EQ(r[0].at(i), std::max(0.0f, original.at(i)));

    GraphBuilder fb("flatten");
    const graph::Graph flat = fb.build(fb.flatten(fb.input({1, 2, 3, 3})));
    const auto f = Interpreter(flat, {mode, 1}).run({{"input", input}});
    EXPECT_TRUE(same_bits(input, original));
    EXPECT_EQ(f[0].shape(), (Shape{1, 18}));
    for (std::int64_t i = 0; i < input.elements(); ++i)
      EXPECT_EQ(f[0].at(i), original.at(i));
  }
}

TEST(Interpreter, BoundInputThatIsAnOutputIsReturnedAsACopy) {
  // A cut across a skip connection from the input makes the input itself
  // a boundary tensor of the device segment.
  GraphBuilder b("skip");
  auto x = b.input({1, 3, 4, 4});
  auto c = b.conv2d(x, 3, 1, 1, 0, /*with_bias=*/true, "c");
  const graph::Graph g = b.build(b.add(x, c, "sum"));
  const auto plan = partition::partition_at(g, 2);  // input, conv, bias
  ASSERT_TRUE(plan.device_part.has_value());
  const Tensor input = random_tensor(Shape{1, 3, 4, 4}, 8);
  for (ExecMode mode : {ExecMode::kOptimized, ExecMode::kReference}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const Interpreter interp(*plan.device_part, {mode, 1});
    const auto names = interp.output_names();
    const auto it = std::find(names.begin(), names.end(), "input");
    ASSERT_NE(it, names.end());
    const auto k = static_cast<std::size_t>(it - names.begin());
    RunStats stats;
    const auto out = interp.run({{"input", input}}, &stats);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(same_bits(out[k], input));
    EXPECT_NE(out[k].data(), input.data());
    // The copy is the interpreter's, so it counts as resident.
    EXPECT_EQ(stats.final_resident_bytes, out[0].bytes() + out[1].bytes());
  }
}

TEST(Interpreter, PoolingMatchesTheReferenceOnNanAndPaddedWindows) {
  // Max and average pooling with padding, the max also in ceil mode, on an
  // input with scattered NaN taps, an all-NaN 3x3 block (a max window that
  // sees only NaN gives -inf, as the reference's does) and a -0.0 / +0.0
  // pair whose order decides the sign of a max. 23 columns give 3x3/2
  // rows of 11 outputs, whose last run of 8 overlaps the first. Pooling
  // has one path on every CPU, so this runs the optimized interpreter
  // against the reference.
  const Shape in{2, 3, 13, 23};
  Tensor input = random_tensor(in, 21);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t i = 0; i < input.elements(); i += 7) input.at(i) = nan;
  for (std::int64_t h = 4; h < 7; ++h)
    for (std::int64_t w = 4; w < 7; ++w) input.at4(0, 1, h, w) = nan;
  for (std::int64_t h = 0; h < 3; ++h)
    for (std::int64_t w = 0; w < 3; ++w) input.at4(1, 2, h, w) = -1.0f;
  input.at4(1, 2, 0, 1) = -0.0f;
  input.at4(1, 2, 1, 0) = 0.0f;

  const struct {
    bool max;
    std::int64_t kernel, stride, pad;
    bool ceil;
  } cases[] = {{true, 3, 2, 0, true},
               {true, 3, 2, 1, false},
               {true, 2, 2, 0, false},
               {true, 3, 1, 1, false},
               {false, 3, 2, 1, false},
               {false, 3, 1, 1, false}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.max ? "max" : "avg") + " k=" +
                 std::to_string(c.kernel) + " s=" + std::to_string(c.stride) +
                 " pad=" + std::to_string(c.pad));
    GraphBuilder b("pool");
    auto x = b.input(in);
    const graph::Graph g =
        b.build(c.max ? b.maxpool(x, c.kernel, c.stride, c.pad, c.ceil)
                      : b.avgpool(x, c.kernel, c.stride, c.pad));
    const Tensor want =
        Interpreter(g, {ExecMode::kReference, 1}).run({{"input", input}})[0];
    if (c.max && c.pad == 0 && c.kernel == 3) {
      EXPECT_EQ(want.at4(0, 1, 2, 2), -std::numeric_limits<float>::infinity());
    }
    for (int threads : {1, 3})
      EXPECT_TRUE(same_bits(
          Interpreter(g, {ExecMode::kOptimized, threads})
              .run({{"input", input}})[0],
          want));
  }
}

// Every compiled vector path on its own, on the CPUs that have it: the
// conv and the GEMV, with their fused epilogues, against the reference
// interpreter, the weight fill against the scalar loop.
class IsaPath : public ::testing::TestWithParam<isa::Isa> {
 protected:
  void SetUp() override {
    if (!isa::supported(GetParam()))
      GTEST_SKIP() << "this CPU cannot run the " << isa::name(GetParam())
                   << " path";
  }
};

/// The epilogue the interpreter fuses for BiasAdd -> BatchNorm -> ReLU ->
/// `tail`, reading the given tensors.
Epilogue bias_bn_relu(const Tensor& bias, const Tensor& gamma,
                      const Tensor& beta, const Tensor& mean,
                      const Tensor& var, graph::OpType tail) {
  EpilogueStep add_bias, bn, relu, act;
  add_bias.op = graph::OpType::kBiasAdd;
  add_bias.bias = bias.data();
  bn.op = graph::OpType::kBatchNorm;
  bn.gamma = gamma.data();
  bn.beta = beta.data();
  bn.mean = mean.data();
  for (std::int64_t c = 0; c < var.elements(); ++c)
    bn.denom.push_back(std::sqrt(std::max(var.at(c), 0.0f) + 1e-5f));
  relu.op = graph::OpType::kRelu;
  act.op = tail;
  Epilogue ep;
  ep.steps = {add_bias, bn, relu, act};
  return ep;
}

TEST_P(IsaPath, RandomConvLayersMatchTheReferenceBitForBit) {
  // Kernels 1-11 and 1x7 / 7x1, strides 1-4, padding, 1-37 output channels
  // (mostly not a multiple of a tile's rows), pixel counts mostly not a
  // multiple of a strip, some over one 64-pixel block, batch 1 or 2, and a
  // bias + ReLU epilogue on every other layer.
  constexpr std::int64_t kKernels[][2] = {{1, 1}, {3, 3}, {5, 5},  {7, 7},
                                          {11, 11}, {1, 7}, {7, 1}};
  Rng rng(2026);
  ThreadPool one(1), three(3);
  for (int c = 0; c < 60; ++c) {
    const std::int64_t kh = kKernels[c % 7][0], kw = kKernels[c % 7][1];
    const std::int64_t stride = rng.uniform_int(1, 4);
    const std::int64_t pad_h = rng.uniform_int(0, kh / 2);
    const std::int64_t pad_w = rng.uniform_int(0, kw / 2);
    const Shape in{c % 4 == 3 ? 2 : 1, rng.uniform_int(1, 4),
                   kh - 2 * pad_h + rng.uniform_int(0, 14),
                   kw - 2 * pad_w + rng.uniform_int(0, 14)};
    const std::int64_t oc = rng.uniform_int(1, 37);
    const bool epilogue = c % 2 == 1;
    SCOPED_TRACE("layer " + std::to_string(c) + ": " + in.to_string() +
                 " oc=" + std::to_string(oc) + " k=" + std::to_string(kh) +
                 "x" + std::to_string(kw) + " s=" + std::to_string(stride));

    GraphBuilder b("layer");
    auto y = b.conv2d_rect(b.input(in), oc, kh, kw, stride, pad_h, pad_w,
                           epilogue, "c");
    if (epilogue) y = b.relu(y, "r");
    const graph::Graph g = b.build(y);
    const Tensor input = random_tensor(in, 100 + c);
    const Tensor weight = random_tensor(Shape{oc, in.c(), kh, kw}, 200 + c);
    const Tensor bias = random_tensor(Shape{oc}, 300 + c);
    TensorMap bind = {{"input", input}, {"c.weight", weight}};
    if (epilogue) bind.emplace("c.bias", bias);
    const Tensor want = Interpreter(g, {ExecMode::kReference, 1}).run(bind)[0];

    Epilogue ep;
    if (epilogue) {
      EpilogueStep add_bias, relu;
      add_bias.op = graph::OpType::kBiasAdd;
      add_bias.bias = bias.data();
      relu.op = graph::OpType::kRelu;
      ep.steps = {add_bias, relu};
    }
    const graph::ConvAttrs attrs{oc, kh, kw, stride, stride, pad_h, pad_w};
    for (ThreadPool* pool : {&one, &three})
      EXPECT_TRUE(same_bits(isa::conv2d_im2col(GetParam(), input, weight,
                                               attrs, want.shape(), ep,
                                               *pool),
                            want));
  }
}

TEST_P(IsaPath, ConvKeepsTheReferenceAccumulationOrder) {
  // Random data hides a reordered chain: float products are exact in
  // double, and the double sum has 29 bits to spare before the float
  // store. Here input channel 0 is scaled by 2^30, channel 1 is its
  // negative, and both share weights, so their products cancel. Only the
  // reference order, ic 0 then 1 then 2, rounds channel 2's small
  // products as the reference does.
  const Shape in{1, 3, 9, 13};
  Tensor input = random_tensor(in, 7);
  Tensor weight = random_tensor(Shape{11, 3, 3, 3}, 8);
  const std::int64_t plane = 9 * 13;
  for (std::int64_t i = 0; i < plane; ++i) {
    input.at(i) = std::ldexp(input.at(i), 30);
    input.at(plane + i) = -input.at(i);
  }
  for (std::int64_t oc = 0; oc < 11; ++oc)
    for (std::int64_t t = 0; t < 9; ++t)
      weight.at((oc * 3 + 1) * 9 + t) = weight.at(oc * 3 * 9 + t);

  GraphBuilder b("cancel");
  const graph::Graph g =
      b.build(b.conv2d(b.input(in), 11, 3, 1, 1, false, "c"));
  const Tensor want = Interpreter(g, {ExecMode::kReference, 1})
                          .run({{"input", input}, {"c.weight", weight}})[0];
  ThreadPool pool(1);
  EXPECT_TRUE(same_bits(isa::conv2d_im2col(GetParam(), input, weight,
                                           {11, 3, 3, 1, 1, 1, 1},
                                           want.shape(), Epilogue{}, pool),
                        want));
}

TEST_P(IsaPath, ConvEpiloguesMatchTheReferenceBitForBit) {
  // BiasAdd -> BatchNorm -> ReLU and a Sigmoid or Tanh tail, against the
  // layer's graph in the reference interpreter, on six layers picked for
  // the conv's paths and six random ones: 1x1 stride-1 strips (a widening
  // copy), strips inside one row of a 3x3 at stride 1, strided and padded
  // taps, K deeper than one panel slice (chains carried between slices,
  // some split inside an input channel), output channels off the tile
  // height, pixel counts off a strip, and a BatchNorm variance that is
  // sometimes negative (clamped).
  struct Layer {
    std::int64_t batch, ic, h, w, oc, k, stride, pad;
  };
  std::vector<Layer> layers = {
      {1, 300, 6, 7, 19, 1, 1, 0},  {1, 37, 9, 23, 13, 3, 1, 1},
      {1, 3, 29, 31, 21, 7, 2, 0},  {1, 70, 8, 8, 9, 3, 1, 1},
      {1, 16, 17, 18, 64, 1, 1, 0}, {1, 5, 12, 40, 11, 5, 2, 2}};
  Rng rng(29);
  for (int r = 0; r < 6; ++r) {
    const std::int64_t k = 2 * rng.uniform_int(0, 3) + 1;
    layers.push_back({rng.uniform_int(1, 2), rng.uniform_int(1, 40),
                      k + rng.uniform_int(0, 12), k + rng.uniform_int(0, 20),
                      rng.uniform_int(1, 37), k, rng.uniform_int(1, 2),
                      rng.uniform_int(0, k / 2)});
  }
  ThreadPool one(1), three(3);
  int i = 0;
  for (const Layer& l : layers) {
    const Shape in{l.batch, l.ic, l.h, l.w};
    const graph::OpType tail =
        i % 2 == 0 ? graph::OpType::kSigmoid : graph::OpType::kTanh;
    SCOPED_TRACE("layer " + std::to_string(i) + ": " + in.to_string() +
                 " oc=" + std::to_string(l.oc) + " k=" + std::to_string(l.k));
    GraphBuilder b("layer");
    auto y = b.conv2d(b.input(in), l.oc, l.k, l.stride, l.pad,
                      /*with_bias=*/true, "c");
    y = b.relu(b.batchnorm(y, "bn"), "r");
    y = tail == graph::OpType::kSigmoid ? b.sigmoid(y, "t") : b.tanh(y, "t");
    const graph::Graph g = b.build(y);

    const Shape per_oc{l.oc};
    const Tensor input = random_tensor(in, 400 + i);
    const Tensor weight =
        random_tensor(Shape{l.oc, l.ic, l.k, l.k}, 500 + i);
    const Tensor bias = random_tensor(per_oc, 600 + i);
    const Tensor gamma = random_tensor(per_oc, 700 + i);
    const Tensor beta = random_tensor(per_oc, 800 + i);
    const Tensor mean = random_tensor(per_oc, 900 + i);
    const Tensor var = random_tensor(per_oc, 1000 + i);
    const Tensor want = Interpreter(g, {ExecMode::kReference, 1})
                            .run({{"input", input},
                                  {"c.weight", weight},
                                  {"c.bias", bias},
                                  {"bn.gamma", gamma},
                                  {"bn.beta", beta},
                                  {"bn.mean", mean},
                                  {"bn.var", var}})[0];
    const Epilogue ep = bias_bn_relu(bias, gamma, beta, mean, var, tail);
    const graph::ConvAttrs attrs{l.oc,     l.k,   l.k,  l.stride,
                                 l.stride, l.pad, l.pad};
    for (ThreadPool* pool : {&one, &three})
      EXPECT_TRUE(same_bits(isa::conv2d_im2col(GetParam(), input, weight,
                                               attrs, want.shape(), ep,
                                               *pool),
                            want));
    ++i;
  }
}

TEST_P(IsaPath, ReluTurnsNegativeZeroAndNanIntoPositiveZero) {
  // std::max(0.0f, v) is +0.0 for v = -0.0 and for a NaN; a select with
  // its operands swapped keeps both. -1e-30 * 1e-30 is -1e-60 in double,
  // which narrows to -0.0f. Both the conv and the GEMV store, over more
  // elements than a vector so the tail runs too.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = 1e-30f;
  const float kept = static_cast<float>(0.5 * static_cast<double>(tiny));
  Epilogue relu;
  relu.steps.resize(1);
  relu.steps[0].op = graph::OpType::kRelu;
  ThreadPool pool(1);
  auto expect_relu = [&](const Tensor& got, auto input_at) {
    for (std::int64_t i = 0; i < got.elements(); ++i) {
      const float in = input_at(i);
      const float want = in > 0.0f ? kept : 0.0f;
      EXPECT_EQ(std::memcmp(&got.data()[i], &want, sizeof want), 0)
          << "element " << i << " = " << got.data()[i];
    }
  };

  const std::int64_t n = 37;
  Tensor image(Shape{1, 1, 1, n});
  for (std::int64_t i = 0; i < n; ++i)
    image.at(i) = i % 3 == 0 ? nan : i % 3 == 1 ? -tiny : 0.5f;
  Tensor one_tap(Shape{1, 1, 1, 1});
  one_tap.at(0) = tiny;
  expect_relu(isa::conv2d_im2col(GetParam(), image, one_tap,
                                 {1, 1, 1, 1, 1, 0, 0}, image.shape(), relu,
                                 pool),
              [&](std::int64_t i) { return image.at(i); });

  Tensor x(Shape{3, 1});
  x.at(0) = nan;
  x.at(1) = -tiny;
  x.at(2) = 0.5f;
  Tensor w(Shape{1, n});
  for (std::int64_t c = 0; c < n; ++c) w.at(c) = tiny;
  expect_relu(isa::matmul(GetParam(), x, WeightRows(w), Shape{3, n}, relu,
                          pool),
              [&](std::int64_t i) { return x.at(i / n); });
}

TEST_P(IsaPath, GemvMatchesTheReferenceStreamedAndBound) {
  // Batch 1 and 2; column counts off every vector width, below the 256
  // columns of one task's slice and split into three slices at 3 threads;
  // a per-column BiasAdd and a ReLU, Sigmoid or Tanh tail. The weight is
  // bound, or streamed from its generator as the interpreter streams an
  // unbound FC weight.
  const graph::OpType kTails[] = {graph::OpType::kRelu,
                                  graph::OpType::kSigmoid,
                                  graph::OpType::kTanh};
  ThreadPool one(1), three(3);
  int i = 0;
  for (std::int64_t rows : {1, 2})
    for (std::int64_t cols : {1, 7, 17, 40, 255, 257, 1001}) {
      const std::int64_t inner = 23 + 11 * i;
      const graph::OpType tail = kTails[i % 3];
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " inner=" + std::to_string(inner) +
                   " cols=" + std::to_string(cols));
      GraphBuilder b("fc");
      auto y = b.fc(b.input({rows, inner}), cols, /*with_bias=*/true, "fc");
      y = tail == graph::OpType::kRelu      ? b.relu(y)
          : tail == graph::OpType::kSigmoid ? b.sigmoid(y)
                                            : b.tanh(y);
      const graph::Graph g = b.build(y);
      const Shape w_shape{inner, cols};
      const Tensor input = random_tensor(Shape{rows, inner}, 40 + i);
      const Tensor want =
          Interpreter(g, {ExecMode::kReference, 1}).run({{"input", input}})[0];

      const Tensor weight = deterministic_param("fc.weight", w_shape);
      const ParamGenerator synth("fc.weight", w_shape);
      const Tensor bias = deterministic_param("fc.bias", Shape{cols});
      Epilogue ep;
      ep.steps.resize(2);
      ep.steps[0].op = graph::OpType::kBiasAdd;
      ep.steps[0].bias = bias.data();
      ep.steps[1].op = tail;
      for (ThreadPool* pool : {&one, &three}) {
        EXPECT_TRUE(same_bits(isa::matmul(GetParam(), input,
                                          WeightRows(weight), want.shape(),
                                          ep, *pool),
                              want));
        EXPECT_TRUE(same_bits(isa::matmul(GetParam(), input,
                                          WeightRows(synth), want.shape(), ep,
                                          *pool),
                              want));
      }
      ++i;
    }
}

TEST_P(IsaPath, GemvKeepsTheReferenceAccumulationOrder) {
  // As for the conv: x's k = 0 is scaled by 2^40, k = 1 is its negative
  // and W's rows 0 and 1 are equal, so their products cancel exactly.
  // Only the reference order, k 0 then 1 then 2, adds row 2's products to
  // an exact zero; any other order rounds them against a product 2^40
  // larger first.
  const std::int64_t rows = 2, inner = 3, cols = 300;
  Tensor input = random_tensor(Shape{rows, inner}, 11);
  Tensor weight = random_tensor(Shape{inner, cols}, 12);
  for (std::int64_t r = 0; r < rows; ++r) {
    input.at2(r, 0) = std::ldexp(input.at2(r, 0), 40);
    input.at2(r, 1) = -input.at2(r, 0);
  }
  for (std::int64_t c = 0; c < cols; ++c) weight.at2(1, c) = weight.at2(0, c);

  GraphBuilder b("cancel-fc");
  const graph::Graph g =
      b.build(b.fc(b.input({rows, inner}), cols, /*with_bias=*/false, "fc"));
  const Tensor want = Interpreter(g, {ExecMode::kReference, 1})
                          .run({{"input", input}, {"fc.weight", weight}})[0];
  ThreadPool pool(1);
  EXPECT_TRUE(same_bits(isa::matmul(GetParam(), input, WeightRows(weight),
                                    want.shape(), Epilogue{}, pool),
                        want));
}

TEST_P(IsaPath, ConvAndGemvChainsAreExactAtFloatExtremes) {
  // The vector conv may fuse each chain's multiply and add, because a
  // float times a float is exact in double: this test pins that premise
  // where it is tightest. Each chain is one output's (x, w) terms in k
  // order and the float its exact double sum narrows to. Chain c's terms
  // sit at k = c + kChains * slot, spread over K = 299 (two K slices of
  // the conv), and every other x and w is 0, so output (chain c, c) of a
  // 1x1 conv and of a GEMV is exactly that chain; the other outputs mix
  // zeros with the chains' operands (0 * inf is NaN there).
  const float kMax = std::numeric_limits<float>::max();
  const float kMin = std::numeric_limits<float>::min();
  const float kTiny = std::numeric_limits<float>::denorm_min();
  const float kSub = std::nextafter(kMin, 0.0f);  // the largest subnormal
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kWide = 1.0f + 0x1p-23f;  // kWide^2 = 1 + 2^-22 + 2^-46
  struct Chain {
    std::vector<std::pair<float, float>> terms;
    float sum;
  };
  const std::vector<Chain> chains = {
      // All 48 bits of a product count: only kWide^2's 2^-46 survives.
      {{{-1.0f, 1.0f}, {-0x1p-22f, 1.0f}, {kWide, kWide}}, 0x1p-46f},
      // kWide^2 lands 2^-46 above a tie in the double ulp (2^-21) of 2^31.
      {{{0x1p31f, 1.0f}, {kWide, kWide}, {-0x1p31f, 1.0f}}, 1.0f + 0x1p-21f},
      // FLT_MAX^2 is finite in double, and it cancels exactly.
      {{{kMax, kMax}, {-kMax, kMax}, {kTiny, 1.0f}}, kTiny},
      {{{kMax, 2.0f}}, kInf},  // overflows only when narrowed
      // Subnormals are neither flushed nor read as zero, and a product of
      // two of them is a normal double.
      {{{kSub, 1.0f}, {kTiny, 1.0f}}, kMin},
      {{{kTiny, kMax}, {kTiny, kTiny}}, 0x1p-21f - 0x1p-45f},
      {{{kSub, kWide}}, kMin},
      // Signed zeros: -2^-298 narrows to -0.0; the others sum to +0.0.
      {{{-kTiny, kTiny}}, -0.0f},
      {{{-0.0f, 1.0f}, {0.0f, -1.0f}, {-0.0f, -0.0f}}, 0.0f},
      // Infinities, and the NaN of inf * 0 and of inf - inf.
      {{{kInf, kTiny}, {kMax, kMax}}, kInf},
      {{{1.0f, -kInf}}, -kInf},
      {{{kInf, 0.0f}}, kNan},
      {{{kInf, 1.0f}, {-kInf, 1.0f}}, kNan},
  };
  const std::int64_t kChains = static_cast<std::int64_t>(chains.size());
  const std::int64_t kSlots = 23;  // K = 13 * 23 = 299
  const std::int64_t k_extent = kChains * kSlots;
  ASSERT_GT(k_extent, 256);

  // The conv's input holds each chain's x as pixel c of row 0 and -x as
  // pixel c of row 1; the GEMV's holds them as rows c and kChains + c.
  const Shape conv_in{1, k_extent, 2, kChains};
  const Shape gemv_in{2 * kChains, k_extent};
  Tensor conv_x(conv_in), conv_w(Shape{kChains, k_extent, 1, 1});
  Tensor gemv_x(gemv_in), gemv_w(Shape{k_extent, kChains});
  for (std::int64_t c = 0; c < kChains; ++c) {
    const auto& terms = chains[static_cast<std::size_t>(c)].terms;
    const auto n = static_cast<std::int64_t>(terms.size());
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t slot = n == 1 ? 0 : j * (kSlots - 1) / (n - 1);
      const std::int64_t k = c + kChains * slot;
      const auto [x, w] = terms[static_cast<std::size_t>(j)];
      conv_x.at4(0, k, 0, c) = x;
      conv_x.at4(0, k, 1, c) = -x;
      conv_w.at4(c, k, 0, 0) = w;
      gemv_x.at2(c, k) = x;
      gemv_x.at2(kChains + c, k) = -x;
      gemv_w.at2(k, c) = w;
    }
  }
  // Output (chain c, c) sits at c * row_stride + c.
  auto expect_sums = [&](const Tensor& got, std::int64_t row_stride) {
    for (std::int64_t c = 0; c < kChains; ++c) {
      const float want = chains[static_cast<std::size_t>(c)].sum;
      const float y = got.data()[c * row_stride + c];
      EXPECT_TRUE(std::isnan(want) ? std::isnan(y)
                                   : std::memcmp(&y, &want, sizeof y) == 0)
          << "chain " << c << " = " << y << ", want " << want;
    }
  };
  ThreadPool pool(1);

  GraphBuilder cb("extremes");
  const graph::Graph conv =
      cb.build(cb.conv2d(cb.input(conv_in), kChains, 1, 1, 0, false, "c"));
  const Tensor conv_want =
      Interpreter(conv, {ExecMode::kReference, 1})
          .run({{"input", conv_x}, {"c.weight", conv_w}})[0];
  expect_sums(conv_want, 2 * kChains);  // y[oc c][row 0][pixel c]
  const graph::ConvAttrs one_by_one{kChains, 1, 1, 1, 1, 0, 0};
  EXPECT_TRUE(same_bits(isa::conv2d_im2col(GetParam(), conv_x, conv_w,
                                           one_by_one, conv_want.shape(),
                                           Epilogue{}, pool),
                        conv_want));

  GraphBuilder gb("extremes-fc");
  const graph::Graph fc =
      gb.build(gb.fc(gb.input(gemv_in), kChains, /*with_bias=*/false, "fc"));
  const Tensor gemv_want =
      Interpreter(fc, {ExecMode::kReference, 1})
          .run({{"input", gemv_x}, {"fc.weight", gemv_w}})[0];
  expect_sums(gemv_want, kChains);  // y[row c][column c]
  EXPECT_TRUE(same_bits(isa::matmul(GetParam(), gemv_x, WeightRows(gemv_w),
                                    gemv_want.shape(), Epilogue{}, pool),
                        gemv_want));
  // A streamed weight is synthesized, so only x is extreme there.
  const Tensor streamed_want =
      Interpreter(fc, {ExecMode::kReference, 1}).run({{"input", gemv_x}})[0];
  const ParamGenerator synth("fc.weight", Shape{k_extent, kChains});
  EXPECT_TRUE(same_bits(isa::matmul(GetParam(), gemv_x, WeightRows(synth),
                                    streamed_want.shape(), Epilogue{}, pool),
                        streamed_want));
}

TEST_P(IsaPath, WeightFillMatchesTheScalarLoopAtEveryOffsetAndLength) {
  // A conv weight's (mean 0) and a BatchNorm variance's (mean 1) scaling.
  const struct {
    std::uint64_t seed;
    float mean, scale;
  } streams[] = {{0x0d7362a9f2387be6ull, 0.0f, 2.7e-7f},
                 {0xcbf29ce484222325ull, 1.0f, 1.9e-6f}};
  for (const auto& st : streams)
    for (std::int64_t first = 0; first <= 13; ++first)
      for (std::int64_t count = 0; count <= 18; ++count) {
        const std::int64_t n = count == 18 ? 64 : count;
        std::vector<float> want(static_cast<std::size_t>(n));
        std::vector<float> got(static_cast<std::size_t>(n));
        isa::fill_params(isa::Isa::kBaseline, st.seed, st.mean, st.scale,
                         first, n, want.data());
        isa::fill_params(GetParam(), st.seed, st.mean, st.scale, first, n,
                         got.data());
        EXPECT_TRUE(n == 0 || std::memcmp(want.data(), got.data(),
                                          want.size() * sizeof(float)) == 0)
            << "first=" << first << " count=" << n;
      }
}

INSTANTIATE_TEST_SUITE_P(Exec, IsaPath, ::testing::ValuesIn(isa::kAll),
                         [](const auto& info) {
                           return std::string(isa::name(info.param));
                         });

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SmallRangeRunsInlineAndSerialIsUsable) {
  // total < 2*grain executes on the caller; a 1-thread pool always does.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(10, 20, 100, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 145);  // 10+11+...+19
  }
}

TEST(Interpreter, MissingInputBindingThrows) {
  GraphBuilder b("missing");
  auto x = b.input({1, 2});
  graph::Graph g = b.build(b.relu(x));
  EXPECT_THROW(Interpreter(g).run({}), ContractError);
}

TEST(Interpreter, ShapeMismatchThrows) {
  GraphBuilder b("badshape");
  auto x = b.input({1, 2});
  graph::Graph g = b.build(b.relu(x));
  Tensor wrong(Shape{1, 3});
  EXPECT_THROW(Interpreter(g).run({{"input", wrong}}), ContractError);
}

}  // namespace
}  // namespace lp::exec

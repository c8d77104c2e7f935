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
#include "exec/interpreter.h"
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

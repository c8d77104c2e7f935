// Differential tests: the optimized execution engine must be bit-identical
// to the reference interpreter — max_abs_diff == 0.0, not "close" — on
// every evaluation model, whole-graph and across partition cuts. This is
// the determinism contract of exec/kernels.h, checked end to end. Every
// output element must also be finite: a comparison of NaN or infinite
// outputs proves nothing about the kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exec/interpreter.h"
#include "graph/graph.h"
#include "models/zoo.h"
#include "partition/partitioner.h"

namespace lp::exec {
namespace {

/// Whole-graph run in `mode` with deterministic weights and input.
std::vector<Tensor> run_whole(const graph::Graph& g, ExecMode mode,
                              int threads) {
  const auto input = random_tensor(g.input_desc().shape, 2026);
  Interpreter interp(g, {mode, threads});
  return interp.run({{g.node(g.input_id()).name, input}});
}

/// Number of NaN or infinite elements of `t`.
std::int64_t non_finite(const Tensor& t) {
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < t.elements(); ++i)
    if (!std::isfinite(t.at(i))) ++count;
  return count;
}

void expect_bit_identical(const graph::Graph& g) {
  const auto ref = run_whole(g, ExecMode::kReference, 1);
  for (const Tensor& t : ref) EXPECT_EQ(non_finite(t), 0);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto opt = run_whole(g, ExecMode::kOptimized, threads);
    ASSERT_EQ(opt.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(Tensor::max_abs_diff(opt[i], ref[i]), 0.0);
  }
}

TEST(ExecDiff, AlexNetBitIdentical) {
  expect_bit_identical(models::make_model("alexnet"));
}

TEST(ExecDiff, Vgg16BitIdentical) {
  expect_bit_identical(models::make_model("vgg16"));
}

TEST(ExecDiff, ResNet18BitIdentical) {
  expect_bit_identical(models::make_model("resnet18"));
}

TEST(ExecDiff, ResNet50BitIdentical) {
  expect_bit_identical(models::make_model("resnet50"));
}

TEST(ExecDiff, SqueezeNetBitIdentical) {
  expect_bit_identical(models::make_model("squeezenet"));
}

TEST(ExecDiff, XceptionBitIdentical) {
  expect_bit_identical(models::make_model("xception"));
}

TEST(ExecDiff, DeepModelsGiveFiniteOutputs) {
  // The four zoo models too slow for the reference interpreter, once each
  // on the optimized engine: the synthesized weights' scaling is what keeps
  // 100+ layers of activations finite.
  for (const char* name :
       {"resnet101", "resnet152", "inception_v3", "mobilenet_v2"}) {
    SCOPED_TRACE(name);
    for (const Tensor& t : run_whole(models::make_model(name),
                                     ExecMode::kOptimized, 4))
      EXPECT_EQ(non_finite(t), 0);
  }
}

TEST(ExecDiff, AlexNetEveryCutBitIdentical) {
  // Optimized device half + optimized server half must reproduce the
  // *reference* whole-graph output exactly, at every backbone cut: fusion
  // never reaches across a partition boundary, and im2col padding
  // contributes exact zeros, so the halves stay on the reference's
  // accumulation order too.
  const auto g = models::make_model("alexnet");
  const auto input = random_tensor(g.input_desc().shape, 2026);
  const auto whole =
      Interpreter(g, {ExecMode::kReference, 1})
          .run({{g.node(g.input_id()).name, input}});
  ASSERT_EQ(whole.size(), 1u);

  const Options opt{ExecMode::kOptimized, 2};
  for (std::size_t p = 0; p <= g.n(); ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const auto plan = partition::partition_at(g, p);

    std::vector<Tensor> out;
    if (!plan.server_part.has_value()) {
      out = Interpreter(*plan.device_part, opt)
                .run({{g.node(g.input_id()).name, input}});
    } else {
      TensorMap boundary;
      if (plan.device_part.has_value()) {
        Interpreter device(*plan.device_part, opt);
        auto produced =
            device.run({{g.node(g.input_id()).name, input}});
        const auto names = device.output_names();
        ASSERT_EQ(produced.size(), names.size());
        for (std::size_t i = 0; i < names.size(); ++i)
          boundary.emplace(names[i], std::move(produced[i]));
      } else {
        boundary.emplace(g.node(g.input_id()).name, input);
      }
      out = Interpreter(*plan.server_part, opt).run(boundary);
    }

    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(Tensor::max_abs_diff(out[0], whole[0]), 0.0);
  }
}

}  // namespace
}  // namespace lp::exec

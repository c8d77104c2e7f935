#include <gtest/gtest.h>

#include "common/check.h"
#include "graph/cut.h"
#include "graph/dot.h"
#include "graph/graph.h"
#include "graph/shape_infer.h"

namespace lp::graph {
namespace {

TEST(Shape, ElementsAndAccessors) {
  Shape s{1, 3, 224, 224};
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.elements(), 1 * 3 * 224 * 224);
  EXPECT_EQ(s.n(), 1);
  EXPECT_EQ(s.c(), 3);
  EXPECT_EQ(s.h(), 224);
  EXPECT_EQ(s.w(), 224);
  EXPECT_EQ(s.to_string(), "1x3x224x224");
}

TEST(Shape, RejectsNonPositiveAxes) {
  EXPECT_THROW(Shape({1, 0, 3}), ContractError);
  EXPECT_THROW(Shape({-1}), ContractError);
}

TEST(Shape, RejectsByteSizesBeyondInt64) {
  // 2^32 x 2^32 elements would overflow elements() itself; 2^31 x 2^30
  // fits as a count but not as float32 bytes (2^63). The bound is exact:
  // 2^61 - 1 elements take 2^63 - 4 bytes.
  EXPECT_THROW((Shape{1LL << 32, 1LL << 32}), ContractError);
  EXPECT_THROW((Shape{1LL << 31, 1LL << 30}), ContractError);
  EXPECT_EQ(TensorDesc{Shape{(1LL << 61) - 1}}.bytes(), ((1LL << 61) - 1) * 4);
}

TEST(TensorDesc, BytesUseDtype) {
  TensorDesc d{Shape{2, 3}};
  EXPECT_EQ(d.bytes(), 24);
}

TEST(ShapeInfer, ConvStandardCases) {
  // AlexNet conv1: 224 -> 55 with k=11, s=4, p=2.
  ConvAttrs a{64, 11, 11, 4, 4, 2, 2};
  const auto out = conv_output_shape(Shape{1, 3, 224, 224}, a, false);
  EXPECT_EQ(out, (Shape{1, 64, 55, 55}));
}

TEST(ShapeInfer, DepthwiseKeepsChannels) {
  ConvAttrs a{0, 3, 3, 1, 1, 1, 1};
  const auto out = conv_output_shape(Shape{1, 32, 28, 28}, a, true);
  EXPECT_EQ(out, (Shape{1, 32, 28, 28}));
}

TEST(ShapeInfer, PoolCeilModeAddsWindow) {
  // SqueezeNet pool: 111 -> 55 with k=3, s=2, ceil.
  PoolAttrs floor_attrs{3, 3, 2, 2, 0, 0, false};
  PoolAttrs ceil_attrs{3, 3, 2, 2, 0, 0, true};
  EXPECT_EQ(pool_output_shape(Shape{1, 96, 111, 111}, floor_attrs).h(), 55);
  EXPECT_EQ(pool_output_shape(Shape{1, 96, 110, 110}, ceil_attrs).h(), 55);
  EXPECT_EQ(pool_output_shape(Shape{1, 96, 110, 110}, floor_attrs).h(), 54);
}

TEST(ShapeInfer, KernelLargerThanInputThrows) {
  PoolAttrs a{7, 7, 1, 1, 0, 0, false};
  EXPECT_THROW(pool_output_shape(Shape{1, 8, 3, 3}, a), ContractError);
}

TEST(ShapeInfer, ConcatSumsAxisChecksRest) {
  const auto out = concat_output_shape(
      {Shape{1, 64, 55, 55}, Shape{1, 64, 55, 55}}, 1);
  EXPECT_EQ(out, (Shape{1, 128, 55, 55}));
  EXPECT_THROW(
      concat_output_shape({Shape{1, 64, 55, 55}, Shape{1, 64, 54, 55}}, 1),
      ContractError);
}

TEST(ShapeInfer, Flatten) {
  EXPECT_EQ(flatten_output_shape(Shape{1, 256, 6, 6}), (Shape{1, 9216}));
}

TEST(GraphBuilder, ChainStructureAndExpansion) {
  GraphBuilder b("tiny");
  auto x = b.input({1, 3, 8, 8});
  x = b.conv2d(x, 4, 3, 1, 1, true, "c1");  // Conv + BiasAdd
  x = b.relu(x);
  x = b.flatten(x);
  x = b.fc(x, 10, true, "fc");  // MatMul + BiasAdd
  Graph g = b.build(x);

  // Backbone: Input, Conv, BiasAdd, ReLU, Flatten, MatMul, BiasAdd = 7.
  EXPECT_EQ(g.backbone().size(), 7u);
  EXPECT_EQ(g.n(), 6u);
  EXPECT_EQ(g.node(g.backbone()[0]).op, OpType::kInput);
  EXPECT_EQ(g.node(g.backbone()[1]).op, OpType::kConv);
  EXPECT_EQ(g.node(g.backbone()[2]).op, OpType::kBiasAdd);
  // Parameters: conv weight+bias, fc weight+bias.
  EXPECT_EQ(g.parameters().size(), 4u);
  EXPECT_EQ(g.output_desc().shape, (Shape{1, 10}));
}

TEST(GraphBuilder, ParameterBytesCounted) {
  GraphBuilder b("pb");
  auto x = b.input({1, 3, 8, 8});
  x = b.conv2d(x, 4, 3, 1, 1, true, "c1");
  Graph g = b.build(x);
  // weight 4*3*3*3 = 108 elems, bias 4 -> 112 * 4 bytes.
  EXPECT_EQ(g.parameter_bytes(), 112 * 4);
}

TEST(GraphBuilder, SecondInputRejected) {
  GraphBuilder b("two-inputs");
  b.input({1, 3, 8, 8});
  EXPECT_THROW(b.input({1, 3, 8, 8}), ContractError);
}

TEST(GraphBuilder, AddRequiresMatchingShapes) {
  GraphBuilder b("mismatch");
  auto x = b.input({1, 4, 8, 8});
  auto y1 = b.conv2d(x, 4, 3, 1, 1);
  auto y2 = b.conv2d(x, 8, 3, 1, 1);
  EXPECT_THROW(b.add(y1, y2), ContractError);
}

TEST(Graph, ValidateRejectsDeadNodes) {
  GraphBuilder b("dead");
  auto x = b.input({1, 3, 8, 8});
  auto used = b.relu(x);
  b.sigmoid(x);  // dead branch, never consumed
  EXPECT_THROW(b.build(used), ContractError);
}

Graph diamond() {
  // Input -> Conv a -> {branch1: ReLU, branch2: Sigmoid} -> Add -> ReLU.
  GraphBuilder b("diamond");
  auto x = b.input({1, 2, 4, 4});
  auto a = b.conv2d(x, 2, 3, 1, 1, false, "a");
  auto r = b.relu(a, "r");
  auto s = b.sigmoid(a, "s");
  auto sum = b.add(r, s, "sum");
  return b.build(b.relu(sum, "out"));
}

TEST(CutSizes, ChainMatchesNodeOutputs) {
  GraphBuilder b("chain");
  auto x = b.input({1, 2, 4, 4});       // 32 elems = 128 B
  auto c = b.conv2d(x, 4, 3, 1, 1, false, "c");  // 64 elems = 256 B
  auto r = b.relu(c);
  Graph g = b.build(r);
  const auto s = graph::cut_sizes(g);
  ASSERT_EQ(s.size(), g.n() + 1);
  EXPECT_EQ(s[0], 128);  // input tensor
  EXPECT_EQ(s[1], 256);  // conv output
  EXPECT_EQ(s[2], 256);  // s_n = output size by convention
}

TEST(CutSizes, DiamondCountsBothBranches) {
  Graph g = diamond();
  const auto s = cut_sizes(g);
  // Positions: 0 Input, 1 Conv, 2 ReLU(r), 3 Sigmoid(s), 4 Add, 5 ReLU out.
  const std::int64_t t = 1 * 2 * 4 * 4 * 4;  // 128 bytes per tensor
  EXPECT_EQ(s[0], t);
  EXPECT_EQ(s[1], t);          // conv output feeds both branches (1 tensor)
  EXPECT_EQ(s[2], 2 * t);      // inside the block: r output + conv output
  EXPECT_EQ(s[3], 2 * t);      // r + s outputs
  EXPECT_EQ(s[4], t);
  EXPECT_EQ(s[5], t);
  // Consistency with the direct per-cut computation.
  for (std::size_t p = 0; p <= g.n(); ++p)
    EXPECT_EQ(s[p], cut_size_at(g, p)) << "p=" << p;
}

TEST(CutSizes, BlockInteriorDetection) {
  Graph g = diamond();
  EXPECT_FALSE(cut_inside_block(g, 0));
  EXPECT_FALSE(cut_inside_block(g, 1));
  EXPECT_TRUE(cut_inside_block(g, 2));
  EXPECT_TRUE(cut_inside_block(g, 3));
  EXPECT_FALSE(cut_inside_block(g, 4));
  EXPECT_FALSE(cut_inside_block(g, 5));
}

TEST(GraphBuilder, RectangularConvShapes) {
  GraphBuilder b("rect");
  auto x = b.input({1, 8, 17, 17});
  // Inception-style 1x7 with pad (0,3): spatial extent preserved.
  auto y = b.conv2d_rect(x, 16, 1, 7, 1, 0, 3, false, "c17");
  EXPECT_EQ(b.desc(y).shape, (Shape{1, 16, 17, 17}));
  // Then 7x1 with pad (3,0).
  auto z = b.conv2d_rect(y, 16, 7, 1, 1, 3, 0, false, "c71");
  EXPECT_EQ(b.desc(z).shape, (Shape{1, 16, 17, 17}));
  Graph g = b.build(z);
  const auto& attrs =
      std::get<ConvAttrs>(g.node(g.backbone()[1]).attrs);
  EXPECT_EQ(attrs.kernel_h, 1);
  EXPECT_EQ(attrs.kernel_w, 7);
}

TEST(GraphBuilder, GlobalAvgPoolCoversSpatialExtent) {
  GraphBuilder b("gap");
  auto x = b.input({1, 32, 13, 13});
  auto y = b.global_avgpool(x);
  EXPECT_EQ(b.desc(y).shape, (Shape{1, 32, 1, 1}));
}

TEST(GraphBuilder, BatchNormAddsFourParameters) {
  GraphBuilder b("bn");
  auto x = b.input({1, 8, 4, 4});
  auto y = b.batchnorm(x, "norm");
  Graph g = b.build(b.relu(y));
  EXPECT_EQ(g.parameters().size(), 4u);
  for (graph::NodeId id : g.parameters())
    EXPECT_EQ(g.node(id).output.shape, (Shape{8}));
}

TEST(Graph, ConsumersTrackFanOut) {
  Graph g = diamond();
  // The conv (position 1) feeds both branches.
  const auto conv = g.backbone()[1];
  EXPECT_EQ(g.consumers()[static_cast<std::size_t>(conv)].size(), 2u);
  // The output node has no consumers.
  EXPECT_TRUE(g.consumers()[static_cast<std::size_t>(g.output_id())]
                  .empty());
}

TEST(Dot, ExportMentionsNodesAndEdges) {
  Graph g = diamond();
  const auto dot = to_dot(g, true, 1);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("sum"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("filled"), std::string::npos);
}

}  // namespace
}  // namespace lp::graph

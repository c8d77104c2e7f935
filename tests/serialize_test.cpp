#include "common/check.h"
#include <gtest/gtest.h>

#include <cstdio>

#include "exec/interpreter.h"
#include "graph/cut.h"
#include "graph/serialize.h"
#include "models/zoo.h"
#include "partition/partitioner.h"
#include "support/random_graph.h"

namespace lp::graph {
namespace {

void expect_equivalent(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.backbone().size(), b.backbone().size());
  ASSERT_EQ(a.parameters().size(), b.parameters().size());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.input_id(), b.input_id());
  EXPECT_EQ(a.output_id(), b.output_id());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const auto& na = a.node(static_cast<NodeId>(i));
    const auto& nb = b.node(static_cast<NodeId>(i));
    EXPECT_EQ(na.kind, nb.kind) << i;
    EXPECT_EQ(na.op, nb.op) << i;
    EXPECT_EQ(na.name, nb.name) << i;
    EXPECT_EQ(na.inputs, nb.inputs) << i;
    EXPECT_EQ(na.output, nb.output) << i;
    EXPECT_EQ(na.boundary, nb.boundary) << i;
  }
  EXPECT_EQ(cut_sizes(a), cut_sizes(b));
}

TEST(Serialize, RoundTripsEveryZooModel) {
  for (const auto& name : models::zoo_names()) {
    SCOPED_TRACE(name);
    const auto g = models::make_model(name);
    const auto restored = deserialize(serialize(g));
    expect_equivalent(g, restored);
  }
}

TEST(Serialize, RoundTripsRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    const auto g = test::random_graph(seed);
    expect_equivalent(g, deserialize(serialize(g)));
  }
}

TEST(Serialize, RoundTripsPartitionSegments) {
  // Segment graphs carry boundary Parameters and MakeTuple/Return nodes —
  // the format must preserve them (this is how the server side would load
  // a shipped partition).
  const auto g = models::squeezenet();
  const auto plan = partition::partition_at(g, g.n() / 2);
  ASSERT_TRUE(plan.server_part.has_value());
  const auto restored = deserialize(serialize(*plan.server_part));
  expect_equivalent(*plan.server_part, restored);
}

TEST(Serialize, RestoredGraphExecutesIdentically) {
  const auto g = test::random_graph(5);
  const auto restored = deserialize(serialize(g));
  const auto input = exec::random_tensor(g.input_desc().shape, 7);
  const auto& input_name = g.node(g.input_id()).name;
  const auto a = exec::Interpreter(g).run({{input_name, input}});
  const auto b = exec::Interpreter(restored).run({{input_name, input}});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(exec::Tensor::max_abs_diff(a[i], b[i]), 0.0);
}

TEST(Serialize, FileRoundTrip) {
  const auto g = models::alexnet();
  const std::string path = ::testing::TempDir() + "/alexnet.lpg";
  save_graph(g, path);
  expect_equivalent(g, load_graph(path));
  std::remove(path.c_str());
}

TEST(Serialize, MalformedInputsThrow) {
  EXPECT_THROW(deserialize(""), ContractError);
  EXPECT_THROW(deserialize("not-a-graph x\n"), ContractError);
  EXPECT_THROW(deserialize("graph g\nbogus record\n"), ContractError);
  // Missing output marker.
  EXPECT_THROW(deserialize("graph g\ncnode Input in f32 2 1 3 0\n"),
               ContractError);
  // Truncated shape.
  EXPECT_THROW(deserialize("graph g\ncnode Input in f32 4 1 3\noutput 0\n"),
               ContractError);
  // Unknown operator.
  EXPECT_THROW(
      deserialize("graph g\ncnode Warp in f32 2 1 3 0\noutput 0\n"),
      ContractError);
}

TEST(Serialize, RejectsShapesWhoseBytesOverflow) {
  // A model file may declare any positive dims; one whose byte size does
  // not fit in int64 is a typed error at load, not signed overflow later.
  const std::string text = serialize(models::alexnet());
  const std::string input = " f32 4 1 3 224 224";
  const auto at = text.find(input);
  ASSERT_NE(at, std::string::npos);
  std::string huge = text;
  huge.replace(at, input.size(), " f32 2 4294967296 4294967296");
  EXPECT_THROW(deserialize(huge), ContractError);
}

TEST(Serialize, RejectsDtypesOtherThanF32) {
  // Every tensor is f32: a file written today carries only that token and
  // reads back, and any other dtype token is a typed error.
  GraphBuilder b("tiny");
  const Graph g = b.build(b.relu(b.input({1, 3})));
  const std::string text = serialize(g);
  ASSERT_NE(text.find(" f32 "), std::string::npos);
  expect_equivalent(g, deserialize(text));
  for (const char* token : {" f16 ", " i8 "}) {
    std::string other = text;
    other.replace(other.find(" f32 "), 5, token);
    EXPECT_THROW(deserialize(other), ContractError) << token;
  }
}

TEST(Serialize, RejectsWhitespaceInNames) {
  GraphBuilder b("bad name");
  auto x = b.input({1, 2});
  const auto g = b.build(b.relu(x));
  EXPECT_THROW(serialize(g), ContractError);
}

TEST(Serialize, OpNameRoundTrip) {
  for (OpType op :
       {OpType::kInput, OpType::kConv, OpType::kDWConv, OpType::kMatMul,
        OpType::kMaxPool, OpType::kAvgPool, OpType::kBiasAdd, OpType::kAdd,
        OpType::kBatchNorm, OpType::kRelu, OpType::kSigmoid, OpType::kTanh,
        OpType::kSoftmax, OpType::kConcat, OpType::kFlatten,
        OpType::kMakeTuple, OpType::kReturn}) {
    EXPECT_EQ(op_from_name(op_name(op)), op);
  }
  EXPECT_THROW(op_from_name("NotAnOp"), ContractError);
}

}  // namespace
}  // namespace lp::graph

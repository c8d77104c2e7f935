#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "exec/interpreter.h"
#include "graph/cut.h"
#include "models/zoo.h"
#include "partition/cache.h"
#include "partition/partitioner.h"

namespace lp::partition {
namespace {

using exec::Interpreter;
using exec::Tensor;
using exec::TensorMap;

/// Runs the device segment of cut p, ships its outputs by name, runs the
/// server segment, and checks the result equals whole-graph execution
/// (`whole`, on the same input) bit for bit, as DESIGN §10 promises.
void check_cut(const graph::Graph& g, std::size_t p, const Tensor& input,
               const std::vector<Tensor>& whole) {
  SCOPED_TRACE("p=" + std::to_string(p));
  const auto plan = partition_at(g, p);
  EXPECT_EQ(plan.p, p);

  std::vector<Tensor> final_out;
  if (!plan.server_part.has_value()) {
    // Local inference.
    ASSERT_TRUE(plan.device_part.has_value());
    final_out = Interpreter(*plan.device_part)
                    .run({{g.node(g.input_id()).name, input}});
  } else {
    TensorMap boundary_bind;
    if (plan.device_part.has_value()) {
      Interpreter device(*plan.device_part);
      const auto produced =
          device.run({{g.node(g.input_id()).name, input}});
      const auto names = device.output_names();
      ASSERT_EQ(produced.size(), names.size());
      ASSERT_EQ(names, plan.boundary);
      std::int64_t shipped = 0;
      for (std::size_t i = 0; i < names.size(); ++i) {
        shipped += produced[i].elements() * 4;
        boundary_bind.emplace(names[i], produced[i]);
      }
      EXPECT_EQ(shipped, plan.boundary_bytes);
    } else {
      // p = 0: the raw input crosses the link.
      boundary_bind.emplace(g.node(g.input_id()).name, input);
      EXPECT_EQ(plan.boundary_bytes, g.input_desc().bytes());
    }
    final_out = Interpreter(*plan.server_part).run(boundary_bind);
  }

  ASSERT_EQ(final_out.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i)
    EXPECT_EQ(Tensor::max_abs_diff(final_out[i], whole[i]), 0.0);
}

/// check_cut at each of `cuts`, all against one whole-graph run.
void check_partition_equivalence(const graph::Graph& g,
                                 std::initializer_list<std::size_t> cuts,
                                 std::uint64_t seed) {
  const auto input = exec::random_tensor(g.input_desc().shape, seed);
  const auto whole = Interpreter(g).run(
      {{g.node(g.input_id()).name, input}});
  for (std::size_t p : cuts) check_cut(g, p, input, whole);
}

graph::Graph tiny_dag() {
  graph::GraphBuilder b("tinydag");
  auto x = b.input({1, 2, 6, 6});
  auto c1 = b.conv2d(x, 4, 3, 1, 1, true, "c1");
  auto r1 = b.relu(c1, "r1");
  auto left = b.conv2d(r1, 4, 3, 1, 1, true, "left");
  auto right = b.conv2d(r1, 4, 3, 1, 1, true, "right");
  auto sum = b.add(b.relu(left, "lr"), b.relu(right, "rr"), "sum");
  auto pooled = b.maxpool(sum, 2, 2, 0, false, "pool");
  auto flat = b.flatten(pooled, "flat");
  return b.build(b.fc(flat, 5, true, "head"));
}

TEST(Partitioner, EveryCutOfTinyDagIsEquivalent) {
  const auto g = tiny_dag();
  for (std::size_t p = 0; p <= g.n(); ++p)
    check_partition_equivalence(g, {p}, 1000 + p);
}

TEST(Partitioner, AlexNetSelectedCuts) {
  const auto g = models::alexnet();
  check_partition_equivalence(g,
                              {std::size_t{0}, std::size_t{4}, std::size_t{8},
                               std::size_t{19}, g.n() - 1, g.n()},
                              7);
}

TEST(Partitioner, SqueezeNetCutsIncludingBlockInterior) {
  const auto g = models::squeezenet();
  // One boundary cut, one block-interior cut (multiple boundary tensors),
  // full offload and local.
  std::size_t interior = 0;
  for (std::size_t p = 1; p < g.n(); ++p)
    if (graph::cut_inside_block(g, p)) {
      interior = p;
      break;
    }
  ASSERT_GT(interior, 0u);
  check_partition_equivalence(g, {std::size_t{0}, interior, g.n()}, 99);
}

TEST(Partitioner, InteriorCutShipsMultipleTensors) {
  const auto g = models::squeezenet();
  std::size_t interior = 0;
  for (std::size_t p = 1; p < g.n(); ++p)
    if (graph::cut_inside_block(g, p)) {
      interior = p;
      break;
    }
  const auto plan = partition_at(g, interior);
  EXPECT_GT(plan.boundary.size(), 1u);
  EXPECT_EQ(plan.boundary_bytes, graph::cut_size_at(g, interior));
}

TEST(Partitioner, BoundaryBytesMatchCutSizes) {
  const auto g = models::resnet18();
  const auto s = graph::cut_sizes(g);
  for (std::size_t p : {std::size_t{0}, std::size_t{5}, g.n() / 2}) {
    const auto plan = partition_at(g, p);
    EXPECT_EQ(plan.boundary_bytes, s[p]) << "p=" << p;
  }
}

TEST(Partitioner, OutOfRangeThrows) {
  const auto g = tiny_dag();
  EXPECT_THROW(partition_at(g, g.n() + 1), ContractError);
}

TEST(Partitioner, SegmentGraphsValidate) {
  const auto g = models::resnet18();
  const auto plan = partition_at(g, g.n() / 3);
  ASSERT_TRUE(plan.device_part.has_value());
  ASSERT_TRUE(plan.server_part.has_value());
  plan.device_part->validate();
  plan.server_part->validate();
  // The server segment has no Input node; boundaries are Parameters.
  EXPECT_EQ(plan.server_part->input_id(), graph::kInvalidNode);
}

PlanPtr shared_plan(const graph::Graph& g, std::size_t p) {
  return std::make_shared<const PartitionPlan>(partition_at(g, p));
}

TEST(Cache, HitMissEvictionAccounting) {
  const auto g = tiny_dag();
  PartitionCache cache(2);
  EXPECT_EQ(cache.find(1), nullptr);  // miss
  cache.insert(shared_plan(g, 1));
  cache.insert(shared_plan(g, 2));
  EXPECT_NE(cache.find(1), nullptr);  // hit, refreshes 1
  cache.insert(shared_plan(g, 3));  // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NEAR(cache.hit_rate(), 0.5, 1e-12);
}

TEST(Cache, ReinsertReplacesInPlace) {
  const auto g = tiny_dag();
  PartitionCache cache(2);
  cache.insert(shared_plan(g, 1));
  const PlanPtr again = shared_plan(g, 1);
  cache.insert(again);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.peek(1), again.get());
}

TEST(Cache, RejectsZeroCapacity) {
  EXPECT_THROW(PartitionCache(0), ContractError);
}

TEST(Cache, RejectsNullPlan) {
  PartitionCache cache(2);
  EXPECT_THROW(cache.insert(nullptr), ContractError);
}

TEST(Cache, ClearResetsEntriesKeepsStats) {
  const auto g = tiny_dag();
  PartitionCache cache(4);
  cache.insert(shared_plan(g, 0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(0), nullptr);
}

}  // namespace
}  // namespace lp::partition

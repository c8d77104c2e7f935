// Execution-engine throughput: every evaluation model end-to-end and at its
// LoADPart-chosen cut (best latency_breakdown point at 8 Mbps, the Fig. 1
// setup), reference vs optimized kernels at 1/2/4/8 threads. Reports
// ms/inference, peak resident tensor bytes (liveness), speedups and the
// vector path the optimized kernels took, and checks the optimized output is
// bit-identical before trusting any timing. Each optimized thread count,
// and both columns of the standalone-layer table (AlexNet's conv layers
// and fc6, SqueezeNet's conv1, max pool and one fire module), is the
// median of kTimedRuns runs of one warmed interpreter, so those columns
// compare like with like. The whole-model reference column is warm too,
// but a single timed run after one untimed run: the six models' reference
// runs take 2 to 2.5 min per pass on a 4-vCPU AVX-512 Xeon. Writes the
// machine-readable summary to BENCH_exec.json (or argv[1]); exits 1 if that
// write fails or any output differs from the reference.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "core/baselines.h"
#include "exec/interpreter.h"
#include "exec/kernels.h"
#include "graph/graph.h"
#include "models/zoo.h"
#include "partition/partitioner.h"

namespace {

using lp::Table;
using lp::exec::ExecMode;
using lp::exec::Interpreter;
using lp::exec::Options;
using lp::exec::RunStats;
using lp::exec::Tensor;
using lp::exec::TensorMap;

constexpr int kThreads[] = {1, 2, 4, 8};
constexpr int kTimedRuns = 3;

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

struct TimedRun {
  double ms = 0.0;
  std::vector<Tensor> out;
};

/// One interpreter with `options`: an untimed run pays the first-touch
/// page faults, then one timed run.
TimedRun timed_run(const lp::graph::Graph& g, const TensorMap& bind,
                   Options options) {
  const Interpreter interp(g, options);
  interp.run(bind);
  TimedRun r;
  const double t0 = now_ms();
  r.out = interp.run(bind);
  r.ms = now_ms() - t0;
  return r;
}

struct WarmTiming {
  double median_ms = 0.0;
  RunStats stats;
  bool bit_identical = true;
};

/// One interpreter with `options`: an untimed run first pays its thread
/// pool's start-up and first-touch page faults, then the median of
/// kTimedRuns timed runs. Every output is compared with `expected`.
WarmTiming warm_timing(const lp::graph::Graph& g, const TensorMap& bind,
                       Options options, const std::vector<Tensor>& expected) {
  const Interpreter interp(g, options);
  WarmTiming w;
  auto check = [&](const std::vector<Tensor>& out) {
    for (std::size_t i = 0; i < expected.size(); ++i)
      if (Tensor::max_abs_diff(out[i], expected[i]) != 0.0)
        w.bit_identical = false;
  };
  check(interp.run(bind, &w.stats));
  double ms[kTimedRuns];
  for (double& m : ms) {
    const double t0 = now_ms();
    const std::vector<Tensor> out = interp.run(bind);
    m = now_ms() - t0;
    check(out);
  }
  std::sort(std::begin(ms), std::end(ms));
  w.median_ms = ms[kTimedRuns / 2];
  return w;
}

/// Bytes if every node output and parameter stayed resident (no liveness).
std::int64_t all_resident_bytes(const lp::graph::Graph& g) {
  std::int64_t bytes = 0;
  for (const auto& node : g.nodes()) bytes += node.output.bytes();
  return bytes;
}

struct ModelReport {
  std::string name;
  double reference_ms = 0.0;
  double optimized_ms[4] = {0, 0, 0, 0};
  std::int64_t peak_resident_bytes = 0;
  std::int64_t all_bytes = 0;
  std::size_t best_cut = 0;
  double cut_device_ms = 0.0;
  double cut_server_ms = 0.0;
  bool bit_identical = true;
};

ModelReport bench_model(const std::string& name) {
  const auto g = lp::models::make_model(name);
  const auto input = lp::exec::random_tensor(g.input_desc().shape, 2026);
  const TensorMap bind = {{g.node(g.input_id()).name, input}};

  ModelReport rep;
  rep.name = name;
  rep.all_bytes = all_resident_bytes(g);

  const auto ref = timed_run(g, bind, {ExecMode::kReference, 1});
  rep.reference_ms = ref.ms;

  for (int t = 0; t < 4; ++t) {
    const WarmTiming opt =
        warm_timing(g, bind, {ExecMode::kOptimized, kThreads[t]}, ref.out);
    rep.optimized_ms[t] = opt.median_ms;
    if (t == 0) rep.peak_resident_bytes = opt.stats.peak_resident_bytes;
    rep.bit_identical = rep.bit_identical && opt.bit_identical;
  }

  // The LoADPart-chosen cut at the Fig. 1 operating point (idle server,
  // 8 Mbps both ways): run both halves optimized and check the partitioned
  // pipeline stays bit-identical too.
  const lp::hw::CpuModel cpu;
  const lp::hw::GpuModel gpu;
  const auto rows =
      lp::core::latency_breakdown(g, cpu, gpu, lp::mbps(8), lp::mbps(8));
  std::size_t best = 0;
  for (std::size_t p = 0; p < rows.size(); ++p)
    if (rows[p].total_sec < rows[best].total_sec) best = p;
  rep.best_cut = best;

  const auto plan = lp::partition::partition_at(g, best);
  const Options opt1{ExecMode::kOptimized, 1};
  TensorMap boundary;
  std::vector<Tensor> out;
  if (plan.device_part.has_value()) {
    Interpreter device(*plan.device_part, opt1);
    const double t0 = now_ms();
    auto produced = device.run(bind);
    rep.cut_device_ms = now_ms() - t0;
    const auto names = device.output_names();
    for (std::size_t i = 0; i < names.size(); ++i)
      boundary.emplace(names[i], std::move(produced[i]));
  } else {
    boundary = bind;
  }
  if (plan.server_part.has_value()) {
    const double t0 = now_ms();
    out = Interpreter(*plan.server_part, opt1).run(boundary);
    rep.cut_server_ms = now_ms() - t0;
  } else {
    for (auto& [bname, tensor] : boundary) out.push_back(std::move(tensor));
  }
  for (std::size_t i = 0; i < ref.out.size(); ++i)
    if (Tensor::max_abs_diff(out[i], ref.out[i]) != 0.0)
      rep.bit_identical = false;
  return rep;
}

struct LayerReport {
  std::string name;  // model/node
  double reference_ms = 0.0;
  double optimized_ms = 0.0;
  bool bit_identical = true;
};

/// Node `node_name` of `model` as a standalone graph, run as the model
/// runs it: a Conv or MatMul with its bias and ReLU fused, a MaxPool
/// alone. Every parameter is left unbound, so an FC weight is streamed in
/// the optimized run and materialized in the reference. Both kernels are
/// timed warm, and every run is checked bit for bit against one reference
/// run.
LayerReport bench_layer(const std::string& model,
                        const std::string& node_name) {
  const auto g = lp::models::make_model(model);
  const lp::graph::Node* node = nullptr;
  for (const auto& n : g.nodes())
    if (n.name == node_name) node = &n;
  LP_CHECK_MSG(node != nullptr, "no node " + node_name + " in " + model);
  const auto& in_shape = g.node(node->inputs[0]).output.shape;

  lp::graph::GraphBuilder b(model + "/" + node_name);
  auto x = b.input(in_shape);
  lp::graph::NodeId y = x;
  switch (node->op) {
    case lp::graph::OpType::kConv: {
      const auto& a = std::get<lp::graph::ConvAttrs>(node->attrs);
      y = b.relu(b.conv2d_rect(x, a.out_channels, a.kernel_h, a.kernel_w,
                               a.stride_h, a.pad_h, a.pad_w,
                               /*with_bias=*/true, "c"));
      break;
    }
    case lp::graph::OpType::kMatMul: {
      const auto& a = std::get<lp::graph::MatMulAttrs>(node->attrs);
      y = b.relu(b.fc(x, a.out_features, /*with_bias=*/true, "fc"));
      break;
    }
    case lp::graph::OpType::kMaxPool: {
      const auto& a = std::get<lp::graph::PoolAttrs>(node->attrs);
      y = b.maxpool(x, a.kernel_h, a.stride_h, a.pad_h, a.ceil_mode);
      break;
    }
    default:
      LP_CHECK_MSG(false, "no standalone form for " + node_name);
  }
  const auto layer = b.build(y);
  const TensorMap bind = {{"input", lp::exec::random_tensor(in_shape, 77)}};

  const std::vector<Tensor> expected =
      Interpreter(layer, {ExecMode::kReference, 1}).run(bind);
  const WarmTiming ref =
      warm_timing(layer, bind, {ExecMode::kReference, 1}, expected);
  const WarmTiming opt =
      warm_timing(layer, bind, {ExecMode::kOptimized, 1}, expected);
  return {model + "/" + node_name, ref.median_ms, opt.median_ms,
          ref.bit_identical && opt.bit_identical};
}

/// The standalone layers: AlexNet's five conv layers and its first FC
/// layer (the paper's fc6, 9216 x 4096, weight streamed), and SqueezeNet's
/// 7x7/2 conv1, its 3x3/2 max pool and one fire module's three convs.
std::vector<LayerReport> bench_layers() {
  const std::pair<const char*, const char*> layers[] = {
      {"alexnet", "conv1"},          {"alexnet", "conv2"},
      {"alexnet", "conv3"},          {"alexnet", "conv4"},
      {"alexnet", "conv5"},          {"alexnet", "fc1"},
      {"squeezenet", "conv1"},       {"squeezenet", "maxpool1"},
      {"squeezenet", "fire2.squeeze"}, {"squeezenet", "fire2.expand1x1"},
      {"squeezenet", "fire2.expand3x3"}};
  std::vector<LayerReport> reports;
  for (const auto& [model, node] : layers)
    reports.push_back(bench_layer(model, node));
  return reports;
}

/// False if the file cannot be opened or any write to it fails, a full
/// disk included.
bool write_json(const std::string& path,
                const std::vector<ModelReport>& models,
                const std::vector<LayerReport>& layers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"host_cores\": %u,\n  \"isa\": \"%s\",\n",
               std::thread::hardware_concurrency(), lp::exec::kernel_isa());
  std::fprintf(f, "  \"threads\": [1, 2, 4, 8],\n  \"models\": [\n");
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto& m = models[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"reference_ms\": %.3f,\n"
                 "     \"optimized_ms\": [%.3f, %.3f, %.3f, %.3f],\n"
                 "     \"speedup_1t\": %.2f, \"speedup_4t\": %.2f,\n"
                 "     \"peak_resident_bytes\": %lld, "
                 "\"all_resident_bytes\": %lld,\n"
                 "     \"best_cut_p\": %zu, \"cut_device_ms\": %.3f, "
                 "\"cut_server_ms\": %.3f,\n"
                 "     \"bit_identical\": %s}%s\n",
                 m.name.c_str(), m.reference_ms, m.optimized_ms[0],
                 m.optimized_ms[1], m.optimized_ms[2], m.optimized_ms[3],
                 m.reference_ms / m.optimized_ms[0],
                 m.reference_ms / m.optimized_ms[2],
                 static_cast<long long>(m.peak_resident_bytes),
                 static_cast<long long>(m.all_bytes), m.best_cut,
                 m.cut_device_ms, m.cut_server_ms,
                 m.bit_identical ? "true" : "false",
                 i + 1 < models.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"layers\": [\n");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& l = layers[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"reference_ms\": %.3f, "
                 "\"optimized_ms\": %.3f, \"speedup\": %.2f,\n"
                 "     \"bit_identical\": %s}%s\n",
                 l.name.c_str(), l.reference_ms, l.optimized_ms,
                 l.reference_ms / l.optimized_ms,
                 l.bit_identical ? "true" : "false",
                 i + 1 < layers.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_exec.json";

  std::printf(
      "Execution-engine throughput (bit-identity checked), host cores: %u, "
      "kernel ISA: %s\n"
      "(optimized: median of %d warm runs per thread count; reference: one\n"
      " warm run per model, since the six together take minutes; thread\n"
      " scaling is only visible when the host has that many cores)\n\n",
      std::thread::hardware_concurrency(), lp::exec::kernel_isa(),
      kTimedRuns);
  std::vector<ModelReport> models;
  Table table({"model", "reference(ms)", "opt 1t(ms)", "opt 2t", "opt 4t",
               "opt 8t", "speedup 1t", "speedup 4t", "peak MiB",
               "no-liveness MiB", "exact"});
  for (const auto& name : lp::models::evaluation_names()) {
    models.push_back(bench_model(name));
    const auto& m = models.back();
    table.add_row(
        {m.name, Table::num(m.reference_ms), Table::num(m.optimized_ms[0]),
         Table::num(m.optimized_ms[1]), Table::num(m.optimized_ms[2]),
         Table::num(m.optimized_ms[3]),
         Table::num(m.reference_ms / m.optimized_ms[0]),
         Table::num(m.reference_ms / m.optimized_ms[2]),
         Table::num(static_cast<double>(m.peak_resident_bytes) / (1 << 20)),
         Table::num(static_cast<double>(m.all_bytes) / (1 << 20)),
         m.bit_identical ? "yes" : "NO"});
  }
  table.print();

  std::printf(
      "\nLoADPart-chosen cut (idle server, 8 Mbps): optimized halves\n");
  Table cut({"model", "p", "device(ms)", "server(ms)"});
  for (const auto& m : models)
    cut.add_row({m.name, std::to_string(m.best_cut),
                 Table::num(m.cut_device_ms), Table::num(m.cut_server_ms)});
  cut.print();

  std::printf(
      "\nStandalone layers with their fused bias and ReLU (1 thread, median "
      "of %d warm runs per kernel)\n",
      kTimedRuns);
  const auto layers = bench_layers();
  Table layer_table(
      {"layer", "reference(ms)", "optimized(ms)", "speedup", "exact"});
  for (const auto& l : layers)
    layer_table.add_row({l.name, Table::num(l.reference_ms),
                         Table::num(l.optimized_ms),
                         Table::num(l.reference_ms / l.optimized_ms),
                         l.bit_identical ? "yes" : "NO"});
  layer_table.print();

  if (!write_json(out_path, models, layers)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::printf("\n[summary written to %s]\n", out_path.c_str());

  bool all_exact = true;
  for (const auto& m : models) all_exact = all_exact && m.bit_identical;
  for (const auto& l : layers) all_exact = all_exact && l.bit_identical;
  return all_exact ? 0 : 1;
}

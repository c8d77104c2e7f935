// Graph interpreter: executes a computation graph with real float math.
//
// Role in the system: the DL-framework runtime that actually runs each
// partition. Tests use it to verify that executing the device segment, then
// feeding the boundary tensors into the server segment, reproduces the
// whole-graph output exactly (the partitioner's core contract, Fig. 5).
//
// Two kernel families share one execution driver:
//   * kReference — naive per-element loops, the bit-exact oracle;
//   * kOptimized — im2col/GEMM convolution, row-order matmul, fused
//     elementwise epilogues (driven by graph::fusion groups) and a thread
//     pool. Optimized output is bit-identical to the reference because
//     every output element keeps the reference's accumulation order (see
//     exec/kernels.h).
// The driver runs a liveness pass either way: each tensor is released once
// its last consumer retires, and (in optimized mode) tensors move rather
// than copy through elementwise/Flatten ops.
#pragma once

#include <memory>
#include <unordered_map>

#include "exec/tensor.h"
#include "graph/fusion.h"
#include "graph/graph.h"
#include "obs/telemetry.h"

namespace lp::exec {

class ThreadPool;

/// Named tensors passed into (and returned from) a graph execution.
using TensorMap = std::unordered_map<std::string, Tensor>;

/// Which kernel family run() uses.
enum class ExecMode {
  kReference,  ///< naive per-element loops; the bit-exact oracle
  kOptimized,  ///< parallel cache-blocked kernels; bit-identical output
};

struct Options {
  ExecMode mode = ExecMode::kOptimized;
  /// Total compute threads, the calling thread included: 1 = serial,
  /// 0 = std::thread::hardware_concurrency(). Thread count never changes
  /// results.
  int num_threads = 1;
  /// Telemetry sink (null = off). run() then records one span per node
  /// (or per fused group) on an "exec" track plus a resident-bytes counter
  /// series, and mirrors RunStats into exec.* gauges. The interpreter does
  /// real work off the simulated clock, so exec spans live on a synthetic
  /// step clock (one fixed tick per kernel launch, monotonic across run()
  /// calls) — a separate clock domain from the simulation tracks.
  /// Recording never changes results. Must outlive the Interpreter.
  obs::Telemetry* telemetry = nullptr;
};

/// Memory/fusion counters for a single run() call.
struct RunStats {
  std::int64_t peak_resident_bytes = 0;   ///< max live tensor bytes
  std::int64_t final_resident_bytes = 0;  ///< live at return (the outputs)
  std::int64_t released_bytes = 0;        ///< freed early by liveness
  std::int64_t moved_tensors = 0;         ///< buffers passed through, no copy
  std::int64_t fused_groups = 0;          ///< multi-node kernel launches
};

class Interpreter {
 public:
  /// The graph must stay alive for the interpreter's lifetime.
  explicit Interpreter(const graph::Graph& g) : Interpreter(g, Options{}) {}
  Interpreter(const graph::Graph& g, Options options);
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Runs the graph. `bindings` provides the Input node's tensor (by node
  /// name) and overrides for any Parameter (by parameter name) — this is how
  /// partition-boundary tensors enter a server segment. Unbound Parameters
  /// take deterministic_param(name) values; in optimized mode an unbound
  /// MatMul weight is streamed into the kernel and never resident.
  ///
  /// Returns one tensor per graph output: the output node's tensor, or, when
  /// the output is a Return over a MakeTuple, each tuple element in order.
  /// `stats`, when non-null, receives this run's memory/fusion counters.
  /// Not thread-safe: concurrent run() calls need separate Interpreters.
  std::vector<Tensor> run(const TensorMap& bindings,
                          RunStats* stats = nullptr) const;

  /// Names of the boundary tensors run() returns, in order (the MakeTuple
  /// operands' names, or the single output node's name).
  std::vector<std::string> output_names() const;

  const Options& options() const { return options_; }

 private:
  const graph::Graph* graph_;
  Options options_;
  std::vector<graph::FusionGroup> groups_;  // optimized-mode schedule
  std::unique_ptr<ThreadPool> pool_;        // optimized mode only
  /// Synthetic exec-trace clock (see Options::telemetry); advances one
  /// tick per kernel launch, monotonic across run() calls.
  mutable TimeNs exec_clock_ = 0;
};

}  // namespace lp::exec

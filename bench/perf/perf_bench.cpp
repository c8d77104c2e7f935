// perf_bench: wall-clock benchmark of one named workload per process.
//
//   perf_bench --workload W --seed S [--seconds T] [--trace FILE] [--smoke]
//              [--json FILE]
//
// Workloads (bench/perf/README.md says why each was chosen):
//   exec-alexnet, exec-squeezenet
//       The model cut at its LoADPart point: the argmin of
//       core::latency_breakdown with an idle server and 8 Mbps each way.
//       One operation is one inference: the prefix Interpreter, then the
//       suffix Interpreter on the boundary tensors (optimized kernels, one
//       thread, input drawn from the seed).
//   fleet-mix      One operation is one serve::run_fleet call: AlexNet,
//                  SqueezeNet and ResNet18 tenants on one frontend.
//   cluster-swarm  One operation is one cluster::run_cluster call: 4,096
//                  AlexNet clients over 8 servers behind the router.
//
// An untraced run reports the end-to-end metrics: set-up time (median of
// several complete set-ups), the median wall time of one operation over at
// least --seconds of operations, and peak RSS. A traced run (--trace FILE)
// alternates untraced and traced operations for --seconds, reports the
// per-layer metrics, and writes the bench-side spans as a wall-clock Chrome
// trace to FILE. Everything is timed from outside, around calls into the
// library's public functions; the traced simulation runs use bench-owned
// copies of the run_fleet/run_cluster wiring with a timing decorator in
// front of every frontend, and must reproduce the library's record stream
// exactly.
//
// Correctness gates (any failure makes the exit code 1):
//   exec  prefix then suffix equals the whole-model output bit for bit, and
//         every timed output has the same FNV-1a digest;
//   sim   every repetition has the same record digest, every frontend's
//         request counters balance, and (traced) the bench-owned driver's
//         digest equals the library's and check::audit passes.
//
// The last line of standard output is one JSON object: host metadata, the
// gates, attempted/failed counts and every metric with its unit and sample
// count. --json FILE writes the same object to FILE.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "check/invariants.h"
#include "cluster/fleet.h"
#include "common/check.h"
#include "core/algorithm.h"
#include "core/baselines.h"
#include "core/predictor.h"
#include "exec/interpreter.h"
#include "models/zoo.h"
#include "partition/partitioner.h"
#include "serve/fleet.h"

#ifndef LP_BUILD_TYPE
#define LP_BUILD_TYPE "unknown"
#endif
#ifndef LP_CXX_FLAGS
#define LP_CXX_FLAGS "unknown"
#endif
#ifndef LP_COMPILER
#define LP_COMPILER "unknown"
#endif
#ifndef LP_GIT_COMMIT
#define LP_GIT_COMMIT "unknown"
#endif

namespace {

using namespace lp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

double share_pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// FNV-1a over the bytes of scalar fields, added one at a time (never over
/// whole structs, whose padding bytes are unspecified).
class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    add_bytes(bytes, sizeof(T));
  }
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const std::vector<exec::Tensor>& tensors) {
  Fnv h;
  for (const exec::Tensor& t : tensors) {
    for (std::size_t d = 0; d < t.shape().rank(); ++d) h.add(t.shape().dim(d));
    h.add_bytes(t.data(), static_cast<std::size_t>(t.bytes()));
  }
  return h.value();
}

std::uint64_t digest(const std::vector<serve::ClientTrace>& clients) {
  Fnv h;
  for (const serve::ClientTrace& trace : clients) {
    h.add(trace.tenant);
    h.add(trace.records.size());
    for (const core::InferenceRecord& r : trace.records) {
      h.add(r.start);
      h.add(r.p);
      h.add(r.total_sec);
      h.add(r.device_sec);
      h.add(r.upload_sec);
      h.add(r.server_sec);
      h.add(r.download_sec);
      h.add(r.overhead_sec);
      h.add(r.weight_upload_sec);
      h.add(r.upload_bytes);
      h.add(r.download_bytes);
      h.add(r.k_used);
      h.add(r.bandwidth_est_bps);
      h.add(r.predicted_sec);
      h.add(r.outcome);
      h.add(r.queue_wait_sec);
      h.add(r.last_failure);
      h.add(r.retries);
      h.add(r.faults);
      h.add(r.breaker_forced_local);
    }
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

// ---------------------------------------------------------------------------
// Report: metrics, gates and the result JSON.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< non-empty = traced run
  bool smoke = false;
  std::string json_path;
  bool traced() const { return !trace_path.empty(); }
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1) {
    metrics_.push_back({name, value, unit, samples});
  }
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates_.push_back({name, ok, detail});
  }
  bool ok() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const Gate& g) { return g.ok; });
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::string> info;  ///< workload facts (cut, reps)

  void print_table(const Options& opts) const {
    std::printf("%s (seed %llu, %s)\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.traced() ? "traced" : "untraced");
    for (const auto& [key, value] : info)
      std::printf("  %-24s %s\n", key.c_str(), value.c_str());
    for (const Metric& m : metrics_)
      std::printf("  %-28s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    for (const Gate& g : gates_)
      std::printf("  gate %-32s %s %s\n", g.name.c_str(),
                  g.ok ? "ok" : "FAILED", g.detail.c_str());
  }

  std::string json(const Options& opts) const {
    std::string s = "{\"workload\": \"" + json_escape(opts.workload) + "\"";
    s += ", \"seed\": " + std::to_string(opts.seed);
    s += ", \"seconds\": " + num(opts.seconds);
    s += std::string(", \"trace\": ") + (opts.traced() ? "true" : "false");
    s += std::string(", \"smoke\": ") + (opts.smoke ? "true" : "false");
    s += ", \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
    s += ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
    s += ", \"compiler\": \"" + json_escape(LP_COMPILER) + "\"";
    s += ", \"build_type\": \"" + json_escape(LP_BUILD_TYPE) + "\"";
    s += ", \"cxx_flags\": \"" + json_escape(LP_CXX_FLAGS) + "\"";
    s += ", \"git_commit\": \"" + json_escape(LP_GIT_COMMIT) + "\"}";
    s += ", \"info\": {";
    bool first = true;
    for (const auto& [key, value] : info) {
      s += std::string(first ? "" : ", ") + "\"" + json_escape(key) +
           "\": \"" + json_escape(value) + "\"";
      first = false;
    }
    s += "}, \"correct\": ";
    s += ok() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"gates\": [";
    for (std::size_t i = 0; i < gates_.size(); ++i)
      s += std::string(i ? ", " : "") + "{\"name\": \"" +
           json_escape(gates_[i].name) + "\", \"ok\": " +
           (gates_[i].ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(gates_[i].detail) + "\"}";
    s += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      s += std::string(i ? ", " : "") + "\"" + json_escape(metrics_[i].name) +
           "\": {\"value\": " + num(metrics_[i].value) + ", \"unit\": \"" +
           json_escape(metrics_[i].unit) +
           "\", \"samples\": " + std::to_string(metrics_[i].samples) + "}";
    s += "}}";
    return s;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  static std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  std::vector<Metric> metrics_;
  std::vector<Gate> gates_;
};

// ---------------------------------------------------------------------------
// Bench-side spans, kept in memory and written once as a Chrome trace.

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; -1 when tracing is off.
  int begin(const std::string& name, int op = -1) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, op, micros(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].dur_us =
        micros() - spans_[static_cast<std::size_t>(id)].start_us;
    open_.pop_back();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string parent =
          s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": \"%s\", \"op\": %d}}"
                   "%s\n",
                   json_escape(s.name).c_str(), s.start_us, s.dur_us, i,
                   json_escape(parent).c_str(), s.op,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int op;  ///< operation index the span belongs to (-1 = none)
    double start_us;
    double dur_us;
  };
  double micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int op = -1)
      : log_(log), id_(log.begin(name, op)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workload table.

enum class Kind { kExec, kFleet, kCluster };

struct Workload {
  const char* name;
  Kind kind;
  const char* model;  ///< exec workloads only
  /// Complete set-ups behind the setup_s median. The first precedes the
  /// timed operations; the rest run one after each operation, so that the
  /// median spans the run: on a shared host the machine slows for tens of
  /// milliseconds at a time, enough to move the median of set-ups run back
  /// to back.
  int setup_reps;
};

constexpr Workload kWorkloads[] = {
    {"exec-alexnet", Kind::kExec, "alexnet", 3},
    {"exec-squeezenet", Kind::kExec, "squeezenet", 5},
    {"fleet-mix", Kind::kFleet, "", 15},
    {"cluster-swarm", Kind::kCluster, "", 5},
};

/// Timed operations run until they have taken --seconds, and at least this
/// many (so a slow host still yields a median).
constexpr int kMinOps = 3;

/// Repetitions behind each traced exec layer probe (a median).
constexpr int kProbeReps = 3;

/// Names and units of every per-layer metric. Each traced run reports all
/// of them; a layer the workload never enters reads 0 (shares and counts
/// only — every time-valued metric is measured on every workload).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"trace.op_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"profile.train_ms", "ms"},
    {"core.decide_ns", "ns"},
    {"partition.plan_ms", "ms"},
    {"exec.prefix_pct", "%"},
    {"exec.suffix_pct", "%"},
    {"exec.param_synth_pct", "%"},
    {"exec.kernel_pct", "%"},
    {"exec.conv_pct", "%"},
    {"exec.matmul_pct", "%"},
    {"exec.peak_resident_mb", "MiB"},
    {"exec.boundary_kb", "KiB"},
    {"sim.events", "count"},
    {"sim.events_per_request", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.setup_pct", "%"},
    {"sim.self_pct", "%"},
    {"serve.submit_calls", "count"},
    {"serve.submit_pct", "%"},
    {"serve.load_signal_calls", "count"},
    {"serve.load_signal_pct", "%"},
    {"serve.open_session_pct", "%"},
    {"serve.admit_ratio", "ratio"},
    {"serve.jobs_per_dispatch", "count"},
    {"req.device_pct", "%"},
    {"req.upload_pct", "%"},
    {"req.server_pct", "%"},
    {"req.download_pct", "%"},
    {"req.overhead_pct", "%"},
    {"req.queue_wait_pct", "%"},
    {"partition.cache_miss_ratio", "ratio"},
    {"cluster.heartbeats", "count"},
    {"cluster.migrations", "count"},
    {"cluster.reroutes", "count"},
};

/// Collects per-layer values, then reports every kLayerMetrics entry in
/// table order (unset ones as 0).
class LayerValues {
 public:
  void set(const std::string& name, double value, std::size_t samples = 1) {
    values_[name] = {value, samples};
  }
  void report(Report& report) const {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = values_.find(m.name);
      if (it == values_.end())
        report.metric(m.name, 0.0, m.unit, 0);
      else
        report.metric(m.name, it->second.first, m.unit, it->second.second);
    }
    for (const auto& [name, value] : values_) {
      const bool known = std::any_of(
          std::begin(kLayerMetrics), std::end(kLayerMetrics),
          [&](const LayerMetric& m) { return name == m.name; });
      LP_CHECK_MSG(known, "unlisted per-layer metric " + name);
    }
  }

 private:
  std::map<std::string, std::pair<double, std::size_t>> values_;
};

/// Runs `op` until its calls have taken `seconds` in total, and at least
/// `min_ops` times, calling `between` after each call outside the budget;
/// returns each call's wall time in seconds.
template <typename Op, typename Between>
std::vector<double> timed_loop(double seconds, int min_ops, Op op,
                               Between between) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < min_ops || total < seconds) {
    const auto t0 = Clock::now();
    op(static_cast<int>(times.size()));
    times.push_back(seconds_since(t0));
    total += times.back();
    between();
  }
  return times;
}

/// Mean wall ns of `call`, repeated until about `budget_sec` has elapsed.
template <typename Call>
double mean_call_ns(double budget_sec, Call call, std::size_t* calls_out) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    calls += call();
    elapsed = seconds_since(t0);
  } while (elapsed < budget_sec);
  if (calls_out != nullptr) *calls_out = calls;
  return calls > 0 ? elapsed * 1e9 / static_cast<double>(calls) : 0.0;
}

/// Keeps replayed results observable so the calls cannot be elided.
volatile std::size_t g_sink = 0;

/// (model cost profile, (k, upload bits/s)): one core::decide input.
using DecideInput =
    std::pair<const core::GraphCostProfile*, std::pair<double, double>>;

/// core::decide replayed over `inputs`, timed per call.
double decide_ns(const std::vector<DecideInput>& inputs, std::size_t* calls) {
  return mean_call_ns(
      0.05,
      [&] {
        std::size_t p_sum = 0;
        for (const auto& [profile, kb] : inputs)
          p_sum += core::decide(*profile, kb.first, kb.second).p;
        g_sink = g_sink + p_sum;
        return inputs.size();
      },
      calls);
}

// ---------------------------------------------------------------------------
// Exec workloads.

struct ExecPipeline {
  graph::Graph model{"unset"};
  std::size_t cut = 0;
  core::BreakdownRow row;
  partition::PartitionPlan plan;
  std::unique_ptr<exec::Interpreter> prefix;
  std::unique_ptr<exec::Interpreter> suffix;
  exec::TensorMap input;
};

struct InferTiming {
  double prefix_sec = 0.0;
  double suffix_sec = 0.0;
  exec::RunStats prefix_stats;
  exec::RunStats suffix_stats;
};

/// Runs the prefix on `prefix_bind`, moves its outputs into `boundary`
/// (which may already hold pre-bound suffix parameters), runs the suffix.
std::vector<exec::Tensor> infer(const ExecPipeline& pipe,
                                const exec::TensorMap& prefix_bind,
                                exec::TensorMap boundary, InferTiming* timing,
                                SpanLog& spans, int op) {
  auto t0 = Clock::now();
  std::vector<exec::Tensor> produced;
  {
    ScopedSpan span(spans, "exec.prefix", op);
    produced = pipe.prefix->run(prefix_bind, &timing->prefix_stats);
  }
  timing->prefix_sec = seconds_since(t0);
  const auto names = pipe.prefix->output_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    boundary.insert_or_assign(names[i], std::move(produced[i]));
  t0 = Clock::now();
  std::vector<exec::Tensor> out;
  {
    ScopedSpan span(spans, "exec.suffix", op);
    out = pipe.suffix->run(boundary, &timing->suffix_stats);
  }
  timing->suffix_sec = seconds_since(t0);
  return out;
}

/// One complete set-up: build the model, pick the LoADPart cut, partition,
/// construct both interpreters, and run one warm-up inference (returned in
/// *warmup for the oracle). The pipeline is heap-held because the
/// interpreters point into its graphs.
std::unique_ptr<ExecPipeline> build_pipeline(const std::string& model,
                                             std::uint64_t seed,
                                             SpanLog& spans,
                                             std::vector<exec::Tensor>* warmup) {
  auto pipe = std::make_unique<ExecPipeline>();
  pipe->model = models::make_model(model);
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  const auto rows =
      core::latency_breakdown(pipe->model, cpu, gpu, mbps(8), mbps(8));
  for (std::size_t p = 0; p < rows.size(); ++p)
    if (rows[p].total_sec < rows[pipe->cut].total_sec) pipe->cut = p;
  pipe->row = rows[pipe->cut];
  pipe->plan = partition::partition_at(pipe->model, pipe->cut);
  LP_CHECK_MSG(pipe->plan.device_part.has_value() &&
                   pipe->plan.server_part.has_value(),
               "the LoADPart cut must leave work on both sides");
  const exec::Options opt{exec::ExecMode::kOptimized, 1};
  pipe->prefix = std::make_unique<exec::Interpreter>(*pipe->plan.device_part, opt);
  pipe->suffix = std::make_unique<exec::Interpreter>(*pipe->plan.server_part, opt);
  const graph::Graph& dev = *pipe->plan.device_part;
  pipe->input.emplace(dev.node(dev.input_id()).name,
                      exec::random_tensor(dev.input_desc().shape, seed));
  InferTiming timing;
  *warmup = infer(*pipe, pipe->input, {}, &timing, spans, -1);
  return pipe;
}

bool bit_identical(const std::vector<exec::Tensor>& a,
                   const std::vector<exec::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape() || a[i].bytes() != b[i].bytes())
      return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].bytes())) != 0)
      return false;
  }
  return true;
}

/// Median wall seconds of `reps` calls of `probe`.
template <typename Probe>
double median_sec(int reps, Probe probe) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    probe();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// The deterministic_param values of every parameter of `g` that the
/// bindings leave unbound, i.e. the weights Interpreter::run synthesizes.
exec::TensorMap synthesize_unbound(const graph::Graph& g,
                                   const std::set<std::string>& bound) {
  exec::TensorMap out;
  for (graph::NodeId id : g.parameters()) {
    const graph::Node& node = g.node(id);
    if (bound.count(node.name) == 0)
      out.emplace(node.name,
                  exec::deterministic_param(node.name, node.output.shape));
  }
  return out;
}

/// Sum over the Conv (or MatMul) nodes of `g` of the median wall seconds of
/// the node run `reps` times as a standalone single-node graph with its
/// weight pre-bound.
double standalone_kernels_sec(const graph::Graph& g, graph::OpType op,
                              std::uint64_t seed, int reps, SpanLog& spans) {
  double total = 0.0;
  const exec::Options opt{exec::ExecMode::kOptimized, 1};
  for (graph::NodeId id : g.backbone()) {
    const graph::Node& node = g.node(id);
    if (node.op != op || !node.is_cnode()) continue;
    const Shape in_shape = g.node(node.inputs[0]).output.shape;
    graph::GraphBuilder b("layer-" + node.name);
    const graph::NodeId x = b.input(in_shape);
    graph::NodeId y = x;
    if (op == graph::OpType::kConv) {
      const auto& a = std::get<graph::ConvAttrs>(node.attrs);
      LP_CHECK(a.stride_h == a.stride_w);
      y = b.conv2d_rect(x, a.out_channels, a.kernel_h, a.kernel_w, a.stride_h,
                        a.pad_h, a.pad_w, /*with_bias=*/false, "k");
    } else {
      const auto& a = std::get<graph::MatMulAttrs>(node.attrs);
      y = b.fc(x, a.out_features, /*with_bias=*/false, "k");
    }
    const graph::Graph layer = b.build(y);
    exec::TensorMap bind = {{"input", exec::random_tensor(in_shape, seed)}};
    for (graph::NodeId pid : layer.parameters())
      bind.emplace(layer.node(pid).name,
                   exec::deterministic_param(layer.node(pid).name,
                                             layer.node(pid).output.shape));
    const exec::Interpreter interp(layer, opt);
    const std::string name =
        (op == graph::OpType::kConv ? "exec.conv:" : "exec.matmul:") +
        node.name;
    total += median_sec(reps, [&] {
      ScopedSpan span(spans, name);
      interp.run(bind);
    });
  }
  return total;
}

void run_exec(const Workload& w, const Options& opts, SpanLog& spans,
              Report& report) {
  const int setup_reps = opts.smoke ? 1 : w.setup_reps;
  const int min_ops = opts.smoke ? 1 : kMinOps;
  const double seconds = opts.smoke ? 0.0 : opts.seconds;

  // The first set-up's pipeline serves the timed operations; later ones are
  // timed and dropped.
  std::vector<double> setup_times;
  auto set_up = [&](std::vector<exec::Tensor>* warmup) {
    const auto t0 = Clock::now();
    ScopedSpan span(spans, "setup");
    auto built = build_pipeline(w.model, opts.seed, spans, warmup);
    setup_times.push_back(seconds_since(t0));
    return built;
  };
  std::vector<exec::Tensor> warmup;
  const auto pipe = set_up(&warmup);
  report.info["cut_p"] = std::to_string(pipe->cut);

  // Oracle (once per process): prefix then suffix must equal the whole
  // model's optimized output bit for bit, in every set-up's warm-up.
  std::vector<exec::Tensor> whole;
  {
    ScopedSpan span(spans, "oracle");
    const exec::Interpreter interp(pipe->model,
                                   {exec::ExecMode::kOptimized, 1});
    whole = interp.run(pipe->input);
  }
  std::size_t warmup_mismatches = bit_identical(warmup, whole) ? 0 : 1;
  const std::uint64_t oracle = digest(whole);
  report.info["output_digest"] = hex(oracle);

  std::uint64_t mismatches = 0;
  std::uint64_t ops = 0;
  auto checked_infer = [&](int op, InferTiming* timing, SpanLog& log) {
    const auto out = infer(*pipe, pipe->input, {}, timing, log, op);
    ++ops;
    if (digest(out) != oracle) ++mismatches;
  };

  if (!opts.traced()) {
    const auto times = timed_loop(
        seconds, min_ops,
        [&](int op) {
          InferTiming timing;
          checked_infer(op, &timing, spans);
        },
        [&] {
          if (static_cast<int>(setup_times.size()) >= setup_reps) return;
          std::vector<exec::Tensor> again;
          set_up(&again);
          if (!bit_identical(again, whole)) ++warmup_mismatches;
        });
    std::vector<double> ms;
    for (double t : times) ms.push_back(t * 1e3);
    report.metric("setup_s", median(setup_times), "s", setup_times.size());
    report.metric("op_ms_p50", median(ms), "ms", ms.size());
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  } else {
    // Alternate untraced and traced inferences; the traced ones carry the
    // spans the layer shares come from.
    std::vector<double> plain_ms, traced_ms;
    double prefix_sec = 0.0, suffix_sec = 0.0;
    std::int64_t peak_bytes = 0;
    SpanLog off(false);
    timed_loop(seconds, min_ops, [&](int op) {
      InferTiming timing;
      auto t0 = Clock::now();
      checked_infer(op, &timing, off);
      plain_ms.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      {
        ScopedSpan span(spans, "op", op);
        checked_infer(op, &timing, spans);
      }
      traced_ms.push_back(seconds_since(t0) * 1e3);
      prefix_sec += timing.prefix_sec;
      suffix_sec += timing.suffix_sec;
      peak_bytes = std::max({peak_bytes, timing.prefix_stats.peak_resident_bytes,
                             timing.suffix_stats.peak_resident_bytes});
    }, [] {});
    const double op_sec = sum(traced_ms) / 1e3;
    const double op_ms = median(traced_ms);
    LayerValues layer;
    layer.set("trace.op_ms", op_ms, traced_ms.size());
    layer.set("trace.overhead_pct",
              100.0 * (op_ms / median(plain_ms) - 1.0), plain_ms.size());
    layer.set("exec.prefix_pct", share_pct(prefix_sec, op_sec),
              traced_ms.size());
    layer.set("exec.suffix_pct", share_pct(suffix_sec, op_sec),
              traced_ms.size());
    layer.set("exec.peak_resident_mb",
              static_cast<double>(peak_bytes) / (1 << 20));
    layer.set("exec.boundary_kb",
              static_cast<double>(pipe->plan.boundary_bytes) / 1024.0);

    // Weight synthesis: every parameter the run leaves unbound.
    const graph::Graph& dev = *pipe->plan.device_part;
    const graph::Graph& srv = *pipe->plan.server_part;
    std::set<std::string> prefix_bound, suffix_bound;
    for (const auto& [name, t] : pipe->input) prefix_bound.insert(name);
    for (const auto& name : pipe->prefix->output_names())
      suffix_bound.insert(name);
    const int reps = opts.smoke ? 1 : kProbeReps;
    exec::TensorMap prefix_params, suffix_params;
    const double synth_sec = median_sec(reps, [&] {
      ScopedSpan span(spans, "exec.param_synth");
      prefix_params = synthesize_unbound(dev, prefix_bound);
      suffix_params = synthesize_unbound(srv, suffix_bound);
    });
    layer.set("exec.param_synth_pct", share_pct(synth_sec, op_ms / 1e3),
              reps);

    // Kernels alone: both halves with every parameter pre-bound. The
    // binding maps are assembled before the clock starts.
    prefix_params.insert(pipe->input.begin(), pipe->input.end());
    std::vector<double> kernel_times;
    std::vector<exec::Tensor> bound_out;
    for (int r = 0; r < reps; ++r) {
      exec::TensorMap suffix_bind = suffix_params;
      InferTiming timing;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(spans, "exec.kernel");
        bound_out = infer(*pipe, prefix_params, std::move(suffix_bind),
                          &timing, spans, -1);
      }
      kernel_times.push_back(seconds_since(t0));
    }
    layer.set("exec.kernel_pct",
              share_pct(median(kernel_times), op_ms / 1e3), reps);
    report.gate("prebound_output_equals_oracle", digest(bound_out) == oracle,
                "parameters bound through bindings");
    prefix_params.clear();
    suffix_params.clear();

    layer.set("exec.conv_pct",
              share_pct(standalone_kernels_sec(pipe->model,
                                               graph::OpType::kConv, opts.seed,
                                               reps, spans),
                        op_ms / 1e3),
              reps);
    layer.set("exec.matmul_pct",
              share_pct(standalone_kernels_sec(pipe->model,
                                               graph::OpType::kMatMul,
                                               opts.seed, reps, spans),
                        op_ms / 1e3),
              reps);

    // Set-up layers replayed: predictor training, the decision over a
    // (k, bandwidth) grid, and partitioning at the cut.
    auto t0 = Clock::now();
    const core::PredictorBundle bundle = [&] {
      ScopedSpan span(spans, "profile.train");
      return core::train_default_predictors();
    }();
    layer.set("profile.train_ms", seconds_since(t0) * 1e3);
    const core::GraphCostProfile profile(pipe->model, bundle);
    std::vector<DecideInput> grid;
    for (double k : {1.0, 1.5, 2.0, 3.0, 5.0, 8.0})
      for (double bw : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
        grid.push_back({&profile, {k, mbps(bw)}});
    std::size_t decide_calls = 0;
    {
      ScopedSpan span(spans, "core.decide");
      const double ns = decide_ns(grid, &decide_calls);
      layer.set("core.decide_ns", ns, decide_calls);
    }
    std::size_t plan_calls = 0;
    {
      ScopedSpan span(spans, "partition.plan");
      const double ns = mean_call_ns(
          0.02,
          [&] {
            g_sink = g_sink +
                     partition::partition_at(pipe->model, pipe->cut)
                         .boundary.size();
            return std::size_t{1};
          },
          &plan_calls);
      layer.set("partition.plan_ms", ns / 1e6, plan_calls);
    }

    // The request's latency split at the cut (contention-free model).
    const core::BreakdownRow& row = pipe->row;
    layer.set("req.device_pct", share_pct(row.device_sec, row.total_sec));
    layer.set("req.upload_pct", share_pct(row.upload_sec, row.total_sec));
    layer.set("req.server_pct", share_pct(row.server_sec, row.total_sec));
    layer.set("req.download_pct", share_pct(row.download_sec, row.total_sec));
    layer.report(report);
  }

  report.gate("prefix_suffix_equals_whole", warmup_mismatches == 0,
              std::to_string(warmup_mismatches) + " of " +
                  std::to_string(setup_times.size()) +
                  " warm-ups differ, cut p=" + std::to_string(pipe->cut));
  report.gate("timed_outputs_match_oracle", mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(ops) +
                  " digests differ");
  report.attempted = ops;
  report.failed = mismatches;
  report.info["setup_reps"] = std::to_string(setup_times.size());
}

// ---------------------------------------------------------------------------
// Simulation workloads.

serve::FleetConfig fleet_mix_config(std::uint64_t seed, bool smoke) {
  serve::FleetConfig c;
  c.seed = seed;
  c.duration = smoke ? seconds(60) : seconds(900);
  c.warmup = smoke ? seconds(10) : seconds(30);
  c.frontend.policy = serve::QueuePolicy::kLeastSlack;
  c.frontend.admission_control = true;
  c.frontend.deadline_admission = true;
  c.frontend.shed_will_miss = true;
  c.frontend.max_batch = 4;
  c.frontend.batch_window = milliseconds(2);
  c.runtime.predictor.kind = "ewma";

  serve::TenantSpec alex;  // Markov-modulated LoADPart clients
  alex.model = "alexnet";
  alex.clients = 24;
  alex.policy = core::Policy::kLoadPart;
  alex.request_gap = seconds(1);
  alex.poisson_arrivals = true;
  alex.burst_gap = milliseconds(100);
  alex.slo_sec = 0.325;
  c.tenants.push_back(alex);

  serve::TenantSpec squeeze;  // periodic Neurosurgeon clients
  squeeze.model = "squeezenet";
  squeeze.clients = 16;
  squeeze.policy = core::Policy::kNeurosurgeon;
  squeeze.request_gap = milliseconds(300);
  squeeze.slo_sec = 0.45;
  c.tenants.push_back(squeeze);

  serve::TenantSpec resnet;  // full offload on fast links (fixed_p = 0)
  resnet.model = "resnet18";
  resnet.clients = 4;
  resnet.policy = core::Policy::kFixedPoint;
  resnet.upload = net::BandwidthTrace::constant(mbps(100));
  resnet.download = net::BandwidthTrace::constant(mbps(100));
  resnet.request_gap = milliseconds(250);
  resnet.poisson_arrivals = true;
  resnet.slo_sec = 0.5;
  c.tenants.push_back(resnet);
  return c;
}

cluster::ClusterConfig cluster_swarm_config(std::uint64_t seed, bool smoke) {
  cluster::ClusterConfig c;
  c.seed = seed;
  c.servers = 8;
  c.duration = smoke ? seconds(30) : seconds(60);
  c.warmup = smoke ? seconds(10) : seconds(20);
  c.zipf_alpha = 0.5;
  c.frontend.policy = serve::QueuePolicy::kEdf;
  c.frontend.admission_control = true;
  c.router.placement = cluster::Placement::kLeastLoaded;
  c.router.rebalance = true;

  serve::TenantSpec alex;
  alex.model = "alexnet";
  alex.clients = smoke ? 256 : 4096;
  alex.policy = core::Policy::kLoadPart;
  alex.request_gap = milliseconds(500);
  alex.poisson_arrivals = true;
  c.tenants.push_back(alex);
  return c;
}

/// Wall time and call counts gathered by the TimedService decorators.
struct ServeProbe {
  std::uint64_t submit_calls = 0;
  double submit_sec = 0.0;
  std::uint64_t load_signal_calls = 0;
  double load_signal_sec = 0.0;
};

/// Times every call a client makes into its frontend, and changes nothing
/// else: the traced drivers put one in front of each frontend.
class TimedService final : public core::SuffixService {
 public:
  TimedService(core::SuffixService& inner, ServeProbe& probe)
      : inner_(&inner), probe_(&probe) {}

  core::SubmitStatus submit(core::SuffixRequest request) override {
    const auto t0 = Clock::now();
    const core::SubmitStatus status = inner_->submit(std::move(request));
    probe_->submit_sec += seconds_since(t0);
    ++probe_->submit_calls;
    return status;
  }
  core::LoadSignal load_signal(std::uint64_t session,
                               DurationNs horizon) const override {
    const auto t0 = Clock::now();
    const core::LoadSignal signal = inner_->load_signal(session, horizon);
    probe_->load_signal_sec += seconds_since(t0);
    ++probe_->load_signal_calls;
    return signal;
  }
  bool alive() const override { return inner_->alive(); }

 private:
  core::SuffixService* inner_;
  ServeProbe* probe_;
};

/// What a traced simulation run measured.
struct TracedSim {
  std::vector<serve::ClientTrace> clients;
  ServeProbe serve;
  double setup_sec = 0.0;         ///< wiring before run_until
  double open_session_sec = 0.0;  ///< part of setup_sec
  double run_sec = 0.0;           ///< run_until
  std::uint64_t events = 0;
  std::vector<serve::LoadSnapshot> servers;
  std::uint64_t heartbeats = 0, migrations = 0, reroutes = 0;
  std::string audit_error;  ///< empty = every audit passed
};

/// The client loop of run_fleet/run_cluster (burst_gap = 0 draws nothing
/// extra, which makes it the cluster loop too).
sim::Task client_stream(sim::Simulator& sim, core::OffloadClient& client,
                        serve::TenantSpec spec, DurationNs gap, Rng rng,
                        std::vector<core::InferenceRecord>& out) {
  bool bursting = false;
  for (;;) {
    core::InferenceRecord rec;
    co_await client.infer(&rec);
    out.push_back(rec);
    DurationNs next = gap;
    if (spec.burst_gap > 0) {
      bursting = bursting ? !rng.bernoulli(spec.burst_exit_prob)
                          : rng.bernoulli(spec.burst_enter_prob);
      if (bursting) next = spec.burst_gap;
    }
    if (spec.poisson_arrivals && next > 0)
      next = std::max<DurationNs>(
          1, static_cast<DurationNs>(
                 rng.exponential(static_cast<double>(next))));
    if (next > 0) co_await sim.delay(next);
  }
}

struct TenantState {
  graph::Graph model;
  std::unique_ptr<core::GraphCostProfile> profile;
};

/// serve::run_fleet's wiring, rebuilt from public classes with a
/// TimedService between the clients and the frontend.
TracedSim traced_fleet(const serve::FleetConfig& config,
                       const core::PredictorBundle& predictors,
                       SpanLog& spans) {
  LP_CHECK(config.faults.empty() && config.telemetry == nullptr &&
           !config.on_audit);
  TracedSim out;
  const auto setup_start = Clock::now();
  const int wiring = spans.begin("sim.wiring");
  sim::Simulator sim;
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  hw::GpuScheduler scheduler(sim);
  serve::EdgeServerFrontend frontend(sim, scheduler, gpu, config.frontend,
                                     config.runtime, config.seed ^ 0xf00d);
  frontend.start_gpu_watcher(config.watcher_period);
  TimedService service(frontend, out.serve);

  std::vector<std::unique_ptr<TenantState>> tenants;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<core::OffloadClient>> clients;
  std::size_t total_clients = 0;
  for (const serve::TenantSpec& spec : config.tenants)
    total_clients += static_cast<std::size_t>(spec.clients);
  out.clients.reserve(total_clients);

  std::uint64_t index = 0;
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const serve::TenantSpec& spec = config.tenants[t];
    tenants.push_back(std::unique_ptr<TenantState>(
        new TenantState{models::make_model(spec.model), nullptr}));
    tenants.back()->profile = std::make_unique<core::GraphCostProfile>(
        tenants.back()->model, predictors);
    const core::GraphCostProfile& profile = *tenants.back()->profile;
    core::RuntimeParams runtime = config.runtime;
    runtime.slo_sec = spec.slo_sec;
    for (int c = 0; c < spec.clients; ++c) {
      ++index;
      const std::uint64_t seed =
          config.seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
      links.push_back(std::make_unique<net::Link>(
          sim, spec.upload, spec.download, spec.rtt, seed ^ 0x71));
      const auto t0 = Clock::now();
      const std::uint64_t session = frontend.open_session(profile);
      out.open_session_sec += seconds_since(t0);
      clients.push_back(std::make_unique<core::OffloadClient>(
          sim, cpu, profile, *links.back(), service, spec.policy, runtime,
          seed ^ 0xc1, session));
      clients.back()->start_runtime_profiler(config.profiler_period);
      out.clients.push_back(serve::ClientTrace{t, {}});
      sim.spawn(client_stream(sim, *clients.back(), spec, spec.request_gap,
                              Rng(seed ^ 0xa1), out.clients.back().records));
    }
  }
  spans.end(wiring);
  out.setup_sec = seconds_since(setup_start);

  const auto run_start = Clock::now();
  {
    ScopedSpan span(spans, "sim.run_until");
    sim.run_until(config.duration);
  }
  out.run_sec = seconds_since(run_start);
  out.events = sim.executed_events();
  try {
    check::audit(frontend);
  } catch (const ContractError& e) {
    out.audit_error = e.what();
  }
  out.servers.push_back(frontend.load_snapshot());
  return out;
}

/// cluster::run_cluster's wiring, rebuilt from public classes with a
/// TimedService in front of every server; the redirect hook rebinds each
/// client to the decorator of its new server.
TracedSim traced_cluster(const cluster::ClusterConfig& config,
                         const core::PredictorBundle& predictors,
                         SpanLog& spans) {
  LP_CHECK(config.server_faults.empty() && config.heartbeat_faults.empty() &&
           config.interconnect_faults.empty() && !config.degrade_to_local &&
           config.telemetry == nullptr && !config.on_audit);
  TracedSim out;
  const auto setup_start = Clock::now();
  const int wiring = spans.begin("sim.wiring");
  sim::Simulator sim;
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;

  std::vector<std::unique_ptr<hw::GpuScheduler>> schedulers;
  std::vector<std::unique_ptr<serve::EdgeServerFrontend>> frontends;
  std::vector<serve::EdgeServerFrontend*> frontend_ptrs;
  std::vector<std::unique_ptr<TimedService>> services;
  for (std::size_t i = 0; i < config.servers; ++i) {
    schedulers.push_back(std::make_unique<hw::GpuScheduler>(sim));
    frontends.push_back(std::make_unique<serve::EdgeServerFrontend>(
        sim, *schedulers.back(), gpu, config.frontend, config.runtime,
        config.seed ^ (0xf00d + 0x9e3779b97f4a7c15ull * (i + 1))));
    frontends.back()->start_gpu_watcher(config.watcher_period);
    frontend_ptrs.push_back(frontends.back().get());
    services.push_back(
        std::make_unique<TimedService>(*frontends.back(), out.serve));
  }
  cluster::ClusterRouter router(sim, frontend_ptrs, config.router);

  std::vector<std::unique_ptr<TenantState>> tenants;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<core::OffloadClient>> clients;
  std::size_t total_clients = 0;
  for (const serve::TenantSpec& spec : config.tenants)
    total_clients += static_cast<std::size_t>(spec.clients);
  out.clients.reserve(total_clients);
  clients.reserve(total_clients);

  std::uint64_t index = 0;
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const serve::TenantSpec& spec = config.tenants[t];
    tenants.push_back(std::unique_ptr<TenantState>(
        new TenantState{models::make_model(spec.model), nullptr}));
    tenants.back()->profile = std::make_unique<core::GraphCostProfile>(
        tenants.back()->model, predictors);
    const core::GraphCostProfile& profile = *tenants.back()->profile;
    core::RuntimeParams runtime = config.runtime;
    runtime.slo_sec = spec.slo_sec;
    for (int c = 0; c < spec.clients; ++c) {
      ++index;
      const std::uint64_t seed =
          config.seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
      links.push_back(std::make_unique<net::Link>(
          sim, spec.upload, spec.download, spec.rtt, seed ^ 0x71));
      const auto t0 = Clock::now();
      const std::uint64_t session = router.open_session(profile);
      out.open_session_sec += seconds_since(t0);
      const std::size_t home = router.binding(session).server;
      clients.push_back(std::make_unique<core::OffloadClient>(
          sim, cpu, profile, *links.back(), *services[home], spec.policy,
          runtime, seed ^ 0xc1, session));
      clients.back()->start_runtime_profiler(config.profiler_period);
      out.clients.push_back(serve::ClientTrace{t, {}});
      DurationNs gap = spec.request_gap;
      if (config.zipf_alpha > 0.0 && gap > 0)
        gap = std::max<DurationNs>(
            1, static_cast<DurationNs>(
                   static_cast<double>(gap) *
                   std::pow(static_cast<double>(c + 1), config.zipf_alpha)));
      sim.spawn(client_stream(sim, *clients.back(), spec, gap,
                              Rng(seed ^ 0xa1), out.clients.back().records));
    }
  }
  router.set_redirect([&clients, &services](std::uint64_t session,
                                            std::size_t server) {
    clients[session]->rebind(*services[server], session);
  });
  router.start();
  spans.end(wiring);
  out.setup_sec = seconds_since(setup_start);

  const auto run_start = Clock::now();
  {
    ScopedSpan span(spans, "sim.run_until");
    sim.run_until(config.duration);
  }
  out.run_sec = seconds_since(run_start);
  out.events = sim.executed_events();
  try {
    check::audit(router);
  } catch (const ContractError& e) {
    out.audit_error = e.what();
  }
  for (std::size_t i = 0; i < config.servers; ++i)
    out.servers.push_back(router.server(i).load_snapshot());
  out.heartbeats = router.heartbeats();
  out.migrations = router.migrations();
  out.reroutes = router.reroutes();
  return out;
}

/// Request conservation from outside, over a frontend's final snapshot.
bool balanced(const serve::LoadSnapshot& s) {
  return s.submitted == s.admitted + s.shed + s.refused &&
         s.admitted + s.migrated_in == s.served + s.failed_jobs +
                                           s.queue_depth + s.inflight_jobs +
                                           s.migrated_out;
}

/// A simulation workload's config: run_fleet's or run_cluster's.
struct SimConfig {
  Kind kind;
  serve::FleetConfig fleet;
  cluster::ClusterConfig swarm;

  const std::vector<serve::TenantSpec>& tenants() const {
    return kind == Kind::kFleet ? fleet.tenants : swarm.tenants;
  }
  DurationNs warmup() const {
    return kind == Kind::kFleet ? fleet.warmup : swarm.warmup;
  }
};

/// What one library call returned, reduced to what the gates read.
struct SimRun {
  std::vector<serve::ClientTrace> clients;
  std::vector<serve::LoadSnapshot> servers;
};

/// One call of the library entry point; `setup_only` runs the same config
/// for 1 ns of simulated time (all of the wiring, none of the run).
SimRun library_run(const SimConfig& c, bool setup_only,
                   const core::PredictorBundle& predictors) {
  SimRun run;
  if (c.kind == Kind::kFleet) {
    serve::FleetConfig config = c.fleet;
    if (setup_only) config.duration = 1;
    auto result = serve::run_fleet(config, predictors);
    run.clients = std::move(result.clients);
    run.servers.push_back(result.frontend);
  } else {
    cluster::ClusterConfig config = c.swarm;
    if (setup_only) config.duration = 1;
    auto result = cluster::run_cluster(config, predictors);
    run.clients = std::move(result.clients);
    run.servers = std::move(result.servers);
  }
  return run;
}

void run_sim(const Workload& w, const Options& opts, SpanLog& spans,
             Report& report) {
  const int setup_reps = opts.smoke ? 1 : w.setup_reps;
  const int min_ops = opts.smoke ? 1 : kMinOps;
  const double seconds = opts.smoke ? 0.0 : opts.seconds;
  const SimConfig config{w.kind, fleet_mix_config(opts.seed, opts.smoke),
                         cluster_swarm_config(opts.seed, opts.smoke)};

  // Set-up: predictor training plus a 1 ns run. The first set-up's
  // predictors serve the timed operations; later ones are timed and
  // dropped.
  std::vector<double> setup_times;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    ScopedSpan span(spans, "setup");
    core::PredictorBundle trained = core::train_default_predictors();
    library_run(config, /*setup_only=*/true, trained);
    setup_times.push_back(seconds_since(t0));
    return trained;
  };
  const core::PredictorBundle predictors = set_up();

  std::set<std::uint64_t> digests;
  std::uint64_t requests = 0, failed = 0;
  bool all_balanced = true;
  auto account = [&](const std::vector<serve::ClientTrace>& clients,
                     const std::vector<serve::LoadSnapshot>& servers) {
    digests.insert(digest(clients));
    for (const serve::ClientTrace& trace : clients)
      for (const core::InferenceRecord& rec : trace.records) {
        ++requests;
        if (rec.outcome == core::InferenceOutcome::kFailed) ++failed;
      }
    for (const serve::LoadSnapshot& s : servers)
      all_balanced = all_balanced && balanced(s);
  };
  auto library_op = [&] {
    const SimRun run = library_run(config, /*setup_only=*/false, predictors);
    account(run.clients, run.servers);
  };

  if (!opts.traced()) {
    const auto times = timed_loop(
        seconds, min_ops,
        [&](int op) {
          ScopedSpan span(spans, "op", op);
          library_op();
        },
        [&] {
          if (static_cast<int>(setup_times.size()) < setup_reps) set_up();
        });
    std::vector<double> ms;
    for (double t : times) ms.push_back(t * 1e3);
    report.metric("setup_s", median(setup_times), "s", setup_times.size());
    report.metric("op_ms_p50", median(ms), "ms", ms.size());
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.gate("repetitions_identical", digests.size() == 1,
                std::to_string(times.size()) + " runs, " +
                    std::to_string(digests.size()) + " distinct digests");
  } else {
    std::vector<double> plain_ms, traced_ms;
    TracedSim traced;
    double setup_sec = 0.0, open_sec = 0.0, run_sec = 0.0;
    double submit_sec = 0.0, signal_sec = 0.0;
    std::uint64_t events = 0;
    std::string audit_error;
    std::set<std::uint64_t> traced_digests;
    timed_loop(seconds, min_ops, [&](int op) {
      auto t0 = Clock::now();
      library_op();
      plain_ms.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      {
        ScopedSpan span(spans, "op", op);
        traced = w.kind == Kind::kFleet
                     ? traced_fleet(config.fleet, predictors, spans)
                     : traced_cluster(config.swarm, predictors, spans);
      }
      traced_ms.push_back(seconds_since(t0) * 1e3);
      traced_digests.insert(digest(traced.clients));
      if (audit_error.empty()) audit_error = traced.audit_error;
      setup_sec += traced.setup_sec;
      open_sec += traced.open_session_sec;
      run_sec += traced.run_sec;
      submit_sec += traced.serve.submit_sec;
      signal_sec += traced.serve.load_signal_sec;
      events += traced.events;
    }, [] {});
    report.gate("repetitions_identical", digests.size() == 1,
                std::to_string(plain_ms.size()) + " runs, " +
                    std::to_string(digests.size()) + " distinct digests");
    report.gate("traced_driver_reproduces_library",
                traced_digests == digests,
                "bench-owned wiring vs library entry point");
    report.gate("audits_pass", audit_error.empty(), audit_error);
    for (const serve::LoadSnapshot& s : traced.servers)
      all_balanced = all_balanced && balanced(s);

    const double op_sec = sum(traced_ms) / 1e3;
    const double op_ms = median(traced_ms);
    const std::size_t n = traced_ms.size();
    LayerValues layer;
    layer.set("trace.op_ms", op_ms, n);
    layer.set("trace.overhead_pct", 100.0 * (op_ms / median(plain_ms) - 1.0),
              plain_ms.size());
    std::uint64_t run_requests = 0;
    for (const serve::ClientTrace& trace : traced.clients)
      run_requests += trace.records.size();
    layer.set("sim.events", static_cast<double>(traced.events));
    layer.set("sim.events_per_request",
              run_requests > 0 ? static_cast<double>(traced.events) /
                                     static_cast<double>(run_requests)
                               : 0.0);
    layer.set("sim.events_per_s",
              run_sec > 0.0 ? static_cast<double>(events) / run_sec : 0.0, n);
    layer.set("sim.setup_pct", share_pct(setup_sec, op_sec), n);
    layer.set("sim.self_pct",
              share_pct(run_sec - submit_sec - signal_sec, op_sec), n);
    layer.set("serve.submit_calls",
              static_cast<double>(traced.serve.submit_calls));
    layer.set("serve.submit_pct", share_pct(submit_sec, op_sec), n);
    layer.set("serve.load_signal_calls",
              static_cast<double>(traced.serve.load_signal_calls));
    layer.set("serve.load_signal_pct", share_pct(signal_sec, op_sec), n);
    layer.set("serve.open_session_pct", share_pct(open_sec, op_sec), n);
    std::uint64_t submitted = 0, admitted = 0, jobs = 0, dispatches = 0;
    for (const serve::LoadSnapshot& s : traced.servers) {
      submitted += s.submitted;
      admitted += s.admitted;
      dispatches += s.dispatches;
      jobs += s.dispatches - s.batched_dispatches + s.batched_jobs;
    }
    layer.set("serve.admit_ratio",
              submitted > 0 ? static_cast<double>(admitted) /
                                  static_cast<double>(submitted)
                            : 0.0);
    layer.set("serve.jobs_per_dispatch",
              dispatches > 0 ? static_cast<double>(jobs) /
                                   static_cast<double>(dispatches)
                             : 0.0);
    layer.set("cluster.heartbeats", static_cast<double>(traced.heartbeats));
    layer.set("cluster.migrations", static_cast<double>(traced.migrations));
    layer.set("cluster.reroutes", static_cast<double>(traced.reroutes));

    // Steady-state latency split of the simulated requests.
    const auto steady =
        serve::steady_records(traced.clients, config.warmup());
    double total = 0, device = 0, upload = 0, server = 0, download = 0,
           overhead = 0, queue = 0;
    std::size_t misses = 0;
    for (const core::InferenceRecord* r : steady) {
      if (r->outcome == core::InferenceOutcome::kFailed) continue;
      total += r->total_sec;
      device += r->device_sec;
      upload += r->upload_sec;
      server += r->server_sec;
      download += r->download_sec;
      overhead += r->overhead_sec;
      queue += r->queue_wait_sec;
      if (r->overhead_sec > 0.0) ++misses;
    }
    layer.set("req.device_pct", share_pct(device, total), steady.size());
    layer.set("req.upload_pct", share_pct(upload, total), steady.size());
    layer.set("req.server_pct", share_pct(server, total), steady.size());
    layer.set("req.download_pct", share_pct(download, total), steady.size());
    layer.set("req.overhead_pct", share_pct(overhead, total), steady.size());
    layer.set("req.queue_wait_pct", share_pct(queue, total), steady.size());
    layer.set("partition.cache_miss_ratio",
              steady.empty() ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(steady.size()),
              steady.size());

    // Set-up layers and the decision replayed over this run's own inputs.
    auto t0 = Clock::now();
    {
      ScopedSpan span(spans, "profile.train");
      g_sink = g_sink + core::train_default_predictors().user.complete();
    }
    layer.set("profile.train_ms", seconds_since(t0) * 1e3);
    const auto& tenants = config.tenants();
    std::vector<graph::Graph> graphs;
    graphs.reserve(tenants.size());
    std::vector<std::unique_ptr<core::GraphCostProfile>> profiles;
    for (const serve::TenantSpec& spec : tenants) {
      graphs.push_back(models::make_model(spec.model));
      profiles.push_back(
          std::make_unique<core::GraphCostProfile>(graphs.back(), predictors));
    }
    std::vector<DecideInput> pairs;
    std::set<std::pair<std::size_t, std::size_t>> cuts;
    for (const serve::ClientTrace& trace : traced.clients) {
      const bool loadpart =
          tenants[trace.tenant].policy == core::Policy::kLoadPart;
      for (const core::InferenceRecord& r : trace.records) {
        cuts.insert({trace.tenant, r.p});
        if (loadpart && r.bandwidth_est_bps > 0.0 && pairs.size() < 50000)
          pairs.push_back({profiles[trace.tenant].get(),
                           {r.k_used, r.bandwidth_est_bps}});
      }
    }
    std::size_t decide_calls = 0;
    {
      ScopedSpan span(spans, "core.decide");
      const double ns = decide_ns(pairs, &decide_calls);
      layer.set("core.decide_ns", ns, decide_calls);
    }
    std::size_t plan_calls = 0;
    {
      ScopedSpan span(spans, "partition.plan");
      const double ns = mean_call_ns(
          0.02,
          [&] {
            for (const auto& [tenant, p] : cuts)
              g_sink = g_sink +
                       partition::partition_at(graphs[tenant], p).boundary.size();
            return cuts.size();
          },
          &plan_calls);
      layer.set("partition.plan_ms", ns / 1e6, plan_calls);
    }
    layer.report(report);
    report.info["decide_pairs"] = std::to_string(pairs.size());
  }

  report.gate("frontend_counters_balance", all_balanced,
              "submitted == admitted + shed + refused, admitted settled");
  report.gate("no_failed_requests", failed == 0,
              std::to_string(failed) + " of " + std::to_string(requests));
  report.attempted = requests;
  report.failed = failed;
  report.info["record_digest"] = digests.empty() ? "" : hex(*digests.begin());
  report.info["setup_reps"] = std::to_string(setup_times.size());
}

// ---------------------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed S [--seconds T] [--trace FILE] "
               "[--smoke] [--json FILE]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace_path = argv[++i];
    } else if (arg == "--json" && has_value) {
      opts.json_path = argv[++i];
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (opts.workload == w.name) workload = &w;
  if (workload == nullptr || opts.seconds < 0.0) return usage(argv[0]);

  Report report;
  SpanLog spans(opts.traced());
  try {
    if (workload->kind == Kind::kExec)
      run_exec(*workload, opts, spans, report);
    else
      run_sim(*workload, opts, spans, report);
  } catch (const std::exception& e) {
    report.gate("no_exception", false, e.what());
  }
  if (opts.traced())
    report.gate("trace_written", spans.write(opts.trace_path),
                opts.trace_path);

  report.print_table(opts);
  const std::string json = report.json(opts);
  if (!opts.json_path.empty()) {
    std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
    const bool written = f != nullptr &&
                         std::fputs((json + "\n").c_str(), f) >= 0 &&
                         std::fclose(f) == 0;
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  return report.ok() ? 0 : 1;
}

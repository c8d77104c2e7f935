// Online offloading runtime: the device-side client of Figure 3 as a
// simulation process, and the interface it offloads through.
//
// One inference request (client):
//   1. pick p with the policy's decision rule (LoADPart uses Algorithm 1
//      with the cached bandwidth estimate and influential factor k);
//   2. look p up in the device partition cache; a miss pays the partition +
//      runtime-preparation overhead (Section III-A);
//   3. execute {L1..Lp} on the device CPU model;
//   4. upload the boundary tensors (passively feeding the bandwidth
//      estimator), have the server run {Lp+1..Ln} on the GPU scheduler
//      (its cache works the same way), download the result.
// The server (serve::EdgeServerFrontend, behind SuffixService) records
// measured/predicted ratios to maintain k; its GPU watcher resets k when
// utilization falls below the threshold. This header also holds what the
// client and the server both price a request with: the SuffixReply it
// resolves, the cache-miss preparation() and the suffix_kernels().
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/algorithm.h"
#include "core/load_factor.h"
#include "core/load_signal.h"
#include "core/predictor.h"
#include "fault/retry.h"
#include "hw/cpu_model.h"
#include "hw/gpu_model.h"
#include "net/estimator.h"
#include "net/link.h"
#include "obs/taxonomy.h"
#include "obs/telemetry.h"
#include "partition/cache.h"

namespace lp::core {

enum class Policy {
  kLoadPart,
  kNeurosurgeon,
  kLocalOnly,
  kFullOffload,
  kFixedPoint,  // always cut at RuntimeParams::fixed_p (oracle sweeps)
};

std::string policy_name(Policy policy);

/// Knobs of the client and the server's sessions. What the runtime models
/// rather than configures is constant: the partition-preparation costs
/// (hw/calibration.h), the idle-watcher threshold
/// (serve::kIdleUtilization) and the request header (kHeaderBytes).
struct RuntimeParams {
  std::size_t cache_capacity = 16;

  std::size_t k_window = 16;

  /// Load predictor behind every LoadSignal this runtime publishes
  /// (src/predict/): each LoadFactorTracker builds its k forecaster from
  /// it. The default "last-value" kind reproduces the reactive behavior
  /// bit-identically; swap `predictor.kind` for "ewma" or "holt" to
  /// forecast k at the consumer's horizon instead.
  predict::PredictorParams predictor;

  /// Partition point used by Policy::kFixedPoint (clamped to [0, n]).
  std::size_t fixed_p = 0;

  /// Extension: when false, the server starts without the model's weights
  /// (the IONN problem, Section VI): before a node can first run remotely
  /// its Parameters must cross the uplink. The paper's setting is
  /// pre-deployed weights (true).
  bool weights_preloaded = true;

  /// Per-request latency SLO (serving layer): each offload request carries
  /// the absolute deadline start + slo_sec for deadline-aware queueing and
  /// SLO accounting. 0 disables deadlines.
  double slo_sec = 0.0;

  /// Client-side failure recovery. Defaults preserve the no-failure
  /// universe: with rpc_timeout_sec = 0 no deadline is armed and the
  /// machinery only activates when a fault actually surfaces (a crashed
  /// server failing a request, or a refused submit).
  struct FaultToleranceParams {
    /// Per-attempt RPC deadline covering upload + service + download;
    /// 0 disables timeouts (a request then waits indefinitely).
    double rpc_timeout_sec = 0.0;
    /// Re-attempts after the first failure (the retry budget).
    int max_retries = 2;
    /// Delay between attempts (deterministically jittered exponential).
    fault::BackoffPolicy backoff;
    /// When the budget is spent: re-execute the suffix {Lp+1..Ln} on the
    /// device from the boundary tensor the device already holds (the
    /// request is recovered, not lost). false = fail-stop: the request is
    /// dropped with InferenceOutcome::kFailed.
    bool local_fallback = true;
    /// Consecutive fault-failures that open the per-client circuit breaker
    /// (the policy is pinned to local-only for the cooldown); 0 disables.
    int breaker_failures = 0;
    double breaker_cooldown_sec = 5.0;
  };
  FaultToleranceParams fault;
};

/// Request outcome / failure taxonomy: shared with every other layer via
/// obs/taxonomy.h (one vocabulary for records, tenant summaries, fault
/// benches and the metrics registry).
using InferenceOutcome = obs::Outcome;
using FailureKind = obs::FailureKind;
using obs::failure_name;
using obs::outcome_name;

/// Everything measured about one inference (a sample of Figs. 1/2/6-9).
struct InferenceRecord {
  TimeNs start = 0;
  std::size_t p = 0;
  double total_sec = 0.0;
  double device_sec = 0.0;
  double upload_sec = 0.0;
  double server_sec = 0.0;    // measured on the server, queueing included
  double download_sec = 0.0;
  double overhead_sec = 0.0;  // partition cache misses
  double weight_upload_sec = 0.0;  // cold-start parameter shipping
  std::int64_t upload_bytes = 0;
  std::int64_t download_bytes = 0;
  double k_used = 1.0;
  double bandwidth_est_bps = 0.0;
  double predicted_sec = 0.0;
  InferenceOutcome outcome = InferenceOutcome::kLocalDecision;
  double queue_wait_sec = 0.0;  ///< server-side time from arrival to dispatch

  // Failure taxonomy (fault-tolerance layer).
  FailureKind last_failure = FailureKind::kNone;
  int retries = 0;  ///< backoff-delayed re-attempts after failures
  int faults = 0;   ///< fault-type failures observed across all attempts
  bool breaker_forced_local = false;  ///< open breaker pinned p = n

  bool operator==(const InferenceRecord&) const = default;
};

/// "This request has no deadline." TimeNs max sorts after every real
/// deadline, so EDF and least-slack order deadline-free jobs last without a
/// special case — and, unlike the old 0-means-none encoding, it cannot
/// collide with a legitimate absolute deadline of 0 stamped at sim time 0.
inline constexpr TimeNs kNoDeadline = std::numeric_limits<TimeNs>::max();

/// Bytes of the partition point and tensor metadata that ride every
/// offload upload and every profiler control message.
inline constexpr std::int64_t kHeaderBytes = 128;

/// How the server resolved one SuffixRequest. kClientTimeout is set by the
/// client's own deadline watcher, never by the server.
enum class SuffixStatus : std::uint8_t {
  kServed,
  kServerDown,     ///< the server crashed before the result was ready
  kClientTimeout,  ///< the client's RPC deadline expired while waiting
  kFenced,         ///< rejected by the session's fencing epoch (the job
                   ///< belongs to a superseded placement; retry elsewhere)
  kDeadlineShed,   ///< dropped by the dispatcher: the deadline had already
                   ///< passed in queue, so running it could only waste GPU
                   ///< time on a guaranteed miss (degrade locally instead)
};

/// The answer to one SuffixRequest. The client, the server and the
/// client's deadline watcher all hold it through shared_ptr, so whichever
/// side finishes last still writes into live memory — a client that gives
/// up on an attempt can safely abandon it.
struct SuffixReply {
  explicit SuffixReply(sim::Simulator& sim) : done(sim) {}

  /// First resolution wins: records `how` and triggers `done` unless the
  /// reply is already resolved, so the waiter resumes exactly once and a
  /// late server verdict never overwrites the client's timeout (or the
  /// reverse).
  void resolve(SuffixStatus how) {
    if (done.triggered()) return;
    status = how;
    done.trigger();
  }

  sim::Event done;          ///< triggered by the first resolve()
  double exec = 0.0;        ///< measured (contended) GPU time
  double overhead = 0.0;    ///< partition-cache miss cost
  double queue_wait = 0.0;  ///< arrival-to-dispatch wait
  SuffixStatus status = SuffixStatus::kServed;
};

/// An offloading request as it arrives at the server-side service
/// process: "run {Lp+1..Ln} on my uploaded tensors and tell me when the
/// result is ready". The transfer times of the request payload and the
/// result are charged by the client on its link; the service charges the
/// partition preparation and GPU execution into `reply`.
struct SuffixRequest {
  std::size_t p = 0;
  std::shared_ptr<SuffixReply> reply;  ///< required; resolved exactly once

  // What the server's queue and admission read besides the cut.
  std::uint64_t session = 0;   ///< server session of the requesting client
  TimeNs deadline = kNoDeadline;  ///< absolute deadline (EDF / least-slack)
  double bandwidth_bps = 0.0;  ///< client's current bandwidth estimate
};

// ----------------------------------------------------- suffix cost model --
// The client prices its own cache misses with preparation(); the server
// prices its misses and builds every dispatch with both.

/// Which side of the cut prepares a partition.
enum class Side : std::uint8_t { kDevice, kServer };

/// Cache-miss cost of partitioning the graph and preparing the framework
/// runtime for one side of cut p (Section III-A): linear in the nodes of
/// that side's segment (GraphCostProfile::device_nodes / server_nodes;
/// hw/calibration.h holds the constants).
struct Preparation {
  std::size_t nodes = 0;
  double sec = 0.0;
};
Preparation preparation(const GraphCostProfile& profile, std::size_t p,
                        Side side);

/// The jittered kernels of one suffix dispatch {Lp+1..Ln} of `batch`
/// coalesced jobs (requires p < n and batch >= 1), read from the profile's
/// kernel_ns table: one kernel per op with positive time, its body scaled
/// by 1 + (batch - 1) * batch_compute_frac (each extra sample costs a
/// fraction of the body) plus one framework dispatch. At batch = 1 that is
/// hw::GpuModel::segment_kernels. Each duration is then scaled by
/// `straggle` (an active fault window; 1.0 otherwise) and a jitter draw
/// from `rng`, one draw per kernel in order.
std::vector<DurationNs> suffix_kernels(const hw::GpuModel& gpu,
                                       const GraphCostProfile& profile,
                                       std::size_t p, std::size_t batch,
                                       double straggle, Rng& rng);

/// Verdict of the server-side admission check, returned synchronously from
/// submit(). On kRejected ("server busy") nothing was enqueued and the
/// client must complete the inference on the device. kDown models a
/// connection refused by a crashed server: nothing was enqueued and the
/// client treats it as a fault (retry / failover), not as load shedding.
enum class SubmitStatus : std::uint8_t { kAccepted, kRejected, kDown };

/// The server-side interface the client offloads through. The server is
/// serve::EdgeServerFrontend (sessions, admission control, deadline
/// queueing, suffix batching); src/core cannot depend on src/serve, and a
/// decorator can stand in front of it (bench/perf times every call through
/// one).
class SuffixService {
 public:
  virtual ~SuffixService() = default;

  /// Admission decision is synchronous; on kAccepted the caller waits on
  /// request.done, on kRejected it degrades to local execution.
  virtual SubmitStatus submit(SuffixRequest request) = 0;

  /// One typed read of the load this service publishes for `session`,
  /// forecast `horizon` ahead (0 = right now) — the k that the device
  /// profiler fetch and admission control act on.
  virtual LoadSignal load_signal(std::uint64_t session,
                                 DurationNs horizon) const = 0;

  /// False while the service is crashed: control-plane fetches (the
  /// profiler's k handshake) are skipped until it restarts.
  virtual bool alive() const { return true; }
};

class OffloadClient {
 public:
  /// `session` identifies this client to its SuffixService
  /// (serve::EdgeServerFrontend::open_session).
  OffloadClient(sim::Simulator& sim, const hw::CpuModel& cpu,
                const GraphCostProfile& profile, net::Link& link,
                SuffixService& server, Policy policy, RuntimeParams params,
                std::uint64_t seed, std::uint64_t session = 0);

  /// Performs one end-to-end inference; fills *out.
  sim::Task infer(InferenceRecord* out);

  /// Spawns the device runtime profiler: every `period`, probe the upload
  /// bandwidth and fetch the latest k from the server.
  void start_runtime_profiler(DurationNs period);

  /// The decision the client would take right now (no side effects).
  Decision current_decision() const;

  /// Redirects every subsequent request to a different service endpoint
  /// and session (live session migration or crash reroute — the cluster
  /// router's control-plane hand-off). Attempts already in flight finish
  /// against the old endpoint. Device-side state (partition cache,
  /// bandwidth estimator, cached k) stays: it describes the device and the
  /// link, and the server-side session state travelled with the migration.
  /// With weights_preloaded = false the shipped-parameter ledger resets —
  /// the new server starts without this model's weights.
  void rebind(SuffixService& server, std::uint64_t session);

  /// Cluster-degradation override: while set, every decision is pinned to
  /// p = n (pure local execution) without touching the breaker or the
  /// cached k — the router raises it on quorum loss and clears it when the
  /// control plane can see a majority again.
  void force_local(bool on) { forced_local_ = on; }

  std::uint64_t session() const { return session_; }
  const SuffixService* server() const { return server_; }

  /// Attaches telemetry (null detaches): infer() then records a root
  /// "request" span on `track` with nested partition-prepare / prefix-exec
  /// / suffix-wait / suffix-local children, decision/retry/fallback
  /// instants, and core.* counters + latency histograms. Call
  /// link.set_telemetry with the same track so transfer spans nest under
  /// the request. Purely observational.
  void set_telemetry(obs::Telemetry* telemetry, const std::string& track);

  double cached_k() const { return k_cached_; }
  const net::BandwidthEstimator& estimator() const { return estimator_; }
  const partition::PartitionCache& cache() const { return cache_; }
  const fault::CircuitBreaker& breaker() const { return breaker_; }

 private:
  sim::Task runtime_profiler(DurationNs period);
  sim::Task run_suffix_locally(std::size_t p, InferenceRecord* rec);
  /// The decision pinned to p = n (pure local execution).
  Decision local_decision() const;
  /// Resolves a shed request — admission ("server busy") or the
  /// dispatcher's will-miss drop — by finishing the suffix on the device.
  /// `event` names the trace instant.
  sim::Task degrade_to_device(std::size_t p, FailureKind why,
                              const char* event, InferenceRecord* rec);
  /// Trace recorder when telemetry is attached and tracing is on.
  obs::TraceRecorder* trace() const {
    return telemetry_ != nullptr ? telemetry_->trace() : nullptr;
  }
  void record_request_metrics(const InferenceRecord& rec);

  sim::Simulator* sim_;
  const hw::CpuModel* cpu_;
  const GraphCostProfile* profile_;
  net::Link* link_;
  SuffixService* server_;
  Policy policy_;
  RuntimeParams params_;
  std::uint64_t session_ = 0;
  net::BandwidthEstimator estimator_;
  partition::PartitionCache cache_;
  /// Serializes overlapping infer() calls: the device runs one inference
  /// at a time (callers may still issue them concurrently).
  sim::Resource infer_slot_;
  fault::CircuitBreaker breaker_;
  bool forced_local_ = false;
  double k_cached_ = 1.0;
  bool k_fetched_once_ = false;
  /// Parameter nodes already shipped to the server (weights_preloaded =
  /// false only).
  std::vector<bool> params_on_server_;
  Rng rng_;

  // Telemetry (optional; null = fully off). Metric handles are resolved
  // once in set_telemetry so the per-request path is O(1) pointer bumps.
  obs::Telemetry* telemetry_ = nullptr;
  obs::TrackId track_ = 0;
  obs::Counter* outcome_counters_[obs::kOutcomeCount] = {};
  obs::Counter* failure_counters_[obs::kFailureKindCount] = {};
  obs::Counter* retry_counter_ = nullptr;
  obs::Counter* breaker_counter_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;
  obs::Histogram* queue_wait_ms_ = nullptr;
};

}  // namespace lp::core

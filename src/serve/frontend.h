// Multi-tenant edge serving frontend.
//
// One EdgeServerFrontend owns the GPU on behalf of many offloading clients
// (the serving-system view of the paper's edge server, which "grows busy as
// more devices offload to it"). It replaces the per-client OffloadServer
// duplication with:
//   * per-client sessions — each holds the client's influential factor k
//     and its partition cache;
//   * a bounded request queue with pluggable ordering (FIFO / EDF / SPJF);
//   * admission control: when the predicted queue delay (backlog of
//     k-adjusted predictions plus the in-flight dispatch) exceeds a budget,
//     new requests are shed with a synchronous "server busy" reply, which
//     the client answers by degrading to local execution — and, for
//     LoADPart clients, by backing k off upward;
//   * suffix batching: compatible jobs — identical (model, partition point)
//     — are coalesced into one GPU dispatch, amortizing the per-op
//     framework dispatch cost across the batch.
//
// It shares the server core with core::OffloadServer (offload_runtime.h):
// the SuffixReply each request resolves, the LoadFactorTracker that owns
// k and its forecaster, the suffix cost model (preparation + jittered
// kernels) and the idle watcher. What stays its own is policy — the queue,
// admission, batching, fencing — and the k window: a session's k is
// measured against the *service* time (queue wait + preparation +
// execution), and a job counts as contended when it waited longer than the
// batching window. In the serving architecture the load signal a client
// feels is queueing at the frontend, not kernel interleaving, so k folds
// the queue in and the LoADPart feedback loop (k up -> partition retreats
// -> load drops) closes through the queue. core::OffloadServer measures k
// against kernel execution alone, so even one FIFO session with no
// admission control and batch 1 differs there: a partition-cache miss puts
// its preparation delay into the frontend's k sample, never into the
// OffloadServer's. The paper's figures keep the OffloadServer.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/load_signal.h"
#include "core/offload_runtime.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"
#include "serve/queue.h"

namespace lp::serve {

struct FrontendParams {
  QueuePolicy policy = QueuePolicy::kFifo;

  /// Bounded queue: arrivals beyond this are shed unconditionally.
  std::size_t queue_capacity = 64;

  /// Load shedding: reject when the predicted queue delay exceeds the
  /// budget (admission_control = false only sheds on a full queue).
  bool admission_control = false;
  double delay_budget_sec = 0.25;

  /// Suffix batching: coalesce up to max_batch compatible jobs per GPU
  /// dispatch; with batch_window > 0 the dispatcher waits that long after
  /// finding work so batch-mates can arrive. max_batch = 1 disables it.
  std::size_t max_batch = 1;
  DurationNs batch_window = 0;

  // Deadline-centric scheduling (ATLAS-style). Both default off so legacy
  // configurations stay bit-identical.

  /// Shed at submit when the request cannot make its own deadline: the
  /// predicted queue delay + predicted service + result download at the
  /// client's reported bandwidth already overruns request.deadline. Only
  /// requests that carry a deadline are tested; the static delay-budget
  /// check (admission_control) composes independently.
  bool deadline_admission = false;

  /// At dispatch, fail (SuffixStatus::kDeadlineShed) every queued job whose
  /// deadline has provably passed instead of burning a GPU slot on a
  /// guaranteed miss. The client degrades that request to local execution.
  bool shed_will_miss = false;
};

/// Every event count a frontend keeps, and the only place it keeps them:
/// EdgeServerFrontend::counters() returns this struct, LoadSnapshot carries
/// a copy of it, and publish() is the registry export.
struct FrontendCounters {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  /// Submissions refused (kDown) while the server was crashed.
  std::uint64_t refused = 0;
  std::uint64_t served = 0;
  /// Queued or in-flight jobs failed: crash casualties, fenced jobs and
  /// will-miss sheds.
  std::uint64_t failed_jobs = 0;
  std::uint64_t dispatches = 0;
  /// Dispatches that coalesced more than one job.
  std::uint64_t batched_dispatches = 0;
  /// Jobs served through coalesced dispatches.
  std::uint64_t batched_jobs = 0;
  /// Fail-stop crashes taken so far.
  std::uint64_t crashes = 0;
  std::uint64_t migrated_in = 0;   ///< jobs imported via session migration
  std::uint64_t migrated_out = 0;  ///< jobs exported via session migration
  std::uint64_t fenced_jobs = 0;   ///< zombie jobs rejected by epoch fence
  /// Queued jobs failed by the will-miss shedder (subset of failed_jobs,
  /// disjoint from fenced_jobs).
  std::uint64_t deadline_shed = 0;
  /// Submissions shed because deadline admission predicted a miss (subset
  /// of shed).
  std::uint64_t deadline_shed_admission = 0;
  /// Stale session imports rejected by the epoch fence.
  std::uint64_t rejected_imports = 0;

  /// Adds every count to `registry` as the counter "<prefix>.<field>".
  /// Several frontends publishing under one prefix sum there.
  void publish(obs::MetricsRegistry& registry,
               const std::string& prefix) const;
};

/// One coherent read of a frontend's load and conservation counters — the
/// payload of a cluster heartbeat and the single accessor the invariant
/// layer and the benches read instead of ad-hoc field-by-field getters.
struct LoadSnapshot : FrontendCounters {
  bool alive = true;
  std::size_t queue_depth = 0;
  std::size_t inflight_jobs = 0;
  /// Queued k-adjusted predictions plus the in-flight dispatch. Placement,
  /// the rebalancer and crash reroute read this field.
  double predicted_delay_sec = 0.0;
  double predict_mae = 0.0;         ///< mean |forecast error| of session k
  double predict_bias = 0.0;        ///< mean signed forecast error
  std::uint64_t predict_scored = 0; ///< forecast errors scored so far
};

/// The volatile per-session state a live migration carries to the new
/// server: copies of the session's k tracker (windows and forecaster) and
/// its partition cache. Export→import (same RuntimeParams) is bit-identical.
struct SessionState {
  core::LoadFactorTracker k;
  partition::PartitionCache cache;

  bool operator==(const SessionState&) const = default;
};

/// A non-blocking session export (the Ceph MDS exporter shape): the state
/// plus every queued job of the session, with a modeled wire size for the
/// cluster-interconnect transfer.
struct SessionExport {
  SessionState state;
  std::vector<QueuedJob> jobs;  ///< arrival order
  std::int64_t bytes = 0;       ///< modeled transfer payload
  /// Fencing epoch the router stamps on the transfer; the importer rejects
  /// the payload when its session fence has already moved past it (a late
  /// duplicate of an aborted or superseded migration).
  std::uint64_t epoch = 0;
};

class EdgeServerFrontend : public core::SuffixService {
 public:
  EdgeServerFrontend(sim::Simulator& sim, hw::GpuScheduler& scheduler,
                     const hw::GpuModel& gpu, FrontendParams params,
                     core::RuntimeParams runtime, std::uint64_t seed);

  /// Registers a client; the returned session id goes into the client's
  /// SuffixRequests (and the OffloadClient constructor). The profile must
  /// outlive the frontend.
  std::uint64_t open_session(const core::GraphCostProfile& profile);

  /// Admission decision, synchronously: refuse (kDown) while crashed; shed
  /// when the queue is full or the predicted queue delay exceeds the
  /// budget; otherwise enqueue.
  core::SubmitStatus submit(core::SuffixRequest request) override;

  /// Wires the fault plan: server_crash windows drive crash()/restart(),
  /// straggle windows inflate kernel times. The plan must outlive the
  /// frontend. (Link faults are the Link's business, not the frontend's.)
  void attach_fault_plan(const fault::FaultPlan* plan);

  /// Fail-stop crash: refuses new submissions, fails every queued and
  /// in-flight job with SuffixStatus::kServerDown (no request ever hangs),
  /// and wipes all volatile per-session state — partition caches and k
  /// windows. Sessions themselves survive (they are the
  /// registration, not the state); clients re-warm them through the
  /// ordinary profiler handshake after restart().
  void crash();

  /// Brings a crashed server back with cold caches and idle k.
  void restart();

  bool alive() const override { return !down_; }

  /// The session's load signal: its tracker's k forecast at `horizon`
  /// (>= 1, constraint 1c).
  core::LoadSignal load_signal(std::uint64_t session,
                               DurationNs horizon) const override;

  /// Spawns the GPU-utilization watcher: when utilization over a period
  /// falls below core::kIdleUtilization, every session's k resets to its
  /// idle baseline (Section IV, per session).
  void start_gpu_watcher(DurationNs period);

  std::size_t sessions() const { return sessions_.size(); }
  std::size_t queue_depth() const { return queue_.size(); }
  const FrontendCounters& counters() const { return counters_; }

  /// One coherent snapshot of load and conservation counters: the cluster
  /// heartbeat payload and the invariant layer's single read. O(1) in
  /// sessions.
  LoadSnapshot load_snapshot() const;

  /// Per-session submission count (the router's victim tie-break).
  struct SessionStats {
    std::uint64_t submitted = 0;
  };
  SessionStats session_stats(std::uint64_t session) const;

  /// Live-migration export: copies the session's volatile state (k
  /// tracker with its forecaster, partition cache), resets it
  /// locally, and removes every queued job of the session (counted
  /// migrated-out). The in-flight dispatch, if it contains the session,
  /// completes here — the export never blocks or drops work. The session
  /// registration itself survives (stragglers submitted before the client
  /// is redirected are still admitted here and served normally).
  SessionExport export_session(std::uint64_t session);

  /// Live-migration import into a previously opened local session: assigns
  /// the state and re-enqueues the jobs past the capacity bound (they were
  /// admitted once already; counted migrated-in). Importing into a crashed
  /// server fails the jobs with kServerDown instead — migration never turns
  /// into a hang — and drops the state (a crash wipes it anyway).
  /// Returns false — touching NO counters or jobs — when the export's
  /// fencing epoch is older than the session's current fence: a zombie
  /// duplicate of a superseded transfer, which the caller still owns.
  /// Throws ContractError — before touching anything — when the payload
  /// comes from a differently configured server: its k window capacity,
  /// forecaster kind or cache capacity differs from this server's.
  bool import_session(std::uint64_t session, SessionExport ex);

  /// Raises the session's fencing epoch (idempotent, raising-only; a lower
  /// or equal epoch is a no-op). Every queued job of the session stamped
  /// with an older epoch fails typed kFenced — the client retries at the
  /// session's new home — and the in-flight dispatch's members are fenced
  /// at completion. Volatile session state resets: a zombie's windows
  /// describe a placement the session has left. Returns the number of
  /// queued jobs fenced.
  std::size_t fence_session(std::uint64_t session, std::uint64_t epoch);

  /// The session's current fencing epoch.
  std::uint64_t session_fence(std::uint64_t session) const;

  const partition::PartitionCache& session_cache(std::uint64_t session) const;
  const core::LoadFactorTracker& session_tracker(std::uint64_t session) const;

  /// The request queue itself — read-only, for the invariant layer
  /// (check::audit recomputes the backlog and conservation sums from it).
  const RequestQueue& queue() const { return queue_; }

  /// Jobs currently dispatched on the GPU (0 when the dispatcher is idle).
  std::size_t inflight_jobs() const {
    return inflight_ != nullptr ? inflight_->size() : 0;
  }

  /// Attaches telemetry (null detaches). The frontend then records, on its
  /// own "frontend" track: admission verdicts (instants), a queue-depth
  /// counter series, per-job "queue-wait" async intervals keyed by the job
  /// sequence number (closed at dispatch — or at crash() for casualties),
  /// "batch" spans tagged with occupancy, and crash/restart instants; plus
  /// batch occupancy / queue-wait histograms. The counters are not mirrored
  /// live: the owner publishes counters() once the run is over. Purely
  /// observational. `track` names
  /// the trace track (a cluster gives each server its own, e.g. "server0";
  /// the default keeps single-server traces byte-identical to before).
  void set_telemetry(obs::Telemetry* telemetry,
                     const std::string& track = "frontend");

 private:
  struct Session {
    const core::GraphCostProfile* profile;
    core::LoadFactorTracker k;
    partition::PartitionCache cache;
    SessionStats stats = {};
    /// Fencing epoch: raised only by fence_session. Jobs carry the fence
    /// at admission and die (kFenced) when it moves on; an accepted import
    /// stamps its jobs with the transfer's epoch and leaves the fence as
    /// it is.
    std::uint64_t fence = 0;
  };

  sim::Task service();
  sim::Task execute_batch(std::vector<QueuedJob> batch);
  sim::Task crash_driver();

  /// Resets a session's volatile state — k window and forecaster and
  /// partition cache (entries and statistics) — to that of a fresh
  /// registration (migration export, fencing, crash).
  static void wipe(Session& session);

  /// Will-miss shedding: fails every queued job whose deadline has already
  /// passed with SuffixStatus::kDeadlineShed (params_.shed_will_miss path,
  /// called by the dispatcher just before it forms a batch).
  void shed_expired_jobs();

  /// Folds a session-k forecast error into the frontend-wide predict.*
  /// aggregate (skips the unscored first sample).
  void note_forecast_error(double err);

  /// Predicted delay a new arrival would see: queued backlog plus the
  /// remaining in-flight dispatch (LoadSnapshot::predicted_delay_sec).
  double predicted_queue_delay_sec() const;

  sim::Simulator* sim_;
  hw::GpuScheduler* scheduler_;
  const hw::GpuModel* gpu_;
  FrontendParams params_;
  core::RuntimeParams runtime_;
  hw::GpuScheduler::ContextId ctx_;
  std::deque<Session> sessions_;  // deque: stable across open_session
  RequestQueue queue_;
  sim::Event work_arrived_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
  double in_flight_sec_ = 0.0;
  FrontendCounters counters_;
  // Fault state. `epoch_` bumps on every crash; execute_batch re-checks it
  // after every suspension and abandons work from a dead epoch. `inflight_`
  // lets crash() fail the batch currently on the GPU.
  const fault::FaultPlan* faults_ = nullptr;
  bool down_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<QueuedJob>* inflight_ = nullptr;

  // Frontend-wide forecast-quality aggregate over session-k observations.
  // Survives crashes (it scores the predictors, not the sessions).
  double predict_abs_err_ = 0.0;
  double predict_err_ = 0.0;
  std::uint64_t predict_scored_ = 0;

  // Telemetry (optional; null = fully off). Handles resolved once in
  // set_telemetry so the submit/dispatch paths stay O(1).
  obs::TraceRecorder* trace() const {
    return telemetry_ != nullptr ? telemetry_->trace() : nullptr;
  }
  void observe_queue_depth();
  obs::Telemetry* telemetry_ = nullptr;
  obs::TrackId track_ = 0;
  obs::Histogram* batch_occupancy_ = nullptr;
  obs::Histogram* queue_wait_ms_ = nullptr;
  obs::Gauge* predict_mae_gauge_ = nullptr;
  obs::Gauge* predict_bias_gauge_ = nullptr;
  obs::Counter* predict_scored_counter_ = nullptr;
};

}  // namespace lp::serve

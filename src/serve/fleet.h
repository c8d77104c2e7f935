// FleetDriver: spawns a heterogeneous fleet of offloading clients against
// one EdgeServerFrontend and collects per-request records.
//
// Each tenant describes a model, a client count, a link, an arrival process
// and an SLO. A Testbed builds the simulated population from them: cost
// profiles, per-client links, clients and their request streams. It is
// the one testbed under both entry points. run_fleet() puts a single
// frontend behind it; cluster::run_cluster() puts N frontends and a router.
// Either runs for the configured duration and returns every
// InferenceRecord plus the servers' counters. Deterministic given
// config.seed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "net/bandwidth_trace.h"
#include "obs/taxonomy.h"
#include "obs/telemetry.h"
#include "serve/frontend.h"

namespace lp::serve {

/// One homogeneous group of clients (same model, link class and workload).
struct TenantSpec {
  std::string model = "alexnet";  ///< zoo name (models::make_model)
  int clients = 1;
  core::Policy policy = core::Policy::kLoadPart;
  net::BandwidthTrace upload = net::BandwidthTrace::constant(mbps(8));
  net::BandwidthTrace download = net::BandwidthTrace::constant(mbps(8));
  DurationNs rtt = milliseconds(2);
  /// Think time between a completed inference and the next request.
  DurationNs request_gap = milliseconds(5);
  /// Draw the think time exponentially with mean request_gap (Poisson-ish
  /// arrivals) instead of a fixed gap.
  bool poisson_arrivals = false;
  /// Markov-modulated bursts: with burst_gap > 0 each client flips between
  /// a calm state (mean gap = request_gap) and a burst state (mean gap =
  /// burst_gap, typically much smaller) after every request, entering with
  /// burst_enter_prob and leaving with burst_exit_prob. The default (0)
  /// draws no extra randomness, keeping legacy runs bit-identical.
  DurationNs burst_gap = 0;
  double burst_enter_prob = 0.05;
  double burst_exit_prob = 0.25;
  /// Per-request latency SLO: sets the EDF deadline and SLO accounting.
  /// 0 = no deadline.
  double slo_sec = 0.0;
};

/// What every testbed shares, whether one frontend serves it (FleetConfig)
/// or a routed cluster of them (cluster::ClusterConfig).
struct TestbedConfig {
  std::vector<TenantSpec> tenants;
  FrontendParams frontend;  ///< every server's
  core::RuntimeParams runtime;
  DurationNs duration = seconds(90);
  DurationNs warmup = seconds(30);  ///< excluded from summaries
  DurationNs profiler_period = seconds(5);
  DurationNs watcher_period = seconds(10);
  std::uint64_t seed = 1;

  /// Telemetry sink wired through the whole testbed (servers, links,
  /// clients); the servers' counters and per-tenant summaries are
  /// published into its registry after the run. Null (default) = fully
  /// off: the run is bit-identical to one without telemetry. Must outlive
  /// the run.
  obs::Telemetry* telemetry = nullptr;

  /// Period of the entry point's on_audit hook, in sim time.
  DurationNs audit_period = seconds(1);
};

struct FleetConfig : TestbedConfig {
  /// Fault schedule for the whole testbed: link faults apply to every
  /// tenant link, server crashes and straggle windows to the frontend.
  /// Empty (default) = the legacy no-failure universe, bit-identical to
  /// runs that predate fault injection.
  fault::FaultPlan faults;

  /// Invariant auditing hook (the check subsystem arms it): when set, the
  /// callback runs against the live frontend every audit_period of sim
  /// time (receiving the current sim clock, so the auditor can also assert
  /// clock monotonicity) and once more after the run. The callback must be
  /// purely observational; with it unset the run is bit-identical to
  /// before the hook existed.
  std::function<void(const EdgeServerFrontend&, TimeNs)> on_audit;
};

/// The record stream of one client, tagged with its tenant index.
struct ClientTrace {
  std::size_t tenant = 0;
  std::vector<core::InferenceRecord> records;

  bool operator==(const ClientTrace&) const = default;
};

/// Steady-state summary of one tenant (or of the whole fleet): a typed
/// view over the shared outcome taxonomy (obs::OutcomeCounts) plus derived
/// latency/SLO statistics. The count accessors forward to the tally — the
/// summary no longer maintains a parallel set of hand-rolled counters.
struct TenantSummary {
  std::string name;
  obs::OutcomeCounts outcomes;

  std::size_t requests() const { return outcomes.requests(); }
  std::size_t admitted() const { return outcomes.admitted(); }
  std::size_t degraded() const { return outcomes.degraded(); }
  std::size_t local() const { return outcomes.local(); }
  std::size_t recovered() const { return outcomes.recovered(); }
  std::size_t failed() const { return outcomes.failed(); }
  std::size_t retries() const { return outcomes.retries(); }
  std::size_t faults() const { return outcomes.faults(); }
  std::size_t breaker_forced_local() const {
    return outcomes.breaker_forced_local();
  }
  std::size_t timeouts() const { return outcomes.timeouts(); }
  std::size_t link_drops() const { return outcomes.link_drops(); }
  std::size_t server_downs() const { return outcomes.server_downs(); }
  /// Requests the dispatcher will-miss shed (degraded locally, typed
  /// FailureKind::kDeadlineShed).
  std::size_t deadline_sheds() const { return outcomes.deadline_sheds(); }

  double mean_ms = 0.0;      ///< over every completed request
  double p90_ms = 0.0;
  double admitted_mean_ms = 0.0;  ///< over admitted requests only
  double admitted_p90_ms = 0.0;
  double mean_queue_wait_ms = 0.0;  ///< admitted requests
  double mean_k = 1.0;
  std::size_t modal_p = 0;
  double shed_rate = 0.0;      ///< degraded / requests
  double slo_miss_rate = 0.0;  ///< total_sec > slo_sec (0 when no SLO)
  /// SLO misses among recovered-locally requests only: the price of riding
  /// out an outage on the device instead of dropping the request.
  double recovered_slo_miss_rate = 0.0;
  double requests_per_sec = 0.0;

  std::vector<std::string> table_row(int latency_digits = 1) const;

  /// Mirrors the tally and latency statistics into a registry under
  /// "<prefix>." (outcome/failure counters via OutcomeCounts::publish,
  /// latency and rate gauges alongside).
  void publish(obs::MetricsRegistry& registry,
               const std::string& prefix) const;
};

/// Steady-state records across traces (tenant -1 = all).
std::vector<const core::InferenceRecord*> steady_records(
    const std::vector<ClientTrace>& clients, DurationNs warmup,
    int tenant = -1);

/// The client traces every testbed run returns, with the per-tenant
/// accounting over them.
struct TestbedResult {
  std::vector<ClientTrace> clients;
  std::vector<std::string> tenant_names;
  std::vector<double> tenant_slo_sec;
  DurationNs warmup = 0;
  DurationNs duration = 0;

  /// Steady-state records of one tenant, or of every tenant (-1).
  std::vector<const core::InferenceRecord*> steady(int tenant = -1) const;
  TenantSummary summarize(int tenant = -1) const;
};

struct FleetResult : TestbedResult {
  /// Frontend load/conservation counters at the end of the run.
  LoadSnapshot frontend;
};

/// The simulated testbed under run_fleet and cluster::run_cluster: one
/// simulator, the servers (a GPU scheduler and an EdgeServerFrontend each)
/// and the tenant population. The entry points differ only in how many
/// servers they add and in who places a client's session. Construction
/// order is spawn order, so call add_server for every server, then
/// add_clients, then run.
class Testbed {
 public:
  /// Fills `result` (which must outlive the testbed) with one empty trace
  /// per client, in client order, plus the tenant names and SLOs.
  Testbed(const TestbedConfig& config,
          const core::PredictorBundle& predictors, TestbedResult* result);
  ~Testbed();
  // Spawned coroutines hold the testbed's address.
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulator& sim() { return sim_; }

  /// Adds a server with its own GPU scheduler, seeded `seed`: telemetry on
  /// trace track `track`, the GPU watcher, and `faults` (crashes and
  /// straggle windows) unless it is empty.
  EdgeServerFrontend& add_server(std::uint64_t seed, const std::string& track,
                                 const fault::FaultPlan& faults);
  const std::vector<EdgeServerFrontend*>& servers() const {
    return server_ptrs_;
  }

  /// Where a new client submits, and its session id there.
  struct Placement {
    core::SuffixService* service;
    std::uint64_t session;
  };

  /// Builds every tenant's clients and spawns their request streams.
  /// `place` opens each client's session, once per client in client order
  /// (so the i-th call is client i). Non-empty `link_faults` splice into
  /// every client link. With zipf_alpha > 0, client c of a tenant thinks
  /// (c + 1)^zipf_alpha times longer than request_gap: a hot head, a cold
  /// tail.
  void add_clients(
      const std::function<Placement(const core::GraphCostProfile&)>& place,
      const fault::FaultPlan& link_faults, double zipf_alpha);

  core::OffloadClient& client(std::size_t i) { return *clients_[i]; }
  std::size_t clients() const { return clients_.size(); }

  /// Runs until config.duration. A set `audit` runs every audit_period of
  /// sim time and once more after the run.
  void run(const std::function<void(TimeNs)>& audit);

  /// With telemetry on: publishes the servers' summed counters as serve.*
  /// and each tenant's steady-state summary as "<prefix>.t<i>.<model>.*".
  void publish(const std::string& prefix) const;

 private:
  struct Tenant;

  const TestbedConfig* config_;
  const core::PredictorBundle* predictors_;
  TestbedResult* result_;
  sim::Simulator sim_;
  const hw::CpuModel cpu_;
  const hw::GpuModel gpu_;
  std::vector<std::unique_ptr<hw::GpuScheduler>> schedulers_;
  std::vector<std::unique_ptr<EdgeServerFrontend>> servers_;
  std::vector<EdgeServerFrontend*> server_ptrs_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<core::OffloadClient>> clients_;
};

/// Runs the fleet; deterministic given config.seed.
FleetResult run_fleet(const FleetConfig& config,
                      const core::PredictorBundle& predictors);

}  // namespace lp::serve

#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"

namespace lp::serve {

namespace {

/// One client's closed loop: infer, record, think. `gap` is the tenant's
/// request_gap after Zipf scaling; the Markov burst state (burst_gap == 0
/// disables it and draws no randomness) and Poisson draws come from `spec`.
sim::Task client_stream(sim::Simulator& sim, core::OffloadClient& client,
                        const TenantSpec& spec, DurationNs gap, Rng rng,
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

sim::Task audit_driver(sim::Simulator& sim,
                       std::function<void(TimeNs)> audit,
                       DurationNs period) {
  for (;;) {
    co_await sim.delay(period);
    audit(sim.now());
  }
}

}  // namespace

std::vector<const core::InferenceRecord*> steady_records(
    const std::vector<ClientTrace>& clients, DurationNs warmup, int tenant) {
  std::vector<const core::InferenceRecord*> out;
  for (const ClientTrace& trace : clients) {
    if (tenant >= 0 && trace.tenant != static_cast<std::size_t>(tenant))
      continue;
    for (const core::InferenceRecord& rec : trace.records)
      if (rec.start >= warmup) out.push_back(&rec);
  }
  return out;
}

std::vector<const core::InferenceRecord*> TestbedResult::steady(
    int tenant) const {
  return steady_records(clients, warmup, tenant);
}

TenantSummary TestbedResult::summarize(int tenant) const {
  TenantSummary s;
  s.name = tenant < 0 ? "fleet"
                      : tenant_names[static_cast<std::size_t>(tenant)];

  std::vector<double> all_ms, admitted_ms;
  std::map<std::size_t, int> p_counts;
  double k_total = 0.0, wait_total = 0.0;
  std::size_t slo_misses = 0, recovered_slo_misses = 0;
  for (const ClientTrace& trace : clients) {
    if (tenant >= 0 && trace.tenant != static_cast<std::size_t>(tenant))
      continue;
    const double slo = tenant_slo_sec[trace.tenant];
    for (const core::InferenceRecord& rec : trace.records) {
      if (rec.start < warmup) continue;
      // The shared taxonomy tally replaces the per-outcome switch the
      // summary used to hand-roll.
      s.outcomes.add(rec.outcome, rec.last_failure, rec.retries, rec.faults,
                     rec.breaker_forced_local);
      ++p_counts[rec.p];
      k_total += rec.k_used;
      if (rec.outcome == core::InferenceOutcome::kFailed) {
        // A dropped request has no completion latency; it still counts
        // against requests and (unconditionally) against the SLO.
        if (slo > 0.0) ++slo_misses;
        continue;
      }
      all_ms.push_back(rec.total_sec * 1e3);
      if (rec.outcome == core::InferenceOutcome::kAdmitted) {
        admitted_ms.push_back(rec.total_sec * 1e3);
        wait_total += rec.queue_wait_sec;
      }
      if (slo > 0.0 && rec.total_sec > slo) {
        ++slo_misses;
        if (rec.outcome == core::InferenceOutcome::kRecoveredLocal)
          ++recovered_slo_misses;
      }
    }
  }
  if (s.requests() == 0) return s;
  if (!all_ms.empty()) {
    s.mean_ms = mean_of(all_ms);
    s.p90_ms = percentile(all_ms, 90);
  }
  if (!admitted_ms.empty()) {
    s.admitted_mean_ms = mean_of(admitted_ms);
    s.admitted_p90_ms = percentile(admitted_ms, 90);
    s.mean_queue_wait_ms =
        wait_total / static_cast<double>(s.admitted()) * 1e3;
  }
  if (s.recovered() > 0)
    s.recovered_slo_miss_rate = static_cast<double>(recovered_slo_misses) /
                                static_cast<double>(s.recovered());
  s.mean_k = k_total / static_cast<double>(s.requests());
  int best = -1;
  for (const auto& [p, count] : p_counts)
    if (count > best) {
      best = count;
      s.modal_p = p;
    }
  s.shed_rate =
      static_cast<double>(s.degraded()) / static_cast<double>(s.requests());
  s.slo_miss_rate =
      static_cast<double>(slo_misses) / static_cast<double>(s.requests());
  const double window = to_seconds(duration - warmup);
  if (window > 0.0)
    s.requests_per_sec = static_cast<double>(s.requests()) / window;
  return s;
}

std::vector<std::string> TenantSummary::table_row(int latency_digits) const {
  return {name,
          std::to_string(requests()),
          Table::num(mean_ms, latency_digits),
          Table::num(p90_ms, latency_digits),
          Table::num(admitted_p90_ms, latency_digits),
          Table::num(shed_rate * 100.0, 1) + "%",
          Table::num(mean_queue_wait_ms, latency_digits),
          std::to_string(modal_p),
          Table::num(mean_k, 1)};
}

void TenantSummary::publish(obs::MetricsRegistry& registry,
                            const std::string& prefix) const {
  outcomes.publish(registry, prefix);
  registry.gauge(prefix + ".mean_ms").set(mean_ms);
  registry.gauge(prefix + ".p90_ms").set(p90_ms);
  registry.gauge(prefix + ".admitted_p90_ms").set(admitted_p90_ms);
  registry.gauge(prefix + ".mean_queue_wait_ms").set(mean_queue_wait_ms);
  registry.gauge(prefix + ".mean_k").set(mean_k);
  registry.gauge(prefix + ".modal_p").set(static_cast<double>(modal_p));
  registry.gauge(prefix + ".shed_rate").set(shed_rate);
  registry.gauge(prefix + ".slo_miss_rate").set(slo_miss_rate);
  registry.gauge(prefix + ".requests_per_sec").set(requests_per_sec);
}

struct Testbed::Tenant {
  graph::Graph model;
  std::unique_ptr<core::GraphCostProfile> profile;
};

Testbed::Testbed(const TestbedConfig& config,
                 const core::PredictorBundle& predictors,
                 TestbedResult* result)
    : config_(&config), predictors_(&predictors), result_(result) {
  LP_CHECK(!config.tenants.empty());
  LP_CHECK(config.duration > 0);
  result->warmup = config.warmup;
  result->duration = config.duration;
  std::size_t total_clients = 0;
  for (const TenantSpec& spec : config.tenants) {
    LP_CHECK(spec.clients > 0);
    total_clients += static_cast<std::size_t>(spec.clients);
    result->tenant_names.push_back(spec.model);
    result->tenant_slo_sec.push_back(spec.slo_sec);
  }
  // Sized up front: the spawned streams hold references into the traces.
  result->clients.reserve(total_clients);
  for (std::size_t t = 0; t < config.tenants.size(); ++t)
    for (int c = 0; c < config.tenants[t].clients; ++c)
      result->clients.push_back(ClientTrace{t, {}});
}

Testbed::~Testbed() = default;

EdgeServerFrontend& Testbed::add_server(std::uint64_t seed,
                                        const std::string& track,
                                        const fault::FaultPlan& faults) {
  schedulers_.push_back(std::make_unique<hw::GpuScheduler>(sim_));
  servers_.push_back(std::make_unique<EdgeServerFrontend>(
      sim_, *schedulers_.back(), gpu_, config_->frontend, config_->runtime,
      seed));
  EdgeServerFrontend& server = *servers_.back();
  if (config_->telemetry != nullptr)
    server.set_telemetry(config_->telemetry, track);
  server.start_gpu_watcher(config_->watcher_period);
  if (!faults.empty()) server.attach_fault_plan(&faults);
  server_ptrs_.push_back(&server);
  return server;
}

void Testbed::add_clients(
    const std::function<Placement(const core::GraphCostProfile&)>& place,
    const fault::FaultPlan& link_faults, double zipf_alpha) {
  LP_CHECK(zipf_alpha >= 0.0);
  const TestbedConfig& config = *config_;
  const bool faulty = !link_faults.empty();
  std::size_t index = 0;
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSpec& spec = config.tenants[t];
    tenants_.push_back(std::unique_ptr<Tenant>(
        new Tenant{models::make_model(spec.model), nullptr}));
    tenants_.back()->profile = std::make_unique<core::GraphCostProfile>(
        tenants_.back()->model, *predictors_);
    const core::GraphCostProfile& profile = *tenants_.back()->profile;

    core::RuntimeParams runtime = config.runtime;
    runtime.slo_sec = spec.slo_sec;
    for (int c = 0; c < spec.clients; ++c, ++index) {
      const std::uint64_t seed =
          config.seed ^ (0x9e3779b97f4a7c15ull * (index + 2));
      // Link faults splice into every tenant trace: a blackout window
      // hits the whole radio environment, not one client.
      links_.push_back(std::make_unique<net::Link>(
          sim_,
          faulty ? net::apply_link_faults(spec.upload, link_faults)
                 : spec.upload,
          faulty ? net::apply_link_faults(spec.download, link_faults)
                 : spec.download,
          spec.rtt, seed ^ 0x71));
      if (faulty) links_.back()->attach_faults(&link_faults);
      const Placement home = place(profile);
      clients_.push_back(std::make_unique<core::OffloadClient>(
          sim_, cpu_, profile, *links_.back(), *home.service, spec.policy,
          runtime, seed ^ 0xc1, home.session));
      if (config.telemetry != nullptr) {
        // Client and link share one track so transfer spans nest under
        // the client's request spans.
        std::string track = "t";
        track += std::to_string(t);
        track += '/';
        track += spec.model;
        track += '#';
        track += std::to_string(c);
        links_.back()->set_telemetry(config.telemetry, track);
        clients_.back()->set_telemetry(config.telemetry, track);
      }
      clients_.back()->start_runtime_profiler(config.profiler_period);

      DurationNs gap = spec.request_gap;
      if (zipf_alpha > 0.0 && gap > 0)
        gap = std::max<DurationNs>(
            1, static_cast<DurationNs>(
                   static_cast<double>(gap) *
                   std::pow(static_cast<double>(c + 1), zipf_alpha)));
      sim_.spawn(client_stream(sim_, *clients_.back(), spec, gap,
                               Rng(seed ^ 0xa1),
                               result_->clients[index].records));
    }
  }
}

void Testbed::run(const std::function<void(TimeNs)>& audit) {
  if (audit) {
    LP_CHECK(config_->audit_period > 0);
    sim_.spawn(audit_driver(sim_, audit, config_->audit_period));
  }
  sim_.run_until(config_->duration);
  if (audit) audit(sim_.now());
}

void Testbed::publish(const std::string& prefix) const {
  if (config_->telemetry == nullptr) return;
  // One registry export then carries the whole experiment.
  auto& metrics = config_->telemetry->metrics();
  for (const EdgeServerFrontend* server : server_ptrs_)
    server->counters().publish(metrics, "serve");
  for (std::size_t t = 0; t < config_->tenants.size(); ++t) {
    std::string name = prefix;
    name += ".t";
    name += std::to_string(t);
    name += '.';
    name += result_->tenant_names[t];
    result_->summarize(static_cast<int>(t)).publish(metrics, name);
  }
}

FleetResult run_fleet(const FleetConfig& config,
                      const core::PredictorBundle& predictors) {
  FleetResult result;
  Testbed bed(config, predictors, &result);
  EdgeServerFrontend& frontend =
      bed.add_server(config.seed ^ 0xf00d, "frontend", config.faults);
  bed.add_clients(
      [&frontend](const core::GraphCostProfile& profile) {
        return Testbed::Placement{&frontend, frontend.open_session(profile)};
      },
      config.faults, /*zipf_alpha=*/0.0);
  std::function<void(TimeNs)> audit;
  if (config.on_audit)
    audit = [&](TimeNs now) { config.on_audit(frontend, now); };
  bed.run(audit);
  result.frontend = frontend.load_snapshot();
  bed.publish("fleet");
  return result;
}

}  // namespace lp::serve

#include "cluster/router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace lp::cluster {

namespace {
/// Fixed round trip of every migration transfer on the interconnect.
constexpr DurationNs kMigrationRtt = milliseconds(1);
/// Seeds the control-plane randomness (per-link heartbeat-loss sampling,
/// migration-loss sampling, retry jitter). Never drawn when no fault plan
/// is attached.
constexpr std::uint64_t kControlSeed = 0xc0117201;
}  // namespace

void RouterCounters::publish(obs::MetricsRegistry& registry,
                             const std::string& prefix) const {
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"heartbeats", heartbeats},
      {"migrations", migrations},
      {"migrated_jobs", migrated_jobs},
      {"reroutes", reroutes},
      {"aborted_migrations", aborted_migrations},
      {"migration_retries", migration_retries},
      {"late_imports_rejected", late_imports_rejected},
      {"zombie_imports", zombie_imports},
      {"stranded_jobs", stranded_jobs},
      {"false_reroutes", false_reroutes},
      {"degrade_transitions", degrade_transitions},
  };
  for (const auto& [name, count] : counts)
    registry.counter(prefix + "." + name).add(std::int64_t(count));
}

ClusterRouter::ClusterRouter(sim::Simulator& sim,
                             std::vector<serve::EdgeServerFrontend*> servers,
                             RouterParams params)
    : sim_(&sim),
      servers_(std::move(servers)),
      params_(params),
      homed_(servers_.size(), 0),
      detector_(servers_.size(), params.detector, params.heartbeat_period),
      rng_(kControlSeed) {
  LP_CHECK(!servers_.empty());
  for (serve::EdgeServerFrontend* server : servers_)
    LP_CHECK(server != nullptr);
  for (std::size_t i = 0; i < servers_.size(); ++i) ring_.add_server(i);
  links_.reserve(servers_.size());
  for (std::uint64_t i = 0; i < servers_.size(); ++i)
    links_.emplace_back(sim, kControlSeed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
}

void ClusterRouter::attach_heartbeat_faults(std::size_t server,
                                            const fault::FaultPlan* plan) {
  LP_CHECK(server < links_.size());
  links_[server].attach_faults(plan);
}

void ClusterRouter::attach_interconnect_faults(const fault::FaultPlan* plan) {
  LP_CHECK_MSG(plan == nullptr || params_.migration_timeout > 0,
               "a lossy interconnect requires a migration timeout");
  interconnect_faults_ = plan;
}

std::uint64_t ClusterRouter::open_session(
    const core::GraphCostProfile& profile) {
  const std::uint64_t session = bindings_.size();
  // Register on every server in lock-step so the local id equals the
  // cluster id everywhere — a migration imports into a session that
  // already exists, and the id never needs translating.
  for (serve::EdgeServerFrontend* server : servers_) {
    const std::uint64_t local = server->open_session(profile);
    LP_CHECK(local == session);
  }

  // Live snapshots: placement happens at setup time, before the first
  // heartbeat. Every server carries the same registrations, so the
  // least-loaded tie-break is the count of sessions *homed* here, which
  // makes the cold start round-robin.
  std::vector<serve::LoadSnapshot> loads;
  loads.reserve(servers_.size());
  for (const serve::EdgeServerFrontend* server : servers_)
    loads.push_back(server->load_snapshot(params_.heartbeat_period));
  const std::size_t home = place(session, loads);
  bindings_.push_back(SessionBinding{home, false, 0, 0});
  ++homed_[home];
  return session;
}

const SessionBinding& ClusterRouter::binding(std::uint64_t session) const {
  LP_CHECK(session < bindings_.size());
  return bindings_[session];
}

RouterCounters ClusterRouter::counters() const {
  RouterCounters c = counters_;
  for (const MigrationRecord& m : ledger_) {
    ++c.migrations;
    c.migrated_jobs += m.jobs;
    if (m.state == MigrationRecord::State::kAborted ||
        m.state == MigrationRecord::State::kDropped)
      ++c.aborted_migrations;
    if (m.state == MigrationRecord::State::kDropped) c.stranded_jobs += m.jobs;
  }
  return c;
}

void ClusterRouter::start() {
  LP_CHECK_MSG(!started_, "router already started");
  started_ = true;
  detector_.arm(sim_->now());
  sim_->spawn(heartbeat_loop());
}

sim::Task ClusterRouter::heartbeat_loop() {
  for (;;) {
    co_await sim_->delay(params_.heartbeat_period);
    collect_heartbeat();
    update_membership();
    // Quorum lost: the picture is mostly dark, and rerouting or migrating
    // against it is how split-brain thrash starts. Freeze; the clients are
    // on local fallback via on_degrade.
    if (degraded_) continue;
    reroute_dead_sessions();
    if (params_.rebalance) maybe_rebalance();
  }
}

void ClusterRouter::collect_heartbeat() {
  if (last_heartbeat_.size() != servers_.size())
    last_heartbeat_.resize(servers_.size());
  // Heartbeats forecast one refresh period ahead: the snapshot steers
  // decisions until the next heartbeat lands.
  for (std::size_t i = 0; i < servers_.size(); ++i)
    links_[i].send(servers_[i]->load_snapshot(params_.heartbeat_period),
                   [this, i](const serve::LoadSnapshot& snapshot) {
                     on_heartbeat(i, snapshot);
                   });
  ++counters_.heartbeats;
  detector_.tick(sim_->now());
  if (telemetry_ != nullptr) {
    auto& metrics = telemetry_->metrics();
    for (std::size_t i = 0; i < last_heartbeat_.size(); ++i) {
      const serve::LoadSnapshot& s = last_heartbeat_[i];
      const std::string prefix = "cluster.s" + std::to_string(i);
      metrics.gauge(prefix + ".predicted_delay_sec")
          .set(s.predicted_delay_sec);
      metrics.gauge(prefix + ".forecast_delay_sec").set(s.forecast_delay_sec);
      metrics.gauge(prefix + ".queue_depth")
          .set(static_cast<double>(s.queue_depth));
      if (auto* tr = telemetry_->trace())
        tr->counter(track_, "s" + std::to_string(i) + ".queue_depth",
                    sim_->now(), static_cast<double>(s.queue_depth));
    }
  }
}

void ClusterRouter::on_heartbeat(std::size_t server,
                                 const serve::LoadSnapshot& snapshot) {
  const bool was_dead = detector_.health(server) == Health::kDead;
  last_heartbeat_[server] = snapshot;
  detector_.heartbeat(server, sim_->now(), snapshot.alive);
  if (params_.detector.mode != DetectorParams::Mode::kOracle && was_dead &&
      snapshot.alive) {
    // A presumed-dead server is back — so it may never have crashed at
    // all. Every session that was rerouted away while it was dark is
    // fenced at its current binding epoch: queued zombies die typed, late
    // completions and stale state bounce, and conservation holds even
    // under false suspicion.
    for (std::uint64_t s = 0; s < bindings_.size(); ++s) {
      if (bindings_[s].server == server || bindings_[s].epoch == 0) continue;
      servers_[server]->fence_session(s, bindings_[s].epoch);
    }
  }
}

void ClusterRouter::update_membership() {
  std::size_t visible = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i)
    if (!detector_.dead(i)) ++visible;
  const bool degraded = visible * 2 < servers_.size();
  if (degraded == degraded_) return;
  degraded_ = degraded;
  ++counters_.degrade_transitions;
  if (telemetry_ != nullptr) {
    if (auto* tr = telemetry_->trace())
      tr->instant(track_, degraded ? "degrade" : "recover", sim_->now(),
                  obs::TraceArgs().arg("visible", visible));
  }
  if (on_degrade_) on_degrade_(degraded);
}

std::size_t ClusterRouter::usable_count() const {
  std::size_t usable = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i)
    if (detector_.usable(i)) ++usable;
  return usable;
}

std::size_t ClusterRouter::place(
    std::uint64_t session,
    const std::vector<serve::LoadSnapshot>& loads) const {
  if (params_.placement == Placement::kConsistentHash)
    return ring_.place_if(
        session, [this](std::size_t s) { return detector_.usable(s); });
  return least_loaded_server(loads);
}

std::size_t ClusterRouter::least_loaded_server(
    const std::vector<serve::LoadSnapshot>& loads) const {
  std::size_t best = loads.size();
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (!loads[i].alive || !detector_.usable(i)) continue;
    if (best == loads.size()) {
      best = i;
      continue;
    }
    // Forecast delay, not the instantaneous one: placement pays off over
    // the coming heartbeat period. The last-value default makes this the
    // reactive reading, bit for bit.
    const double di = loads[i].forecast_delay_sec;
    const double db = loads[best].forecast_delay_sec;
    if (di != db) {
      if (di < db) best = i;
      continue;
    }
    if (homed_[i] < homed_[best]) best = i;  // ties: fewer homes, lower i
  }
  LP_CHECK_MSG(best < loads.size(), "no alive server to place on");
  return best;
}

void ClusterRouter::redirect(std::uint64_t session, std::size_t server) {
  if (redirect_) redirect_(session, server);
}

const MigrationRecord* ClusterRouter::active_migration(
    std::uint64_t session) const {
  for (auto it = ledger_.rbegin(); it != ledger_.rend(); ++it)
    if (it->session == session &&
        it->state == MigrationRecord::State::kInFlight)
      return &*it;
  return nullptr;
}

void ClusterRouter::reroute_dead_sessions() {
  if (usable_count() == 0) return;  // nowhere to go: wait for daylight
  for (std::uint64_t session = 0; session < bindings_.size(); ++session) {
    SessionBinding& b = bindings_[session];
    if (b.migrating) {
      // A migration whose *target* died mid-transfer must not wait out the
      // full timeout ladder against a corpse: bump the fencing epoch,
      // which the migrate coroutine reads as a cancellation token at its
      // next suspension and aborts back to the source.
      const MigrationRecord* m = active_migration(session);
      if (m != nullptr && detector_.dead(m->target) && b.epoch == m->epoch)
        ++b.epoch;
      continue;
    }
    if (!detector_.dead(b.server)) continue;
    // Ground-truth instrumentation only: a falsely-suspected home makes
    // this reroute unnecessary, never incorrect (fencing keeps it safe).
    if (servers_[b.server]->alive()) ++counters_.false_reroutes;
    // The crash wiped the session state, so there is nothing to carry:
    // re-home per the placement policy and redirect the client. The new
    // server starts the session cold, exactly as a restart would. The
    // epoch bump fences whatever the abandoned placement still holds.
    ++b.epoch;
    const std::size_t target = place(session, last_heartbeat_);
    --homed_[b.server];
    b.server = target;
    b.last_move = sim_->now();
    ++homed_[target];
    ++counters_.reroutes;
    if (telemetry_ != nullptr) {
      if (auto* tr = telemetry_->trace())
        tr->instant(track_, "reroute", sim_->now(),
                    obs::TraceArgs()
                        .arg("session", session)
                        .arg("server", target));
    }
    redirect(session, target);
  }
}

void ClusterRouter::maybe_rebalance() {
  if (usable_count() < 2) return;
  // Hot and cold by predicted queue delay, usable servers only. Reading
  // the stored heartbeat keeps every decision a pure function of the
  // snapshot (determinism), at the price of acting on slightly stale
  // load — the same trade the Ceph MDS balancer makes.
  std::size_t hot = last_heartbeat_.size();
  std::size_t cold = last_heartbeat_.size();
  for (std::size_t i = 0; i < last_heartbeat_.size(); ++i) {
    if (!last_heartbeat_[i].alive || !detector_.usable(i)) continue;
    if (hot == last_heartbeat_.size() ||
        last_heartbeat_[i].forecast_delay_sec >
            last_heartbeat_[hot].forecast_delay_sec)
      hot = i;
    if (cold == last_heartbeat_.size() ||
        last_heartbeat_[i].forecast_delay_sec <
            last_heartbeat_[cold].forecast_delay_sec)
      cold = i;
  }
  if (hot == cold) return;
  const double skew = last_heartbeat_[hot].forecast_delay_sec -
                      last_heartbeat_[cold].forecast_delay_sec;
  if (skew <= params_.skew_threshold_sec) return;

  // Victim: the session contributing the most queued work on the hot
  // server (ties: more submissions, then the lower id — deterministic).
  std::vector<std::size_t> queued(bindings_.size(), 0);
  for (const serve::QueuedJob& job : servers_[hot]->queue().jobs())
    ++queued[job.session];
  std::uint64_t victim = bindings_.size();
  for (std::uint64_t s = 0; s < bindings_.size(); ++s) {
    const SessionBinding& b = bindings_[s];
    if (b.server != hot || b.migrating) continue;
    if (sim_->now() - b.last_move < params_.min_dwell && b.last_move > 0)
      continue;
    if (queued[s] == 0) continue;  // nothing to move, nothing to gain
    if (victim == bindings_.size()) {
      victim = s;
      continue;
    }
    if (queued[s] != queued[victim]) {
      if (queued[s] > queued[victim]) victim = s;
      continue;
    }
    if (servers_[hot]->session_stats(s).submitted >
        servers_[hot]->session_stats(victim).submitted)
      victim = s;
  }
  if (victim == bindings_.size()) return;
  sim_->spawn(migrate(victim, cold));
}

sim::Task ClusterRouter::migrate(std::uint64_t session, std::size_t target) {
  LP_CHECK(session < bindings_.size());
  LP_CHECK(target < servers_.size());
  SessionBinding& b = bindings_[session];
  if (b.migrating || b.server == target) co_return;
  b.migrating = true;
  const std::size_t source = b.server;
  // The transfer's fencing epoch. A concurrent bump (the reroute loop saw
  // the target die) doubles as the cancellation token.
  const std::uint64_t epoch = ++b.epoch;

  // Non-blocking export: state snapshot plus every queued job; the
  // in-flight dispatch (if any) finishes on the source. Stragglers the
  // client submits before its redirect land on the source and are served
  // there against the reset (cold) session state.
  serve::SessionExport ex = servers_[source]->export_session(session);
  ex.epoch = epoch;
  const std::size_t jobs = ex.jobs.size();
  in_transit_jobs_ += jobs;
  const std::uint64_t id = ledger_.size();
  ledger_.push_back(MigrationRecord{id, session, epoch, source, target, jobs,
                                    MigrationRecord::State::kInFlight, 0});
  if (telemetry_ != nullptr) {
    if (auto* tr = telemetry_->trace())
      tr->instant(track_, "migrate-begin", sim_->now(),
                  obs::TraceArgs()
                      .arg("session", session)
                      .arg("from", source)
                      .arg("to", target)
                      .arg("jobs", jobs)
                      .arg("bytes", ex.bytes));
  }

  bool arrived = false;
  for (int attempt = 0;; ++attempt) {
    ledger_[id].attempts = attempt + 1;
    // Sample the interconnect at the send instant: a blackout or sampled
    // loss silently eats the payload, and the router only learns at the
    // transfer timeout (attach_interconnect_faults requires one).
    bool lost = false;
    if (interconnect_faults_ != nullptr) {
      if (interconnect_faults_->link_down(sim_->now())) {
        lost = true;
      } else {
        const double p = interconnect_faults_->loss_prob(sim_->now());
        if (p > 0.0 && rng_.uniform() < p) lost = true;
      }
    }
    const DurationNs wire =
        kMigrationRtt + transfer_time(ex.bytes, params_.migration_bandwidth);
    const bool late =
        params_.migration_timeout > 0 && wire > params_.migration_timeout;
    if (!lost && !late) {
      // Modeled interconnect transfer of the payload.
      co_await sim_->delay(wire);
      if (b.epoch != epoch) break;  // cancelled mid-flight
      arrived = true;
      break;
    }
    if (!late) {
      // Lost outright: nothing will arrive.
    } else if (!lost) {
      // Merely slow: the payload still lands on the wire's schedule, long
      // after this attempt is written off — as a zombie the target (or
      // the ledger) must reject.
      sim_->spawn(late_delivery(id, session, target, ex, wire));
    }
    co_await sim_->delay(params_.migration_timeout);
    if (b.epoch != epoch) break;
    if (attempt >= params_.migration_max_retries) break;
    ++counters_.migration_retries;
    co_await sim_->delay(params_.migration_backoff.delay(attempt + 1, rng_));
    if (b.epoch != epoch) break;
  }

  if (arrived) {
    // Hand-off is atomic at this suspension point: jobs leave the
    // in-transit ledger in the same instant they enter the target's
    // counters, so the cluster conservation audit balances at every
    // observable time.
    if (servers_[target]->import_session(session, std::move(ex))) {
      in_transit_jobs_ -= jobs;
      ledger_[id].state = MigrationRecord::State::kCommitted;
      --homed_[source];
      b.server = target;
      b.last_move = sim_->now();
      b.migrating = false;
      ++homed_[target];
      if (telemetry_ != nullptr) {
        if (auto* tr = telemetry_->trace())
          tr->instant(track_, "migrate-end", sim_->now(),
                      obs::TraceArgs()
                          .arg("session", session)
                          .arg("to", target)
                          .arg("jobs", jobs));
      }
      redirect(session, target);
      co_return;
    }
    // The target fenced the payload (a newer epoch superseded it while it
    // was in flight): fall through to the abort path. import_session
    // touched nothing, so this coroutine still owns the jobs — except the
    // move left `ex` unspecified, so it must not be re-imported from here.
    // That cannot happen: a fence newer than `epoch` implies b.epoch moved
    // past `epoch` too, and the cancellation checks above would have
    // broken out before reaching the import. Assert it.
    LP_CHECK_MSG(false, "import rejected an epoch the router never fenced");
  }

  if (params_.return_to_source) {
    ledger_[id].state = MigrationRecord::State::kAborted;
    // Fence the target at a fresh epoch so any late copy of this transfer
    // bounces on arrival, then settle the jobs back at the source. A dead
    // source fails them typed (kServerDown) — the clients' retry/fallback
    // path owns them either way; nothing strands.
    const std::uint64_t fence = b.epoch == epoch ? ++b.epoch : b.epoch;
    servers_[target]->fence_session(session, fence);
    ex.epoch = fence;
    in_transit_jobs_ -= jobs;
    servers_[source]->import_session(session, std::move(ex));
    b.migrating = false;
    if (telemetry_ != nullptr) {
      if (auto* tr = telemetry_->trace())
        tr->instant(track_, "migrate-abort", sim_->now(),
                    obs::TraceArgs()
                        .arg("session", session)
                        .arg("back_to", source)
                        .arg("jobs", jobs));
    }
  } else {
    // Naive baseline: the payload is simply gone. Its jobs are stranded —
    // admitted but never settled — which is exactly the loss the chaos
    // bench measures the fencing path against.
    ledger_[id].state = MigrationRecord::State::kDropped;
    in_transit_jobs_ -= jobs;
    b.migrating = false;
  }
}

sim::Task ClusterRouter::late_delivery(std::uint64_t id,
                                       std::uint64_t session,
                                       std::size_t target,
                                       serve::SessionExport ex,
                                       DurationNs wire) {
  // The slow copy is still on the wire: it lands at the full transfer
  // time, long after the router wrote the attempt off.
  co_await sim_->delay(wire);
  const MigrationRecord::State state = ledger_[id].state;
  const std::size_t jobs = ex.jobs.size();
  if (state == MigrationRecord::State::kAborted ||
      state == MigrationRecord::State::kDropped) {
    // Robust mode fenced the target when it aborted, so the zombie bounces
    // off the epoch check. The naive baseline fences nothing — the target
    // absorbs a duplicate of jobs the clients already recovered, the
    // double execution the bench reports.
    if (servers_[target]->import_session(session, std::move(ex))) {
      counters_.zombie_imports += jobs;
      if (telemetry_ != nullptr) {
        if (auto* tr = telemetry_->trace())
          tr->instant(track_, "zombie-import", sim_->now(),
                      obs::TraceArgs()
                          .arg("session", session)
                          .arg("jobs", jobs));
      }
    } else {
      ++counters_.late_imports_rejected;
    }
    co_return;
  }
  // A retry of the same migration is still in flight — or already
  // committed — under the same epoch; the frontend fence cannot tell the
  // copies apart, so the ledger dedups at the router.
  ++counters_.late_imports_rejected;
}

void ClusterRouter::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  if (auto* tr = telemetry_->trace()) track_ = tr->track("cluster");
}

}  // namespace lp::cluster

// ClusterRouter: the control plane of a multi-server edge cluster.
//
// One router fronts N serve::EdgeServerFrontend instances on the same sim
// clock. It is control-plane only — clients hold a direct binding to their
// current server and submit to it without a per-request hop; the router
// owns *where that binding points*:
//
//   * placement — a new session lands on a server chosen by the configured
//     policy: a consistent-hash ring over the cluster session id
//     (deterministic, join-order independent, minimal movement), or
//     least-loaded by predicted queue delay (a live O(1) snapshot per
//     server at session open, the stored heartbeat on crash reroute);
//   * heartbeats — every heartbeat_period the router *sends itself* one
//     serve::LoadSnapshot per server over a per-server channel whose fault
//     plan can drop it (fault::FaultPlan::drops: a blackout, or a sampled
//     loss). A heartbeat that gets through arrives inline. The router
//     keeps the last snapshot that actually arrived per server and drives
//     every decision off that stored — possibly stale — view;
//   * failure detection — a FailureDetector turns the heartbeat arrival
//     stream into kAlive / kSuspect / kDead per server (oracle or missed
//     deadline). Suspects keep their sessions but take no
//     new placements or migrations; only kDead triggers reroute;
//   * crash reroute — sessions homed on a server declared dead are
//     re-placed on a usable server and their clients redirected. The
//     binding's fencing epoch bumps so any zombie completions or state the
//     presumed-dead server later produces are rejected, not double-served;
//   * live migration — when rebalancing is on and the predicted-delay skew
//     between the hottest and coldest usable servers exceeds the
//     threshold, the router exports the busiest session off the hot
//     server, ships it over a modeled (and optionally lossy) interconnect,
//     imports it on the cold server, and redirects the client. Every
//     migration is a ledger entry (id, epoch, source, target, jobs) with a
//     transfer timeout and bounded retry; an attempt that cannot land
//     aborts and re-imports the payload at the source, so a lost transfer
//     never strands queued jobs. Late copies of a superseded transfer
//     bounce off the target's fencing epoch (or the ledger). The
//     non-blocking export/import shape follows the Ceph MDS balancer's
//     subtree export protocol;
//   * degradation — when the detector can see less than a majority of the
//     fleet, the router stops rerouting and rebalancing (acting on a
//     mostly-dark picture is how split-brain thrash starts) and fires the
//     on_degrade hook, which the fleet wires to the clients' local-only
//     fallback.
//
// Everything is deterministic: decisions read stored snapshots, iteration
// is over index-ordered vectors, transfer delays are pure functions of the
// modeled payload, and control-plane randomness (loss sampling, retry
// jitter) comes from a dedicated seeded stream that is never drawn when no
// fault plan is armed — a chaos-free run is bit-identical to the oracle
// control plane.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/failure_detector.h"
#include "cluster/hash_ring.h"
#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "obs/telemetry.h"
#include "serve/frontend.h"

namespace lp::cluster {

enum class Placement {
  kConsistentHash,  ///< static: ring over the cluster session id
  kLeastLoaded,     ///< dynamic: min predicted queue delay at open time
};

struct RouterParams {
  Placement placement = Placement::kLeastLoaded;

  /// Heartbeat cadence: how often load snapshots are pulled and reroute /
  /// rebalance decisions run.
  DurationNs heartbeat_period = milliseconds(500);

  /// Live rebalancing: migrate sessions when load skew exceeds the
  /// threshold. Off = placement only (the static baselines).
  bool rebalance = false;

  /// Trigger: hottest-minus-coldest predicted queue delay (seconds) that
  /// starts a migration. A heartbeat round starts at most one: one careful
  /// move, then the next heartbeat shows its effect.
  double skew_threshold_sec = 0.2;

  /// A session that just moved is pinned for this long (anti-thrash).
  DurationNs min_dwell = seconds(2);

  /// Modeled cluster interconnect for the migration payload (plus a fixed
  /// 1 ms round trip per transfer).
  BitsPerSec migration_bandwidth = mbps(400);

  /// Failure detection. The default (kOracle) trusts each delivered
  /// snapshot's alive flag verbatim — exact on a lossless control plane.
  DetectorParams detector;

  /// Migration reliability. A timeout of 0 trusts the interconnect: a
  /// transfer is never declared lost (attaching an interconnect fault plan
  /// therefore requires a timeout). With a timeout, an attempt that has
  /// not landed in time is retried up to migration_max_retries times with
  /// migration_backoff between attempts; a spent budget aborts the
  /// migration.
  DurationNs migration_timeout = 0;
  int migration_max_retries = 0;
  fault::BackoffPolicy migration_backoff;

  /// On abort, re-import the exported payload at the source so its queued
  /// jobs settle there (exactly-once). false = naive baseline: the payload
  /// is gone and its jobs are stranded — the chaos bench's measurable-loss
  /// arm.
  bool return_to_source = true;
};

/// Every event count the router keeps, and the only place it keeps them:
/// ClusterRouter::counters() returns this struct, ClusterResult extends it,
/// and publish() is the cluster.* registry export after the run. The four
/// migration-outcome counts are folded from the ledger, not kept beside it.
struct RouterCounters {
  std::uint64_t heartbeats = 0;     ///< heartbeat rounds sent
  std::uint64_t migrations = 0;     ///< ledger entries (migrations started)
  std::uint64_t migrated_jobs = 0;  ///< queued jobs carried by migrations
  std::uint64_t reroutes = 0;       ///< sessions re-homed off dead servers
  /// Migrations that ended kAborted or kDropped (lost / timed out past the
  /// retry budget / cancelled because the target died mid-flight).
  std::uint64_t aborted_migrations = 0;
  /// Re-sends of a migration payload after a transfer timeout.
  std::uint64_t migration_retries = 0;
  /// Late transfer copies rejected (by the target's fence or the ledger).
  std::uint64_t late_imports_rejected = 0;
  /// Late copies the target absorbed because nothing fenced them — only
  /// possible in the naive baseline; a double execution each.
  std::uint64_t zombie_imports = 0;
  /// Jobs abandoned by dropped transfers (naive baseline only; always 0
  /// with return_to_source).
  std::uint64_t stranded_jobs = 0;
  /// Reroutes of sessions whose server was in fact alive (ground-truth
  /// instrumentation of false suspicion; the run stays correct, the
  /// reroute was merely unnecessary).
  std::uint64_t false_reroutes = 0;
  /// Transitions into / out of the degraded (quorum-lost) state.
  std::uint64_t degrade_transitions = 0;

  /// Adds every count to `registry` as the counter "<prefix>.<field>".
  void publish(obs::MetricsRegistry& registry,
               const std::string& prefix) const;
};

/// Where a cluster session currently lives. The local session id equals
/// the cluster session id on every server (the router opens the session on
/// all of them in lock-step), so an export/import pair never renumbers.
struct SessionBinding {
  std::size_t server = 0;
  bool migrating = false;   ///< an export/import is in flight
  TimeNs last_move = 0;     ///< when it last migrated (dwell pinning)
  /// Fencing epoch: bumped on every reroute, migration start, migration
  /// abort, and mid-flight cancellation. Servers reject session state and
  /// completions stamped with an older epoch (see
  /// serve::EdgeServerFrontend::fence_session); the migrate coroutine also
  /// reads a concurrent bump as a cancellation token.
  std::uint64_t epoch = 0;
};

/// One migration in the exactly-once ledger; its id is its ledger index.
/// kInFlight entries' jobs sum to in_transit_jobs() at every instant
/// (audited); a terminal entry is either committed at the target or
/// aborted back to the source — the naive baseline (return_to_source =
/// false) instead drops the payload (kDropped) and strands its jobs.
struct MigrationRecord {
  std::uint64_t id = 0;
  std::uint64_t session = 0;
  std::uint64_t epoch = 0;  ///< fencing epoch stamped on the transfer
  std::size_t source = 0;
  std::size_t target = 0;
  std::size_t jobs = 0;
  enum class State : std::uint8_t { kInFlight, kCommitted, kAborted, kDropped };
  State state = State::kInFlight;
  int attempts = 0;
};

class ClusterRouter {
 public:
  /// The frontends must outlive the router. At least one server.
  ClusterRouter(sim::Simulator& sim,
                std::vector<serve::EdgeServerFrontend*> servers,
                RouterParams params);

  /// Places a new session per the policy and registers it on *every*
  /// server (so migration targets always have the registration; the local
  /// id equals the returned cluster id on each). The profile must outlive
  /// the router.
  std::uint64_t open_session(const core::GraphCostProfile& profile);

  /// The client-redirect hook: called as redirect(session, new_server)
  /// after a migration lands or a crash reroute re-homes the session; the
  /// callback rebinds the owning OffloadClient. Unset = clients keep
  /// submitting to the old server (stragglers still conserve).
  void set_redirect(
      std::function<void(std::uint64_t, std::size_t)> redirect) {
    redirect_ = std::move(redirect);
  }

  /// Degradation hook: fired with true when the detector loses sight of a
  /// majority of the fleet (the router then freezes reroute/rebalance) and
  /// with false when quorum returns. The fleet wires this to
  /// core::OffloadClient::force_local.
  void set_on_degrade(std::function<void(bool)> on_degrade) {
    on_degrade_ = std::move(on_degrade);
  }

  /// Arms loss/blackout on one server's heartbeat channel (plan must
  /// outlive the router; null detaches).
  void attach_heartbeat_faults(std::size_t server,
                               const fault::FaultPlan* plan);

  /// Arms loss/blackout on the migration interconnect. Requires a
  /// migration_timeout (a lost transfer must be discoverable).
  void attach_interconnect_faults(const fault::FaultPlan* plan);

  /// Spawns the heartbeat loop (call once, after sessions are wired).
  void start();

  /// Starts a live migration of `session` to `target` (a coroutine the
  /// heartbeat loop and tests spawn through the simulator). No-op when the
  /// session is already there or already moving.
  sim::Task migrate(std::uint64_t session, std::size_t target);

  std::size_t servers() const { return servers_.size(); }
  serve::EdgeServerFrontend& server(std::size_t i) { return *servers_[i]; }
  const serve::EdgeServerFrontend& server(std::size_t i) const {
    return *servers_[i];
  }
  std::size_t sessions() const { return bindings_.size(); }
  const SessionBinding& binding(std::uint64_t session) const;

  const FailureDetector& detector() const { return detector_; }

  /// The migration ledger, append-only in start order.
  const std::vector<MigrationRecord>& ledger() const { return ledger_; }

  /// Every count at this instant (the migration outcomes folded from the
  /// ledger).
  RouterCounters counters() const;
  /// One-field reads of counters().
  std::uint64_t heartbeats() const { return counters_.heartbeats; }
  std::uint64_t migrations() const { return ledger_.size(); }
  std::uint64_t reroutes() const { return counters_.reroutes; }

  /// Queued jobs currently riding a migration transfer between servers —
  /// exported (counted migrated-out) but not yet imported. The cluster
  /// conservation audit balances them explicitly.
  std::size_t in_transit_jobs() const { return in_transit_jobs_; }

  /// Attaches telemetry: per-server predicted-delay and queue-depth gauges
  /// refreshed each heartbeat, and migrate/reroute instants on a "cluster"
  /// trace track. The counters are not mirrored live: the owner publishes
  /// counters() once the run is over. Purely observational.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  sim::Task heartbeat_loop();
  void collect_heartbeat();
  void on_heartbeat(std::size_t server, const serve::LoadSnapshot& snapshot);
  void update_membership();
  void reroute_dead_sessions();
  void maybe_rebalance();
  sim::Task late_delivery(std::uint64_t id, std::uint64_t session,
                          std::size_t target, serve::SessionExport ex,
                          DurationNs wire);
  const MigrationRecord* active_migration(std::uint64_t session) const;
  /// Home for `session` per the placement policy: the consistent-hash arc
  /// walked past unusable servers, or the least-loaded usable server in
  /// `loads`.
  std::size_t place(std::uint64_t session,
                    const std::vector<serve::LoadSnapshot>& loads) const;
  /// Least-loaded usable server (ties: fewer homed sessions, lower index).
  std::size_t least_loaded_server(
      const std::vector<serve::LoadSnapshot>& loads) const;
  std::size_t usable_count() const;
  void redirect(std::uint64_t session, std::size_t server);

  sim::Simulator* sim_;
  std::vector<serve::EdgeServerFrontend*> servers_;
  RouterParams params_;
  HashRing ring_;  ///< 64 vnodes per server
  std::vector<SessionBinding> bindings_;  ///< by cluster session id
  std::vector<std::size_t> homed_;        ///< sessions homed per server
  std::vector<serve::LoadSnapshot> last_heartbeat_;
  /// One heartbeat channel per server: its fault plan (null = lossless)
  /// and the stream its loss sampling draws from.
  struct HeartbeatChannel {
    const fault::FaultPlan* faults = nullptr;
    Rng rng;
  };
  std::vector<HeartbeatChannel> channels_;
  FailureDetector detector_;
  const fault::FaultPlan* interconnect_faults_ = nullptr;
  Rng rng_;  ///< migration loss sampling + retry jitter only
  std::function<void(std::uint64_t, std::size_t)> redirect_;
  std::function<void(bool)> on_degrade_;
  bool started_ = false;
  bool degraded_ = false;

  std::vector<MigrationRecord> ledger_;
  /// The counts the ledger does not record; its four migration-outcome
  /// fields stay 0 here (counters() folds them).
  RouterCounters counters_;
  std::size_t in_transit_jobs_ = 0;

  obs::Telemetry* telemetry_ = nullptr;
  obs::TrackId track_ = 0;
};

}  // namespace lp::cluster

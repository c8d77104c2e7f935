#include "cluster/fleet.h"

#include <string>

#include "common/check.h"

namespace lp::cluster {

ClusterResult run_cluster(const ClusterConfig& config,
                          const core::PredictorBundle& predictors) {
  LP_CHECK(config.servers >= 1);
  ClusterResult result;
  serve::Testbed bed(config, predictors, &result);
  const fault::FaultPlan no_faults;
  for (std::size_t i = 0; i < config.servers; ++i)
    bed.add_server(config.seed ^ (0xf00d + 0x9e3779b97f4a7c15ull * (i + 1)),
                   "server" + std::to_string(i),
                   i < config.server_faults.size() ? config.server_faults[i]
                                                   : no_faults);

  ClusterRouter router(bed.sim(), bed.servers(), config.router);
  if (config.telemetry != nullptr) router.set_telemetry(config.telemetry);
  for (std::size_t i = 0;
       i < config.heartbeat_faults.size() && i < config.servers; ++i)
    if (!config.heartbeat_faults[i].empty())
      router.attach_heartbeat_faults(i, &config.heartbeat_faults[i]);
  if (!config.interconnect_faults.empty())
    router.attach_interconnect_faults(&config.interconnect_faults);

  // The router places the session; the client binds directly to its home
  // server (the router is control plane only — no data-path hop).
  bed.add_clients(
      [&router](const core::GraphCostProfile& profile) {
        const std::uint64_t session = router.open_session(profile);
        return serve::Testbed::Placement{
            &router.server(router.binding(session).server), session};
      },
      no_faults, config.zipf_alpha);

  // Redirect hook: cluster session ids are assigned in client-creation
  // order, so the session id is the client index.
  router.set_redirect([&bed, &router](std::uint64_t session,
                                      std::size_t server) {
    bed.client(session).rebind(router.server(server), session);
  });
  if (config.degrade_to_local)
    router.set_on_degrade([&bed](bool degraded) {
      for (std::size_t i = 0; i < bed.clients(); ++i)
        bed.client(i).force_local(degraded);
    });
  router.start();

  std::function<void(TimeNs)> audit;
  if (config.on_audit)
    audit = [&](TimeNs now) { config.on_audit(router, now); };
  bed.run(audit);

  result.servers.reserve(config.servers);
  for (std::size_t i = 0; i < config.servers; ++i)
    result.servers.push_back(router.server(i).load_snapshot());
  static_cast<RouterCounters&>(result) = router.counters();
  result.death_events = router.detector().death_events();
  bed.publish("cluster");
  if (config.telemetry != nullptr)
    result.publish(config.telemetry->metrics(), "cluster");
  return result;
}

}  // namespace lp::cluster

// Cluster-layer claims: against a Zipf-skewed tenant population, dynamic
// least-loaded placement plus live session migration beats static
// consistent-hash placement on tail latency and served throughput, and the
// gap holds as the cluster scales out.
//
// Every configuration sees the identical offered load (same tenants, same
// think times, same seeds); only the router policy varies. The migrating
// configurations run under check::ClusterAuditor, so every heartbeat
// re-proves cluster-wide request conservation — a migration that lost or
// duplicated a request would abort the bench. A final section re-runs one
// configuration twice to show the record streams are bit-identical.
//
// --smoke shrinks the run for CI. --trace PATH writes a Chrome trace of
// one migrating 2-server run (CI runs it twice and byte-compares).
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "cluster/fleet.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/report.h"

namespace {

using namespace lp;

struct PolicyChoice {
  std::string name;
  cluster::Placement placement;
  bool rebalance;
};

struct RunStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double served_per_sec = 0.0;
  double shed_rate = 0.0;
  cluster::RouterCounters router;
  std::size_t failed = 0;
  std::uint64_t audits = 0;  ///< conservation audits of this run
};

/// Zipf-skewed population of load-oblivious AlexNet clients: client i
/// thinks for gap * (i + 1)^1.2, so the head of the population dominates
/// the offered load — the shape that makes load-blind placement collide.
cluster::ClusterConfig base_config(std::size_t servers, DurationNs duration,
                                   DurationNs warmup) {
  cluster::ClusterConfig config;
  config.servers = servers;
  config.duration = duration;
  config.warmup = warmup;
  config.seed = 17;
  config.zipf_alpha = 1.2;
  config.router.heartbeat_period = milliseconds(250);
  config.router.skew_threshold_sec = 0.05;
  config.router.min_dwell = seconds(1);
  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = static_cast<int>(servers * 6);
  spec.policy = core::Policy::kNeurosurgeon;
  spec.upload = net::BandwidthTrace::constant(mbps(50));
  spec.download = net::BandwidthTrace::constant(mbps(50));
  spec.request_gap = milliseconds(2);
  config.tenants.push_back(spec);
  return config;
}

/// One run; `audited` runs it under its own check::ClusterAuditor (an
/// auditor's clock monitor spans one simulation).
RunStats run_policy(const cluster::ClusterConfig& base,
                    const PolicyChoice& policy,
                    const core::PredictorBundle& bundle, bool audited) {
  cluster::ClusterConfig config = base;
  config.router.placement = policy.placement;
  config.router.rebalance = policy.rebalance;
  check::ClusterAuditor auditor;
  if (audited) {
    config.on_audit = std::ref(auditor);
    config.audit_period = milliseconds(500);
  }
  const auto result = cluster::run_cluster(config, bundle);

  RunStats stats;
  std::vector<double> admitted_ms;
  for (const core::InferenceRecord* rec : result.steady())
    if (rec->outcome == core::InferenceOutcome::kAdmitted)
      admitted_ms.push_back(rec->total_sec * 1e3);
  if (!admitted_ms.empty()) {
    stats.p50_ms = percentile(admitted_ms, 50);
    stats.p90_ms = percentile(admitted_ms, 90);
    stats.p99_ms = percentile(admitted_ms, 99);
  }
  const double steady_sec = to_seconds(result.duration - result.warmup);
  stats.served_per_sec =
      static_cast<double>(admitted_ms.size()) / steady_sec;
  const auto summary = result.summarize();
  stats.shed_rate = summary.shed_rate;
  stats.failed = summary.failed();
  stats.router = result;
  stats.audits = auditor.audits();
  return stats;
}

void determinism_check(const core::PredictorBundle& bundle,
                       obs::Report& report, DurationNs duration,
                       DurationNs warmup) {
  cluster::ClusterConfig config = base_config(2, duration, warmup);
  config.router.placement = cluster::Placement::kLeastLoaded;
  config.router.rebalance = true;
  const auto a = cluster::run_cluster(config, bundle);
  const auto b = cluster::run_cluster(config, bundle);
  const bool identical = a.clients == b.clients &&
                         a.migrations == b.migrations &&
                         a.migrated_jobs == b.migrated_jobs;
  std::size_t records = 0;
  for (const serve::ClientTrace& trace : a.clients)
    records += trace.records.size();
  std::printf(
      "Determinism: two migrating runs with seed %llu -> %zu records, "
      "%llu migrations, %s\n",
      static_cast<unsigned long long>(config.seed), records,
      static_cast<unsigned long long>(a.migrations),
      identical ? "bit-identical" : "DIVERGED");
  report.set("determinism_records", records);
  report.set("deterministic", identical);
}

int write_trace(const std::string& path,
                const core::PredictorBundle& bundle) {
  cluster::ClusterConfig config =
      base_config(2, seconds(10), seconds(2));
  config.router.placement = cluster::Placement::kLeastLoaded;
  config.router.rebalance = true;
  obs::Telemetry telemetry(/*tracing=*/true);
  config.telemetry = &telemetry;
  cluster::run_cluster(config, bundle);
  if (!telemetry.trace()->write_chrome_json(path)) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 path.c_str());
    return 1;
  }
  std::printf("[trace written to %s]\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_cluster.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else
      out_path = argv[i];
  }

  const auto bundle = core::train_default_predictors();
  if (!trace_path.empty()) return write_trace(trace_path, bundle);

  const DurationNs duration = smoke ? seconds(16) : seconds(45);
  const DurationNs warmup = smoke ? seconds(4) : seconds(10);
  const std::vector<std::size_t> server_counts =
      smoke ? std::vector<std::size_t>{2, 4}
            : std::vector<std::size_t>{2, 4, 8};
  const std::vector<PolicyChoice> policies = {
      {"consistent-hash", cluster::Placement::kConsistentHash, false},
      {"least-loaded", cluster::Placement::kLeastLoaded, false},
      {"least-loaded + migration", cluster::Placement::kLeastLoaded, true},
  };

  obs::Report report("cluster_scaling");
  auto& section = report.section(
      "scaling", {"servers", "policy", "p50_ms", "p90_ms", "p99_ms",
                  "served_per_sec", "shed_rate", "migrations"});

  std::printf(
      "Cluster scaling: Zipf(1.2)-skewed AlexNet population (6 clients "
      "per server, gap 2 ms at the head) vs router policy\n\n");

  // Acceptance bookkeeping: at how many cluster sizes does the migrating
  // router beat static hashing on p90 *and* served/s?
  std::size_t p90_wins = 0, served_wins = 0;
  std::uint64_t audits = 0;
  std::uint64_t total_migrations = 0;
  std::size_t migrating_failed = 0;

  for (const std::size_t servers : server_counts) {
    Table table({"policy", "p50(ms)", "p90(ms)", "p99(ms)", "served/s",
                 "shed", "migrations"});
    std::printf("--- %zu servers, %zu clients ---\n", servers, servers * 6);
    RunStats hash_stats, mig_stats;
    for (const PolicyChoice& policy : policies) {
      const cluster::ClusterConfig config =
          base_config(servers, duration, warmup);
      // The conservation auditor rides along wherever migration runs.
      const RunStats stats =
          run_policy(config, policy, bundle, policy.rebalance);
      audits += stats.audits;
      if (policy.placement == cluster::Placement::kConsistentHash)
        hash_stats = stats;
      if (policy.rebalance) {
        mig_stats = stats;
        total_migrations += stats.router.migrations;
        migrating_failed += stats.failed;
      }
      table.add_row({policy.name, Table::num(stats.p50_ms),
                     Table::num(stats.p90_ms), Table::num(stats.p99_ms),
                     Table::num(stats.served_per_sec, 1),
                     Table::num(stats.shed_rate * 100.0, 1) + "%",
                     std::to_string(stats.router.migrations)});
      section.add_row({servers, policy.name, stats.p50_ms, stats.p90_ms,
                       stats.p99_ms, stats.served_per_sec, stats.shed_rate,
                       static_cast<std::size_t>(stats.router.migrations)});
    }
    table.print();
    if (mig_stats.p90_ms < hash_stats.p90_ms) ++p90_wins;
    if (mig_stats.served_per_sec > hash_stats.served_per_sec)
      ++served_wins;
    std::printf("\n");
  }

  std::printf(
      "Reading: the hash ring places the Zipf-hot sessions blindly, so one "
      "server eats the head of the distribution and its queue sets the "
      "tail; least-loaded spreads the cold start and migration keeps "
      "chasing the skew as it develops, so p90 and served/s improve at "
      "equal offered load.\n\n");
  std::printf(
      "Migrating runs: %llu migrations, %llu conservation audits, "
      "%zu requests lost (must be 0); p90 wins %zu/%zu, served/s wins "
      "%zu/%zu\n",
      static_cast<unsigned long long>(total_migrations),
      static_cast<unsigned long long>(audits),
      migrating_failed, p90_wins, server_counts.size(), served_wins,
      server_counts.size());

  report.set("p90_wins", p90_wins);
  report.set("served_wins", served_wins);
  report.set("server_counts", server_counts.size());
  report.set("total_migrations", static_cast<std::size_t>(total_migrations));
  report.set("conservation_audits", static_cast<std::size_t>(audits));
  report.set("requests_lost", migrating_failed);

  determinism_check(bundle, report, duration / 2, warmup / 2);

  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  report.maybe_write_csv_env();
  return 0;
}

// Cluster chaos harness: partition tolerance of the control plane under
// lossy heartbeats, a mid-run server crash, and a lossy migration
// interconnect.
//
// Two arms see the identical offered load (same Zipf-skewed tenants, same
// seeds, same chaos schedule); only the failure-handling config differs:
//
//   robust — deadline failure detector (suspect after 2 missed heartbeats,
//            dead after 4), migration timeout + 2 retries, abort returns
//            the payload to the source, epoch fencing rejects zombie
//            deliveries, quorum loss degrades clients to local execution.
//            A check::ClusterAuditor re-proves cluster-wide request
//            conservation every heartbeat.
//   naive  — the pre-chaos oracle detector (trusts whatever snapshot gets
//            through) and fire-and-forget migration: a transfer that times
//            out is simply dropped (no retry, no return-to-source, no
//            fencing of the late copy).
//
// "Lost" counts admitted requests the cluster can no longer settle:
// stranded jobs (dropped mid-migration) plus zombie imports (late copies
// absorbed after the router moved on — double execution). The claim: the
// robust arm loses zero at every heartbeat/interconnect loss rate up to
// 50%, crash or no crash, while the naive arm measurably loses and
// double-executes at 20% loss.
//
// --smoke shrinks the run for CI. --trace PATH writes a Chrome trace of
// one robust 20%-loss crash run (CI runs it twice and byte-compares).
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

struct ChaosCell {
  double loss = 0.0;
  bool crash = false;
};

struct CellStats {
  double p90_ms = 0.0;
  double served_per_sec = 0.0;
  std::size_t failed = 0;
  std::size_t recovered_local = 0;
  cluster::RouterCounters router;
  std::uint64_t fenced = 0;  ///< summed over the servers
  double detect_ms = -1.0;   ///< time-to-detect the crash; -1 = n/a
  std::uint64_t audits = 0;  ///< conservation audits of this run

  std::uint64_t lost() const {
    return router.stranded_jobs + router.zombie_imports;
  }
};

/// Shared testbed: 3 servers, a Zipf(1.2)-skewed AlexNet population hot
/// enough to keep the rebalancer migrating, and the robust *client*
/// posture (timeout + retry + local fallback) in both arms — the contrast
/// under test is the control plane, not the client.
cluster::ClusterConfig base_config(DurationNs duration, DurationNs warmup) {
  cluster::ClusterConfig config;
  config.servers = 3;
  config.duration = duration;
  config.warmup = warmup;
  config.seed = 17;
  config.zipf_alpha = 1.2;
  config.router.heartbeat_period = milliseconds(250);
  config.router.rebalance = true;
  config.router.skew_threshold_sec = 0.05;
  config.router.min_dwell = seconds(1);
  config.runtime.fault.rpc_timeout_sec = 0.5;
  config.runtime.fault.max_retries = 2;
  config.runtime.fault.local_fallback = true;
  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 18;
  spec.policy = core::Policy::kNeurosurgeon;
  spec.upload = net::BandwidthTrace::constant(mbps(50));
  spec.download = net::BandwidthTrace::constant(mbps(50));
  spec.request_gap = milliseconds(2);
  config.tenants.push_back(spec);
  return config;
}

void apply_arm(cluster::ClusterConfig& config, bool robust) {
  config.router.migration_timeout = milliseconds(100);
  if (robust) {
    config.router.detector.mode =
        cluster::DetectorParams::Mode::kDeadline;
    config.router.detector.suspect_misses = 2;
    config.router.detector.dead_misses = 4;
    config.router.migration_max_retries = 2;
    config.router.migration_backoff.base_sec = 0.02;
    config.router.migration_backoff.max_sec = 0.2;
    config.router.return_to_source = true;
    config.degrade_to_local = true;
  } else {
    config.router.detector.mode = cluster::DetectorParams::Mode::kOracle;
    config.router.migration_max_retries = 0;
    config.router.return_to_source = false;
  }
}

void apply_chaos(cluster::ClusterConfig& config, const ChaosCell& cell,
                 TimeNs crash_at, TimeNs restart_at) {
  if (cell.loss > 0.0) {
    config.heartbeat_faults.resize(config.servers);
    for (auto& plan : config.heartbeat_faults)
      plan.packet_loss(0, config.duration, cell.loss);
    config.interconnect_faults.packet_loss(0, config.duration, cell.loss);
    // Chaos also congests the interconnect: a deep-queue payload now
    // exceeds the 100 ms transfer timeout, so the slow copy lands late —
    // the zombie the robust arm must fence and the naive arm absorbs.
    config.router.migration_bandwidth = mbps(0.1);
  }
  if (cell.crash) {
    config.server_faults.resize(1);
    config.server_faults[0].server_crash(crash_at, restart_at);
  }
}

CellStats run_cell(const cluster::ClusterConfig& base, bool robust,
                   const ChaosCell& cell, TimeNs crash_at,
                   TimeNs restart_at, const core::PredictorBundle& bundle) {
  cluster::ClusterConfig config = base;
  apply_arm(config, robust);
  apply_chaos(config, cell, crash_at, restart_at);
  // The robust arm runs under its own auditor (an auditor's clock monitor
  // spans one simulation).
  check::ClusterAuditor auditor;
  if (robust) {
    config.on_audit = std::ref(auditor);
    config.audit_period = config.router.heartbeat_period;
  }
  const auto result = cluster::run_cluster(config, bundle);

  CellStats stats;
  std::vector<double> admitted_ms;
  for (const core::InferenceRecord* rec : result.steady())
    if (rec->outcome == core::InferenceOutcome::kAdmitted)
      admitted_ms.push_back(rec->total_sec * 1e3);
  if (!admitted_ms.empty()) stats.p90_ms = percentile(admitted_ms, 90);
  stats.served_per_sec = static_cast<double>(admitted_ms.size()) /
                         to_seconds(result.duration - result.warmup);
  const auto summary = result.summarize();
  stats.failed = summary.failed();
  stats.recovered_local = summary.recovered();
  stats.router = result;
  for (const serve::LoadSnapshot& s : result.servers)
    stats.fenced += s.fenced_jobs;
  if (cell.crash)
    for (const auto& [server, at] : result.death_events)
      if (server == 0 && at >= crash_at) {
        stats.detect_ms = to_seconds(at - crash_at) * 1e3;
        break;
      }
  stats.audits = auditor.audits();
  return stats;
}

void determinism_check(const cluster::ClusterConfig& base,
                       const ChaosCell& cell, TimeNs crash_at,
                       TimeNs restart_at,
                       const core::PredictorBundle& bundle,
                       obs::Report& report) {
  cluster::ClusterConfig config = base;
  apply_arm(config, /*robust=*/true);
  apply_chaos(config, cell, crash_at, restart_at);
  const auto a = cluster::run_cluster(config, bundle);
  const auto b = cluster::run_cluster(config, bundle);
  const bool identical = a.clients == b.clients &&
                         a.migrations == b.migrations &&
                         a.aborted_migrations == b.aborted_migrations &&
                         a.migration_retries == b.migration_retries &&
                         a.death_events == b.death_events;
  std::size_t records = 0;
  for (const serve::ClientTrace& trace : a.clients)
    records += trace.records.size();
  std::printf(
      "Determinism: two chaos runs (20%% loss + crash, seed %llu) -> %zu "
      "records, %llu migrations, %s\n",
      static_cast<unsigned long long>(config.seed), records,
      static_cast<unsigned long long>(a.migrations),
      identical ? "bit-identical" : "DIVERGED");
  report.set("determinism_records", records);
  report.set("deterministic", identical);
}

int write_trace(const std::string& path,
                const core::PredictorBundle& bundle) {
  cluster::ClusterConfig config = base_config(seconds(16), seconds(4));
  apply_arm(config, /*robust=*/true);
  apply_chaos(config, {0.2, true}, seconds(7), seconds(12));
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
  std::string out_path = "BENCH_chaos.json";
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

  const DurationNs duration = smoke ? seconds(16) : seconds(40);
  const DurationNs warmup = smoke ? seconds(4) : seconds(8);
  // The crash lands inside the steady-state window (off the heartbeat
  // grid, so time-to-detect is honest) and heals before the end, so
  // detection, rerouting and recovery are all on the record.
  const TimeNs crash_at =
      warmup + (duration - warmup) / 4 + milliseconds(73);
  const TimeNs restart_at = warmup + (duration - warmup) * 5 / 8;
  const std::vector<double> loss_rates =
      smoke ? std::vector<double>{0.0, 0.2, 0.5}
            : std::vector<double>{0.0, 0.1, 0.2, 0.5};

  const cluster::ClusterConfig base = base_config(duration, warmup);
  obs::Report report("cluster_chaos");
  auto& section = report.section(
      "chaos", {"loss", "crash", "arm", "lost", "stranded", "zombies",
                "failed", "recovered_local", "migrations", "aborted",
                "retries", "fenced", "false_reroutes", "degrades",
                "detect_ms", "p90_ms", "served_per_sec"});

  std::printf(
      "Cluster chaos: heartbeat + interconnect loss x crash schedule, "
      "robust (deadline detector, fencing, retry, return-to-source) vs "
      "naive (oracle detector, fire-and-forget migration)\n\n");

  std::uint64_t audits = 0;
  std::uint64_t robust_lost = 0, naive_lost_at_20 = 0;
  std::uint64_t naive_lost_total = 0;
  double robust_detect_sum = 0.0;
  int robust_detect_count = 0;

  for (const bool crash : {false, true}) {
    Table table({"loss", "arm", "lost", "stranded", "zombies", "failed",
                 "recovered", "migrations", "aborted", "fenced",
                 "false_reroutes", "detect(ms)", "p90(ms)"});
    std::printf("--- %s ---\n",
                crash ? "crash: server 0 down mid-run" : "no crash");
    for (const double loss : loss_rates) {
      for (const bool robust : {true, false}) {
        const ChaosCell cell{loss, crash};
        const CellStats stats =
            run_cell(base, robust, cell, crash_at, restart_at, bundle);
        audits += stats.audits;
        if (robust) {
          robust_lost += stats.lost();
          if (stats.detect_ms >= 0.0) {
            robust_detect_sum += stats.detect_ms;
            ++robust_detect_count;
          }
        } else {
          naive_lost_total += stats.lost();
          if (crash && loss == 0.2) naive_lost_at_20 = stats.lost();
        }
        const cluster::RouterCounters& r = stats.router;
        table.add_row(
            {Table::num(loss * 100.0, 0) + "%", robust ? "robust" : "naive",
             std::to_string(stats.lost()), std::to_string(r.stranded_jobs),
             std::to_string(r.zombie_imports), std::to_string(stats.failed),
             std::to_string(stats.recovered_local),
             std::to_string(r.migrations),
             std::to_string(r.aborted_migrations),
             std::to_string(stats.fenced), std::to_string(r.false_reroutes),
             stats.detect_ms < 0.0 ? "-" : Table::num(stats.detect_ms),
             Table::num(stats.p90_ms)});
        section.add_row({loss, crash, robust ? "robust" : "naive",
                         static_cast<std::size_t>(stats.lost()),
                         static_cast<std::size_t>(r.stranded_jobs),
                         static_cast<std::size_t>(r.zombie_imports),
                         stats.failed, stats.recovered_local,
                         static_cast<std::size_t>(r.migrations),
                         static_cast<std::size_t>(r.aborted_migrations),
                         static_cast<std::size_t>(r.migration_retries),
                         static_cast<std::size_t>(stats.fenced),
                         static_cast<std::size_t>(r.false_reroutes),
                         static_cast<std::size_t>(r.degrade_transitions),
                         stats.detect_ms, stats.p90_ms,
                         stats.served_per_sec});
      }
    }
    table.print();
    std::printf("\n");
  }

  std::printf(
      "Reading: with fencing + timed retries + return-to-source the robust "
      "arm settles every admitted request at every loss rate (the "
      "conservation auditor re-proves it each heartbeat); the naive arm "
      "strands dropped transfers and absorbs late zombie copies, so "
      "admitted work is lost and double-executed once the interconnect "
      "gets lossy. (The naive arm's flatter p90 under chaos is "
      "survivorship: the deepest queues are exactly the payloads it "
      "dropped.)\n\n");
  std::printf(
      "Robust lost (all cells, must be 0): %llu | naive lost at 20%% loss "
      "+ crash (must be > 0): %llu | naive lost total: %llu | "
      "conservation audits: %llu | mean time-to-detect: %.0f ms\n",
      static_cast<unsigned long long>(robust_lost),
      static_cast<unsigned long long>(naive_lost_at_20),
      static_cast<unsigned long long>(naive_lost_total),
      static_cast<unsigned long long>(audits),
      robust_detect_count > 0 ? robust_detect_sum / robust_detect_count
                              : -1.0);

  report.set("robust_lost", static_cast<std::size_t>(robust_lost));
  report.set("naive_lost_at_20",
             static_cast<std::size_t>(naive_lost_at_20));
  report.set("naive_lost_total",
             static_cast<std::size_t>(naive_lost_total));
  report.set("conservation_audits", static_cast<std::size_t>(audits));
  report.set("mean_detect_ms",
             robust_detect_count > 0
                 ? robust_detect_sum / robust_detect_count
                 : -1.0);

  determinism_check(base, {0.2, true}, crash_at, restart_at, bundle,
                    report);

  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  report.maybe_write_csv_env();
  return 0;
}

// Deadline-centric scheduling bench: how much tardiness each queue policy
// leaves on the table, and what slack-aware dispatch + will-miss shedding
// buy on top.
//
// Workload: two periodic tasksets (AlexNet and SqueezeNet Neurosurgeon
// clients with fixed think times and per-tenant SLOs) plus the
// Markov-modulated heavy-traffic LoADPart tenant the predictor ablation
// introduced (calm 50 ms <-> burst 3 ms). Three load levels scale the
// periodic think times from near-capacity to overload.
//
// Arms: every queue policy (FIFO / EDF / SPJF / least-slack) twice — once
// plain, once with deadline admission + will-miss shedding. Reported per
// arm: deadline-miss ratio (failures count as misses, as does any request
// finishing past its SLO) and tardiness percentiles (lateness past the
// SLO, completed requests only). A determinism section re-runs one shedding
// arm twice with the same seed. The JSON (BENCH_tardiness.json) carries the
// headline claim: least-slack + shedding beats plain EDF on both miss
// ratio and tardiness p90 at two or more load levels. --smoke shrinks the
// runs for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "models/zoo.h"
#include "obs/report.h"
#include "serve/fleet.h"

namespace {

using namespace lp;

struct LoadLevel {
  std::string name;
  double gap_scale;  ///< multiplier on the periodic tenants' think times
};

struct Arm {
  std::string policy_name;
  serve::QueuePolicy policy;
  bool shedding;
};

std::string arm_label(const Arm& arm) {
  return arm.policy_name + (arm.shedding ? "+shed" : "");
}

serve::FleetConfig taskset_config(const Arm& arm, const LoadLevel& level,
                                  bool smoke) {
  serve::FleetConfig config;
  config.duration = smoke ? seconds(16) : seconds(45);
  config.warmup = smoke ? seconds(4) : seconds(9);
  config.seed = 23;
  config.profiler_period = seconds(2);
  config.frontend.policy = arm.policy;
  config.frontend.queue_capacity = 64;
  config.frontend.deadline_admission = arm.shedding;
  config.frontend.shed_will_miss = arm.shedding;

  // Periodic taskset A: AlexNet Neurosurgeon clients, 450 ms SLO.
  serve::TenantSpec alex;
  alex.model = "alexnet";
  alex.clients = 12;
  alex.policy = core::Policy::kNeurosurgeon;
  alex.upload = net::BandwidthTrace::constant(mbps(100));
  alex.download = net::BandwidthTrace::constant(mbps(100));
  alex.request_gap =
      DurationNs(static_cast<std::int64_t>(milliseconds(30) * level.gap_scale));
  alex.slo_sec = 0.45;
  config.tenants.push_back(alex);

  // Periodic taskset B: SqueezeNet Neurosurgeon clients, 450 ms SLO.
  serve::TenantSpec squeeze;
  squeeze.model = "squeezenet";
  squeeze.clients = 8;
  squeeze.policy = core::Policy::kNeurosurgeon;
  squeeze.upload = net::BandwidthTrace::constant(mbps(100));
  squeeze.download = net::BandwidthTrace::constant(mbps(100));
  squeeze.request_gap =
      DurationNs(static_cast<std::int64_t>(milliseconds(45) * level.gap_scale));
  squeeze.slo_sec = 0.45;
  config.tenants.push_back(squeeze);

  // Heavy-traffic tenant: the Markov-modulated LoADPart fleet from the
  // predictor ablation (calm 50 ms <-> burst 3 ms), unscaled — the bursts
  // are the background pressure every level shares.
  serve::TenantSpec bursty;
  bursty.model = "alexnet";
  bursty.clients = 16;
  bursty.policy = core::Policy::kLoadPart;
  bursty.upload = net::BandwidthTrace::constant(mbps(100));
  bursty.download = net::BandwidthTrace::constant(mbps(100));
  bursty.request_gap = milliseconds(50);
  bursty.poisson_arrivals = true;
  bursty.burst_gap = milliseconds(3);
  bursty.burst_enter_prob = 0.01;
  bursty.burst_exit_prob = 0.002;
  bursty.slo_sec = 0.325;
  config.tenants.push_back(bursty);
  return config;
}

struct ArmStats {
  std::size_t requests = 0;
  std::size_t misses = 0;
  double miss_ratio = 0.0;
  double tardy_p50_ms = 0.0;
  double tardy_p90_ms = 0.0;
  double tardy_p99_ms = 0.0;
  std::uint64_t deadline_shed = 0;
  std::uint64_t deadline_shed_admission = 0;
  std::uint64_t shed = 0;
};

/// Miss ratio and tardiness over steady-state records. A request misses
/// when it fails outright or completes past its tenant's SLO; tardiness is
/// the lateness past the SLO (0 for on-time requests), over completed
/// requests only — failures have no completion time to measure.
ArmStats arm_stats(const serve::FleetResult& result) {
  ArmStats out;
  std::vector<double> tardy_ms;
  for (const serve::ClientTrace& trace : result.clients) {
    const double slo = result.tenant_slo_sec[trace.tenant];
    for (const core::InferenceRecord& rec : trace.records) {
      if (rec.start < result.warmup) continue;
      ++out.requests;
      if (rec.outcome == core::InferenceOutcome::kFailed) {
        ++out.misses;
        continue;
      }
      const double tardy_sec = std::max(0.0, rec.total_sec - slo);
      tardy_ms.push_back(tardy_sec * 1e3);
      if (tardy_sec > 0.0) ++out.misses;
    }
  }
  if (out.requests > 0)
    out.miss_ratio =
        static_cast<double>(out.misses) / static_cast<double>(out.requests);
  if (!tardy_ms.empty()) {
    out.tardy_p50_ms = percentile(tardy_ms, 50);
    out.tardy_p90_ms = percentile(tardy_ms, 90);
    out.tardy_p99_ms = percentile(tardy_ms, 99);
  }
  out.deadline_shed = result.frontend.deadline_shed;
  out.deadline_shed_admission = result.frontend.deadline_shed_admission;
  out.shed = result.frontend.shed;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_tardiness.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[i];
  }

  const std::vector<LoadLevel> levels = {
      {"moderate", 1.6}, {"high", 1.0}, {"overload", 0.6}};
  const std::vector<Arm> arms = {
      {"fifo", serve::QueuePolicy::kFifo, false},
      {"fifo", serve::QueuePolicy::kFifo, true},
      {"edf", serve::QueuePolicy::kEdf, false},
      {"edf", serve::QueuePolicy::kEdf, true},
      {"spjf", serve::QueuePolicy::kSpjf, false},
      {"spjf", serve::QueuePolicy::kSpjf, true},
      {"least-slack", serve::QueuePolicy::kLeastSlack, false},
      {"least-slack", serve::QueuePolicy::kLeastSlack, true},
  };

  const auto bundle = core::train_default_predictors();
  obs::Report report("tardiness");
  auto& section = report.section(
      "arms", {"level", "policy", "shedding", "requests", "miss_ratio",
               "tardy_p50_ms", "tardy_p90_ms", "tardy_p99_ms", "deadline_shed",
               "deadline_shed_admission", "shed"});

  std::printf(
      "Tardiness bench: periodic AlexNet/SqueezeNet tasksets + "
      "Markov-modulated LoADPart tenant (%s)\n\n",
      smoke ? "smoke: 16 s" : "45 s");

  int levels_won = 0;
  for (const LoadLevel& level : levels) {
    std::printf("Load level '%s' (periodic gaps x%.1f)\n", level.name.c_str(),
                level.gap_scale);
    Table table({"arm", "requests", "miss", "tardy p50(ms)", "tardy p90(ms)",
                 "tardy p99(ms)", "will-miss shed", "admission shed"});
    ArmStats edf_plain, ls_shed;
    for (const Arm& arm : arms) {
      const auto result =
          serve::run_fleet(taskset_config(arm, level, smoke), bundle);
      const ArmStats s = arm_stats(result);
      table.add_row({arm_label(arm), std::to_string(s.requests),
                     Table::num(s.miss_ratio * 100.0, 1) + "%",
                     Table::num(s.tardy_p50_ms), Table::num(s.tardy_p90_ms),
                     Table::num(s.tardy_p99_ms),
                     std::to_string(s.deadline_shed),
                     std::to_string(s.deadline_shed_admission)});
      section.add_row({level.name, arm.policy_name, arm.shedding,
                       static_cast<std::int64_t>(s.requests), s.miss_ratio,
                       s.tardy_p50_ms, s.tardy_p90_ms, s.tardy_p99_ms,
                       static_cast<std::int64_t>(s.deadline_shed),
                       static_cast<std::int64_t>(s.deadline_shed_admission),
                       static_cast<std::int64_t>(s.shed)});
      if (arm.policy == serve::QueuePolicy::kEdf && !arm.shedding)
        edf_plain = s;
      if (arm.policy == serve::QueuePolicy::kLeastSlack && arm.shedding)
        ls_shed = s;
    }
    table.print();
    const bool won = ls_shed.miss_ratio < edf_plain.miss_ratio &&
                     ls_shed.tardy_p90_ms < edf_plain.tardy_p90_ms;
    levels_won += won;
    std::printf(
        "least-slack+shed vs plain EDF: miss %.1f%% vs %.1f%%, tardy p90 "
        "%.1f ms vs %.1f ms -> %s\n\n",
        ls_shed.miss_ratio * 100.0, edf_plain.miss_ratio * 100.0,
        ls_shed.tardy_p90_ms, edf_plain.tardy_p90_ms,
        won ? "win" : "no win");
    report.set("edf_plain_miss_" + level.name, edf_plain.miss_ratio);
    report.set("ls_shed_miss_" + level.name, ls_shed.miss_ratio);
    report.set("edf_plain_tardy_p90_ms_" + level.name, edf_plain.tardy_p90_ms);
    report.set("ls_shed_tardy_p90_ms_" + level.name, ls_shed.tardy_p90_ms);
  }

  // Determinism: the shedding arm re-run bit-identically with one seed.
  const Arm det_arm{"least-slack", serve::QueuePolicy::kLeastSlack, true};
  const auto det_a =
      serve::run_fleet(taskset_config(det_arm, levels.back(), true), bundle);
  const auto det_b =
      serve::run_fleet(taskset_config(det_arm, levels.back(), true), bundle);
  const bool deterministic = det_a.clients == det_b.clients;
  std::printf("Determinism: least-slack+shed re-run with seed 23 -> %s\n",
              deterministic ? "bit-identical" : "DIVERGED");

  report.set("levels", static_cast<std::int64_t>(levels.size()));
  report.set("levels_won", levels_won);
  report.set("ls_shed_beats_edf_plain", levels_won >= 2);
  report.set("deterministic", deterministic);
  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  report.maybe_write_csv_env();
  return 0;
}

// Claim bench: failure recovery under a scripted outage schedule.
//
// One FaultPlan hits an alexnet fleet with all three fault families:
//   * a fail-stop server crash (restarted with cold caches),
//   * a 30% packet-loss burst,
//   * a hard link blackout.
// Three recovery postures ride the same schedule (same seed, same plan):
//   * fail-stop       — timeout, no retries, no fallback: faults drop the
//                       request (what a naive client does today);
//   * retry           — timeout + 3 backoff retries, still no fallback;
//   * local-fallback  — timeout + 1 retry, then the suffix re-executes on
//                       the device from the boundary tensor it already
//                       holds, with a circuit breaker that pins the policy
//                       to local for a cooldown after repeated faults.
// Claims (exit 1 on violation):
//   1. fail-stop loses requests across the outage; local-fallback loses
//      none — every request terminates with a typed outcome;
//   2. retry alone already cuts the loss (packet loss is transient) but
//      cannot survive the crash window without a fallback;
//   3. during the server crash, local-fallback keeps the latency tail
//      bounded: the median rides at the local latency (the breaker) and
//      p99 is capped by the retry budget, not by the outage length;
//   4. the whole run is deterministic: a second run at the same seed
//      produces identical counters and percentiles.
// Emits the machine-readable summary to BENCH_fault.json (or argv[1]).
// --smoke shrinks the run for CI.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "hw/cpu_model.h"
#include "obs/report.h"
#include "serve/fleet.h"

namespace {

using namespace lp;

struct ModeResult {
  std::string name;
  std::size_t requests = 0;
  std::size_t admitted = 0;
  std::size_t recovered = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;
  std::size_t breaker_forced = 0;
  std::uint64_t crashes = 0;
  std::uint64_t refused = 0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  // Requests that *started* inside the crash window.
  std::size_t crash_requests = 0;
  std::size_t crash_failed = 0;
  double crash_median_ms = 0.0;
  double crash_p99_ms = 0.0;
};

ModeResult run_mode(const std::string& name,
                    const core::RuntimeParams::FaultToleranceParams& ft,
                    const fault::FaultPlan& plan, DurationNs total,
                    DurationNs warmup, TimeNs crash_begin, TimeNs crash_end,
                    const core::PredictorBundle& bundle) {
  serve::FleetConfig config;
  config.duration = total;
  config.warmup = warmup;
  config.profiler_period = seconds(2);
  config.seed = 77;
  config.faults = plan;
  config.runtime.fault = ft;
  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 4;
  spec.policy = core::Policy::kLoadPart;
  spec.upload = net::BandwidthTrace::constant(mbps(16));
  spec.download = net::BandwidthTrace::constant(mbps(16));
  spec.request_gap = milliseconds(15);
  config.tenants.push_back(spec);

  const auto result = serve::run_fleet(config, bundle);
  const auto summary = result.summarize();

  ModeResult m;
  m.name = name;
  m.requests = summary.requests();
  m.admitted = summary.admitted();
  m.recovered = summary.recovered();
  m.failed = summary.failed();
  m.retries = summary.retries();
  m.breaker_forced = summary.breaker_forced_local();
  m.crashes = result.frontend.crashes;
  m.refused = result.frontend.refused;
  m.mean_ms = summary.mean_ms;

  std::vector<double> all_ms, crash_ms;
  for (const auto* rec : result.steady()) {
    const bool lost = rec->outcome == core::InferenceOutcome::kFailed;
    if (!lost) all_ms.push_back(rec->total_sec * 1e3);
    if (rec->start >= crash_begin && rec->start < crash_end) {
      ++m.crash_requests;
      if (lost)
        ++m.crash_failed;
      else
        crash_ms.push_back(rec->total_sec * 1e3);
    }
  }
  if (!all_ms.empty()) m.p99_ms = percentile(all_ms, 99);
  if (!crash_ms.empty()) {
    m.crash_median_ms = percentile(crash_ms, 50);
    m.crash_p99_ms = percentile(crash_ms, 99);
  }
  return m;
}

bool same(const ModeResult& a, const ModeResult& b) {
  return a.requests == b.requests && a.failed == b.failed &&
         a.recovered == b.recovered && a.retries == b.retries &&
         a.mean_ms == b.mean_ms && a.p99_ms == b.p99_ms &&
         a.crash_p99_ms == b.crash_p99_ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lp;

  bool smoke = false;
  std::string out_path = "BENCH_fault.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[i];
  }

  const auto bundle = core::train_default_predictors();
  const DurationNs total = smoke ? seconds(40) : seconds(120);
  const DurationNs warmup = smoke ? seconds(4) : seconds(10);

  // One schedule for every mode: crash, then packet loss, then blackout.
  const TimeNs crash_begin = total / 3;
  const TimeNs crash_end = total * 45 / 100;
  const TimeNs loss_begin = total / 2;
  const TimeNs loss_end = total * 58 / 100;
  const TimeNs dark_begin = total * 66 / 100;
  const TimeNs dark_end = total * 75 / 100;
  fault::FaultPlan plan;
  plan.server_crash(crash_begin, crash_end)
      .packet_loss(loss_begin, loss_end, 0.30)
      .link_blackout(dark_begin, dark_end);

  core::RuntimeParams::FaultToleranceParams failstop;
  failstop.rpc_timeout_sec = 0.5;
  failstop.max_retries = 0;
  failstop.local_fallback = false;

  core::RuntimeParams::FaultToleranceParams retry = failstop;
  retry.max_retries = 3;

  core::RuntimeParams::FaultToleranceParams fallback = failstop;
  fallback.max_retries = 1;
  fallback.local_fallback = true;
  fallback.breaker_failures = 3;
  fallback.breaker_cooldown_sec = 2.0;

  const double local_ms =
      to_seconds(hw::CpuModel().graph_time(models::make_model("alexnet"))) *
      1e3;

  std::printf(
      "Fault recovery: alexnet x4 clients, 16 Mbps, %s s run.\n"
      "Schedule: server crash [%.0f, %.0f) s, 30%% packet loss "
      "[%.0f, %.0f) s, link blackout [%.0f, %.0f) s. Local latency "
      "%.1f ms.\n\n",
      smoke ? "40" : "120", to_seconds(crash_begin), to_seconds(crash_end),
      to_seconds(loss_begin), to_seconds(loss_end), to_seconds(dark_begin),
      to_seconds(dark_end), local_ms);

  std::vector<ModeResult> modes;
  modes.push_back(run_mode("fail-stop", failstop, plan, total, warmup,
                           crash_begin, crash_end, bundle));
  modes.push_back(run_mode("retry", retry, plan, total, warmup, crash_begin,
                           crash_end, bundle));
  modes.push_back(run_mode("local-fallback", fallback, plan, total, warmup,
                           crash_begin, crash_end, bundle));
  // Determinism: same seed, same plan => identical results.
  const ModeResult again = run_mode("local-fallback", fallback, plan, total,
                                    warmup, crash_begin, crash_end, bundle);

  Table table({"mode", "requests", "lost", "recovered", "retries",
               "breaker-local", "p99(ms)", "crash p50(ms)", "crash p99(ms)"});
  for (const ModeResult& m : modes)
    table.add_row({m.name, std::to_string(m.requests),
                   std::to_string(m.failed), std::to_string(m.recovered),
                   std::to_string(m.retries),
                   std::to_string(m.breaker_forced), Table::num(m.p99_ms),
                   Table::num(m.crash_median_ms), Table::num(m.crash_p99_ms)});
  table.print();

  const ModeResult& fs = modes[0];
  const ModeResult& rt = modes[1];
  const ModeResult& fb = modes[2];

  // The retry budget bounds a recovered request: each attempt pays at most
  // the timeout plus the capped backoff, then the local suffix runs.
  const double budget_ms =
      (fallback.max_retries + 1) *
          (fallback.rpc_timeout_sec + fallback.backoff.max_sec) * 1e3 +
      3.0 * local_ms;

  struct Claim {
    const char* text;
    bool ok;
  };
  const Claim claims[] = {
      {"every mode saw the crash (crashes >= 1, refused > 0)",
       fs.crashes >= 1 && rt.crashes >= 1 && fb.crashes >= 1 &&
           fb.refused > 0},
      {"fail-stop loses requests across the outage", fs.failed > 0},
      {"retry cuts the loss but cannot survive the crash alone",
       rt.failed > 0 && rt.failed < fs.failed && rt.retries > 0},
      {"local-fallback loses nothing; every request terminates typed",
       fb.failed == 0 && fb.recovered > 0},
      {"the breaker pinned requests to local during the outage",
       fb.breaker_forced > 0},
      {"crash-window median rides at the local latency (breaker)",
       fb.crash_median_ms > 0.0 && fb.crash_median_ms < 3.0 * local_ms},
      {"crash-window p99 is bounded by the retry budget, not the outage",
       fb.crash_p99_ms > 0.0 && fb.crash_p99_ms < budget_ms &&
           fb.crash_p99_ms < 0.5 * to_seconds(crash_end - crash_begin) * 1e3},
      {"deterministic: identical rerun at the same seed",
       same(fb, again)},
  };

  bool ok = true;
  std::printf("\n");
  for (const Claim& c : claims) {
    std::printf("%s %s\n", c.ok ? "PASS" : "FAIL", c.text);
    ok = ok && c.ok;
  }

  obs::Report report("fault_recovery");
  report.set("local_ms", local_ms);
  report.set("deterministic", same(modes[2], again));
  report.set("claims_ok", ok);
  auto& mode_section = report.section(
      "modes", {"name", "requests", "lost", "recovered", "retries",
                "breaker_local", "crashes", "refused", "mean_ms", "p99_ms",
                "crash_requests", "crash_lost", "crash_p50_ms",
                "crash_p99_ms"});
  for (const ModeResult& m : modes)
    mode_section.add_row(
        {m.name, m.requests, m.failed, m.recovered, m.retries,
         m.breaker_forced, static_cast<std::size_t>(m.crashes),
         static_cast<std::size_t>(m.refused), m.mean_ms, m.p99_ms,
         m.crash_requests, m.crash_failed, m.crash_median_ms, m.crash_p99_ms});
  auto& claim_section = report.section("claims", {"claim", "ok"});
  for (const Claim& c : claims) claim_section.add_row({c.text, c.ok});
  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  report.maybe_write_csv_env();

  if (!ok) {
    std::printf("\nclaim check FAILED\n");
    return 1;
  }
  std::printf("\nall claims hold; wrote %s\n", out_path.c_str());
  return 0;
}

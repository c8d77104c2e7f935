#include "serve/experiment.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "serve/frontend.h"

namespace lp::serve {

std::vector<const core::InferenceRecord*> ExperimentResult::steady() const {
  std::vector<const core::InferenceRecord*> out;
  for (const auto& r : records)
    if (r.start >= warmup) out.push_back(&r);
  if (out.empty())  // very short runs: fall back to everything
    for (const auto& r : records) out.push_back(&r);
  return out;
}

double ExperimentResult::mean_latency_sec() const {
  const auto rs = steady();
  LP_CHECK(!rs.empty());
  double total = 0.0;
  for (const auto* r : rs) total += r->total_sec;
  return total / static_cast<double>(rs.size());
}

double ExperimentResult::max_latency_sec() const {
  const auto rs = steady();
  LP_CHECK(!rs.empty());
  double worst = 0.0;
  for (const auto* r : rs) worst = std::max(worst, r->total_sec);
  return worst;
}

double ExperimentResult::percentile_latency_sec(double q) const {
  const auto rs = steady();
  LP_CHECK(!rs.empty());
  std::vector<double> values;
  values.reserve(rs.size());
  for (const auto* r : rs) values.push_back(r->total_sec);
  return percentile(std::move(values), q);
}

std::size_t ExperimentResult::modal_p() const {
  std::map<std::size_t, int> counts;
  for (const auto* r : steady()) ++counts[r->p];
  LP_CHECK(!counts.empty());
  std::size_t best = 0;
  int best_count = -1;
  for (const auto& [p, count] : counts)
    if (count > best_count) {
      best = p;
      best_count = count;
    }
  return best;
}

namespace {

sim::Task load_schedule_driver(sim::Simulator& sim, hw::LoadGenerator& gen,
                               std::vector<LoadPhase> schedule) {
  for (const auto& phase : schedule) {
    if (phase.at > sim.now()) co_await sim.delay(phase.at - sim.now());
    gen.set_level(phase.level);
  }
}

sim::Task request_stream(sim::Simulator& sim, core::OffloadClient& client,
                         DurationNs gap,
                         std::vector<core::InferenceRecord>& out) {
  for (;;) {
    core::InferenceRecord rec;
    co_await client.infer(&rec);
    out.push_back(rec);
    if (gap > 0) co_await sim.delay(gap);
  }
}

}  // namespace

ExperimentResult run_experiment(const graph::Graph& model,
                                const core::PredictorBundle& predictors,
                                const ExperimentConfig& config) {
  LP_CHECK(config.duration > 0);

  sim::Simulator sim;
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  hw::GpuScheduler scheduler(sim);
  hw::LoadGenerator load(sim, scheduler, gpu, config.seed ^ 0x10ad);
  load.start();
  sim.spawn(load_schedule_driver(sim, load, config.load_schedule));

  net::Link link(sim, config.upload, config.download, milliseconds(2),
                 config.seed ^ 0x71);

  const core::GraphCostProfile profile(model, predictors);
  // The paper's server: one session behind a FIFO queue with batch 1, so
  // every request dispatches on arrival and its k sample is its execution.
  EdgeServerFrontend server(sim, scheduler, gpu, FrontendParams{},
                            config.runtime, config.seed ^ 0x5e);
  const std::uint64_t session = server.open_session(profile);
  server.start_gpu_watcher(config.watcher_period);
  core::OffloadClient client(sim, cpu, profile, link, server, config.policy,
                             config.runtime, config.seed ^ 0xc1, session);
  client.start_runtime_profiler(config.profiler_period);

  ExperimentResult result;
  result.warmup = config.warmup;
  sim.spawn(request_stream(sim, client, config.request_gap, result.records));

  sim.run_until(config.duration);
  LP_CHECK_MSG(!result.records.empty(), "no inference completed");
  const predict::LoadPredictor& lp =
      server.session_tracker(session).predictor();
  result.predict_mae = lp.mae();
  result.predict_bias = lp.bias();
  result.predict_scored = lp.scored();
  return result;
}

}  // namespace lp::serve

// End-to-end experiment harness: wires the simulated testbed (device CPU,
// GPU scheduler with background load, WiFi link) to an offloading policy and
// runs one client's request stream against a one-session FIFO
// EdgeServerFrontend (the paper's single service thread), producing the
// latency series the paper's figures plot.
#pragma once

#include <string>
#include <vector>

#include "core/offload_runtime.h"
#include "hw/load_generator.h"
#include "net/bandwidth_trace.h"

namespace lp::serve {

/// A step of the background-load schedule (Figures 2 and 9).
struct LoadPhase {
  TimeNs at;
  hw::LoadLevel level;
};

struct ExperimentConfig {
  core::Policy policy = core::Policy::kLoadPart;
  net::BandwidthTrace upload = net::BandwidthTrace::constant(mbps(8));
  net::BandwidthTrace download = net::BandwidthTrace::constant(mbps(8));
  std::vector<LoadPhase> load_schedule = {{0, hw::LoadLevel::k0}};
  DurationNs duration = seconds(30);
  DurationNs request_gap = milliseconds(15);  // idle gap between requests
  DurationNs profiler_period = seconds(5);    // device runtime profiler
  DurationNs watcher_period = seconds(10);    // server GPU watcher
  DurationNs warmup = seconds(1);  // excluded from summary statistics
  core::RuntimeParams runtime;
  std::uint64_t seed = 1;
};

struct ExperimentResult {
  std::vector<core::InferenceRecord> records;  // all, including warmup
  DurationNs warmup = 0;

  /// Self-scored quality of the server's load predictor over the run: mean
  /// |error| and signed bias of its one-gap-ahead k forecasts, plus how
  /// many forecasts were scored. Zero when nothing was scored.
  double predict_mae = 0.0;
  double predict_bias = 0.0;
  std::uint64_t predict_scored = 0;

  /// Records after the warmup cutoff.
  std::vector<const core::InferenceRecord*> steady() const;
  double mean_latency_sec() const;
  double max_latency_sec() const;
  double percentile_latency_sec(double q) const;
  /// Most frequently chosen partition point in steady state.
  std::size_t modal_p() const;
};

/// Runs one experiment; deterministic given the config seed.
ExperimentResult run_experiment(const graph::Graph& model,
                                const core::PredictorBundle& predictors,
                                const ExperimentConfig& config);

}  // namespace lp::serve

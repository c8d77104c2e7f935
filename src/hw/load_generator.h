// Background computation-load generator (Section II).
//
// Seven processes share the GPU with the offloading service. For levels
// 30%..100%(l) each process periodically runs an AlexNet inference, with the
// period set so the aggregate offered load hits the target utilization.
// 100%(h) runs ResNet152 back-to-back in all processes: same measured
// utilization as 100%(l) but far deeper per-rotation queues, which is what
// separates the two cases in Figure 2.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hw/gpu_model.h"
#include "hw/gpu_scheduler.h"
#include "sim/simulator.h"

namespace lp::hw {

enum class LoadLevel { k0, k30, k50, k70, k90, k100l, k100h };

/// Target GPU utilization of a level (1.0 for both 100% variants).
double target_utilization(LoadLevel level);
std::string load_level_name(LoadLevel level);

/// The levels of Figure 2, in order.
const std::vector<LoadLevel>& all_load_levels();

class LoadGenerator {
 public:
  /// Uses `gpu` to size the background inference jobs. Call start() to
  /// spawn the worker processes.
  LoadGenerator(sim::Simulator& sim, GpuScheduler& scheduler,
                const GpuModel& gpu, std::uint64_t seed = 42);

  /// Spawns kBackgroundProcesses workers (idempotent guard: once only).
  void start();

  /// Changes the level; workers pick it up at their next iteration.
  void set_level(LoadLevel level) { level_ = level; }
  LoadLevel level() const { return level_; }

 private:
  sim::Task worker(int index);
  std::vector<DurationNs> jitter(const std::vector<DurationNs>& kernels,
                                 Rng& rng) const;

  sim::Simulator* sim_;
  GpuScheduler* scheduler_;
  LoadLevel level_ = LoadLevel::k0;
  bool started_ = false;
  Rng rng_;
  double jitter_frac_;
  std::vector<DurationNs> periodic_kernels_;  // AlexNet
  std::vector<DurationNs> heavy_kernels_;     // ResNet152
  DurationNs periodic_job_time_ = 0;
};

}  // namespace lp::hw

#include <gtest/gtest.h>

#include <cmath>

#include "hw/cpu_model.h"
#include "hw/gpu_model.h"
#include "hw/gpu_scheduler.h"
#include "hw/load_generator.h"
#include "models/zoo.h"

namespace lp::hw {
namespace {

TEST(CpuModel, CalibrationTargetsFromThePaper) {
  const CpuModel cpu;
  // VGG16 local inference ~5.2 s on the Raspberry Pi (Section V-C).
  const double vgg = to_seconds(cpu.graph_time(models::vgg16()));
  EXPECT_GT(vgg, 4.0);
  EXPECT_LT(vgg, 6.5);
  // Xception local ~1.8 s in the paper; our graph carries somewhat more
  // pointwise-conv work, landing slightly above (see EXPERIMENTS.md).
  const double xcp = to_seconds(cpu.graph_time(models::xception()));
  EXPECT_GT(xcp, 1.2);
  EXPECT_LT(xcp, 2.8);
  // AlexNet local: a few hundred ms.
  const double alex = to_seconds(cpu.graph_time(models::alexnet()));
  EXPECT_GT(alex, 0.15);
  EXPECT_LT(alex, 0.8);
}

TEST(CpuModel, MonotoneInSegment) {
  const CpuModel cpu;
  const auto g = models::alexnet();
  double prev = 0.0;
  for (std::size_t p = 1; p <= g.n(); ++p) {
    const double t = to_seconds(cpu.segment_time(g, 0, p));
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(CpuModel, NodeTimePositiveForComputeNodes) {
  const CpuModel cpu;
  const auto g = models::resnet50();
  for (std::size_t i = 1; i < g.backbone().size(); ++i) {
    const auto cfg = flops::config_of(g, g.backbone()[i]);
    EXPECT_GT(cpu.node_time(cfg), 0) << g.node(g.backbone()[i]).name;
  }
}

TEST(GpuModel, ServerFarFasterThanDevice) {
  const CpuModel cpu;
  const GpuModel gpu;
  for (const char* name : {"alexnet", "vgg16", "resnet50"}) {
    const auto g = models::make_model(name);
    const double dev = to_seconds(cpu.graph_time(g));
    const double srv =
        to_seconds(gpu.segment_time(g, 0, g.backbone().size() - 1));
    EXPECT_GT(dev / srv, 10.0) << name;  // the Pi-vs-T4 gap
  }
}

TEST(GpuModel, ServerComputeNegligibleVsUpload8Mbps) {
  // Figure 1's premise: at 8 Mbps, uploading the AlexNet input costs far
  // more than the whole inference on an idle server.
  const GpuModel gpu;
  const auto g = models::alexnet();
  const double upload =
      static_cast<double>(g.input_desc().bytes()) * 8.0 / mbps(8);
  const double srv =
      to_seconds(gpu.segment_time(g, 0, g.backbone().size() - 1));
  EXPECT_GT(upload / srv, 20.0);
}

TEST(GpuModel, SingleKernelShorterThanTimeSlice) {
  // Section III-C relies on single layers finishing inside a 2 ms slice.
  const GpuModel gpu;
  const GpuSchedulerParams sched;
  const auto g = models::vgg16();
  for (std::size_t i = 1; i < g.backbone().size(); ++i) {
    const auto t = gpu.kernel_time(flops::config_of(g, g.backbone()[i]));
    EXPECT_LT(to_seconds(t), sched.time_slice_sec)
        << g.node(g.backbone()[i]).name;
  }
}

TEST(GpuScheduler, SingleJobRunsImmediately) {
  sim::Simulator sim;
  GpuSchedulerParams params;
  params.context_switch_sec = 0.0;
  GpuScheduler sched(sim, params);
  const auto ctx = sched.create_context("t");
  TimeNs done_at = 0;
  auto runner = [](sim::Simulator& s, GpuScheduler& g,
                   GpuScheduler::ContextId c,
                   TimeNs& out) -> sim::Task {
    std::vector<DurationNs> kernels{milliseconds(1), milliseconds(2)};
    co_await g.run_job(c, std::move(kernels));
    out = s.now();
  };
  sim.spawn(runner(sim, sched, ctx, done_at));
  sim.run();
  EXPECT_EQ(done_at, milliseconds(3));
  EXPECT_EQ(sched.busy_ns(), milliseconds(3));
  EXPECT_EQ(sched.completed_kernels(), 2u);
  EXPECT_EQ(sched.completed_jobs(), 1u);
}

TEST(GpuScheduler, RoundRobinInterleavesContexts) {
  sim::Simulator sim;
  GpuSchedulerParams params;
  params.context_switch_sec = 0.0;
  GpuScheduler sched(sim, params);
  const auto a = sched.create_context("a");
  const auto b = sched.create_context("b");

  TimeNs a_done = 0, b_done = 0;
  auto runner = [](GpuScheduler& g, GpuScheduler::ContextId c,
                   std::vector<DurationNs> ks, sim::Simulator& s,
                   TimeNs& out) -> sim::Task {
    co_await g.run_job(c, std::move(ks));
    out = s.now();
  };
  // Each job: 4 kernels x 1 ms = 4 ms; slice = 2 ms. With round robin both
  // finish around 7-8 ms instead of 4 then 8.
  std::vector<DurationNs> ks(4, milliseconds(1));
  sim.spawn(runner(sched, a, ks, sim, a_done));
  sim.spawn(runner(sched, b, ks, sim, b_done));
  sim.run();
  EXPECT_EQ(std::max(a_done, b_done), milliseconds(8));
  EXPECT_GE(std::min(a_done, b_done), milliseconds(6));
}

TEST(GpuScheduler, NonPreemptiveKernelOverrunsSlice) {
  sim::Simulator sim;
  GpuSchedulerParams params;
  params.context_switch_sec = 0.0;
  GpuScheduler sched(sim, params);
  const auto a = sched.create_context("a");
  const auto b = sched.create_context("b");

  TimeNs b_done = 0;
  auto runner = [](GpuScheduler& g, GpuScheduler::ContextId c,
                   std::vector<DurationNs> ks, sim::Simulator& s,
                   TimeNs& out) -> sim::Task {
    co_await g.run_job(c, std::move(ks));
    out = s.now();
  };
  TimeNs a_done = 0;
  // A single 10 ms kernel cannot be preempted by the 2 ms slice.
  sim.spawn(runner(sched, a, {milliseconds(10)}, sim, a_done));
  sim.spawn(runner(sched, b, {milliseconds(1)}, sim, b_done));
  sim.run();
  EXPECT_EQ(a_done, milliseconds(10));
  EXPECT_EQ(b_done, milliseconds(11));
}

TEST(GpuScheduler, BusyTimeConservation) {
  sim::Simulator sim;
  GpuScheduler sched(sim);
  const auto a = sched.create_context("a");
  auto runner = [](GpuScheduler& g, GpuScheduler::ContextId c,
                   std::vector<DurationNs> ks) -> sim::Task {
    co_await g.run_job(c, std::move(ks));
  };
  DurationNs total = 0;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    std::vector<DurationNs> ks;
    for (int j = 0; j < 5; ++j) {
      ks.push_back(microseconds(static_cast<double>(rng.uniform_int(10, 500))));
      total += ks.back();
    }
    sim.spawn(runner(sched, a, std::move(ks)));
  }
  sim.run();
  EXPECT_EQ(sched.busy_ns(), total);
  EXPECT_EQ(sched.pending_kernels(), 0u);
}

TEST(GpuScheduler, RotationWaitMatchesFairShareFormula) {
  // 7 always-busy background contexts and a foreground job of total
  // duration T: with 2 ms slices and fair round-robin, the foreground
  // finishes in about T + ceil(T / slice) * 7 * (slice + switch).
  sim::Simulator sim;
  const GpuSchedulerParams params;  // 2 ms slice, 20 us switch
  GpuScheduler sched(sim, params);

  auto hog = [](GpuScheduler& g, GpuScheduler::ContextId c) -> sim::Task {
    for (;;) {
      std::vector<DurationNs> ks(40, microseconds(500));  // 20 ms of work
      co_await g.run_job(c, std::move(ks));
    }
  };
  for (int i = 0; i < kBackgroundProcesses; ++i)
    sim.spawn(hog(sched, sched.create_context("bg" + std::to_string(i))));

  const auto fg = sched.create_context("fg");
  TimeNs started = 0, finished = 0;
  auto fg_job = [](sim::Simulator& s, GpuScheduler& g,
                   GpuScheduler::ContextId c, TimeNs& t0,
                   TimeNs& t1) -> sim::Task {
    co_await s.delay(milliseconds(50));  // let the hogs saturate
    t0 = s.now();
    std::vector<DurationNs> ks(20, microseconds(300));  // T = 6 ms
    co_await g.run_job(c, std::move(ks));
    t1 = s.now();
  };
  sim.spawn(fg_job(sim, sched, fg, started, finished));
  sim.run_until(seconds(2));

  const double T = 6e-3;
  const double rotation =
      kBackgroundProcesses * (params.time_slice_sec +
                              params.context_switch_sec);
  const double expected = T + std::ceil(T / params.time_slice_sec) *
                                  rotation;
  const double measured = to_seconds(finished - started);
  EXPECT_NEAR(measured, expected, expected * 0.25);
  // And the inflation factor is near 1 + #background, the structural cap.
  EXPECT_NEAR(measured / T, 1.0 + kBackgroundProcesses,
              0.35 * (1.0 + kBackgroundProcesses));
}

TEST(GpuScheduler, ContextSwitchCostAccrues) {
  sim::Simulator sim;
  GpuSchedulerParams params;
  params.context_switch_sec = 1e-3;  // exaggerated for visibility
  GpuScheduler sched(sim, params);
  const auto a = sched.create_context("a");
  const auto b = sched.create_context("b");
  TimeNs a_done = 0, b_done = 0;
  auto runner = [](GpuScheduler& g, GpuScheduler::ContextId c,
                   std::vector<DurationNs> ks, sim::Simulator& s,
                   TimeNs& out) -> sim::Task {
    co_await g.run_job(c, std::move(ks));
    out = s.now();
  };
  // 2x 4 ms jobs, 2 ms slices: switches a->b->a->b plus the initial one.
  std::vector<DurationNs> ks(2, milliseconds(2));
  sim.spawn(runner(sched, a, ks, sim, a_done));
  sim.spawn(runner(sched, b, ks, sim, b_done));
  sim.run();
  // 8 ms of work + 4 switches x 1 ms.
  EXPECT_EQ(std::max(a_done, b_done), milliseconds(12));
}

TEST(GpuScheduler, RejectsEmptyJobAndBadContext) {
  sim::Simulator sim;
  GpuScheduler sched(sim);
  const auto ctx = sched.create_context("x");
  EXPECT_THROW((void)sched.run_job(ctx, {}), ContractError);
  EXPECT_THROW((void)sched.run_job(ctx + 1, {1}), ContractError);
}

class LoadLevelTest : public ::testing::TestWithParam<LoadLevel> {};

TEST_P(LoadLevelTest, GeneratorHitsUtilizationTarget) {
  const LoadLevel level = GetParam();
  sim::Simulator sim;
  GpuScheduler sched(sim);
  const GpuModel gpu;
  LoadGenerator load(sim, sched, gpu, 77);
  load.set_level(level);
  load.start();
  sim.run_until(seconds(20));

  const double target = target_utilization(level);
  const double measured = sched.utilization_since(0, 0);
  if (level == LoadLevel::k0) {
    EXPECT_LT(measured, 0.02);
  } else if (target < 1.0) {
    EXPECT_NEAR(measured, target, 0.12);
  } else {
    EXPECT_GT(measured, 0.93);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, LoadLevelTest,
                         ::testing::ValuesIn(all_load_levels()),
                         [](const auto& info) {
                           switch (info.param) {
                             case LoadLevel::k0: return "util0";
                             case LoadLevel::k30: return "util30";
                             case LoadLevel::k50: return "util50";
                             case LoadLevel::k70: return "util70";
                             case LoadLevel::k90: return "util90";
                             case LoadLevel::k100l: return "util100l";
                             case LoadLevel::k100h: return "util100h";
                           }
                           return "unknown";
                         });

TEST(LoadGenerator, HeavyLoadQueuesDeeperThanLight) {
  // 100%(l) and 100%(h) both saturate, but (h) keeps far more kernels
  // outstanding — the distinction Section II draws.
  auto pending_at_end = [](LoadLevel level) {
    sim::Simulator sim;
    GpuScheduler sched(sim);
    const GpuModel gpu;
    LoadGenerator load(sim, sched, gpu, 7);
    load.set_level(level);
    load.start();
    sim.run_until(seconds(10));
    return sched.pending_kernels();
  };
  EXPECT_GT(pending_at_end(LoadLevel::k100h),
            4 * pending_at_end(LoadLevel::k100l));
}

}  // namespace
}  // namespace lp::hw

#include "common/check.h"
#include <gtest/gtest.h>

#include "core/energy.h"
#include "models/zoo.h"
#include "serve/frontend.h"

namespace lp::core {
namespace {

TEST(EnergyModel, ComponentArithmetic) {
  hw::EnergyParams params;
  params.compute_watts = 4.0;
  params.idle_watts = 2.0;
  params.radio_watts = 1.0;
  params.tx_joules_per_byte = 1e-6;
  params.rx_joules_per_byte = 5e-7;
  const hw::EnergyModel energy(params);
  EXPECT_DOUBLE_EQ(energy.compute_joules(2.0), 8.0);
  EXPECT_DOUBLE_EQ(energy.wait_joules(3.0), 6.0);
  EXPECT_DOUBLE_EQ(energy.tx_joules(1'000'000, 1.0), 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(energy.rx_joules(1'000'000, 2.0), 2.0 + 0.5);
}

TEST(Energy, RecordAccountingSumsComponents) {
  const hw::EnergyModel energy;
  InferenceRecord rec;
  rec.device_sec = 0.1;
  rec.upload_sec = 0.2;
  rec.upload_bytes = 100'000;
  rec.server_sec = 0.05;
  rec.download_sec = 0.01;
  rec.download_bytes = 4'000;
  const double expected =
      energy.compute_joules(0.1) + energy.tx_joules(100'000, 0.2) +
      energy.rx_joules(4'000, 0.01) + energy.wait_joules(0.05);
  EXPECT_DOUBLE_EQ(device_energy_joules(rec, energy), expected);
}

TEST(Energy, LocalInferenceEnergyIsPureCompute) {
  const hw::EnergyModel energy;
  InferenceRecord rec;
  rec.device_sec = 0.3;
  EXPECT_DOUBLE_EQ(device_energy_joules(rec, energy),
                   energy.compute_joules(0.3));
}

TEST(Energy, BreakdownCoversAllCutsAndLocalRowHasNoRadio) {
  const auto g = models::alexnet();
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  const hw::EnergyModel energy;
  const auto rows = energy_breakdown(g, cpu, gpu, energy, mbps(8), mbps(8));
  ASSERT_EQ(rows.size(), g.n() + 1);
  // Local row: device compute only.
  EXPECT_NEAR(rows.back().joules,
              energy.compute_joules(to_seconds(cpu.graph_time(g))), 1e-9);
  for (const auto& row : rows) EXPECT_GT(row.joules, 0.0);
}

TEST(Energy, OptimumOffloadsAtLeastAsMuchAsLatencyOptimum) {
  // Waiting draws less power than computing, so the energy-optimal cut is
  // never later (more device-heavy) than the latency-optimal one here.
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  const hw::EnergyModel energy;
  for (const char* name : {"alexnet", "squeezenet", "resnet18"}) {
    SCOPED_TRACE(name);
    const auto g = models::make_model(name);
    for (double bw : {2.0, 8.0, 32.0}) {
      const auto latency_rows =
          latency_breakdown(g, cpu, gpu, mbps(bw), mbps(bw));
      std::size_t latency_p = 0;
      for (std::size_t i = 1; i < latency_rows.size(); ++i)
        if (latency_rows[i].total_sec < latency_rows[latency_p].total_sec)
          latency_p = i;
      const auto ep =
          energy_optimal_p(g, cpu, gpu, energy, mbps(bw), mbps(bw));
      EXPECT_LE(ep, latency_p) << "bw=" << bw;
    }
  }
}

TEST(Energy, MeanOverRecordsRejectsEmpty) {
  const hw::EnergyModel energy;
  EXPECT_THROW(mean_energy_joules({}, energy), ContractError);
}

TEST(Energy, RuntimeRecordsCarryTransferBytes) {
  // End-to-end: a full-offload inference reports the input upload bytes.
  const auto bundle = train_default_predictors(1234);
  const auto model = models::alexnet();
  sim::Simulator sim;
  hw::CpuModel cpu;
  hw::GpuModel gpu;
  hw::GpuScheduler scheduler(sim);
  net::Link link(sim, net::BandwidthTrace::constant(mbps(8)),
                 net::BandwidthTrace::constant(mbps(8)), milliseconds(2), 3);
  const GraphCostProfile profile(model, bundle);
  RuntimeParams params;
  serve::EdgeServerFrontend server(sim, scheduler, gpu,
                                   serve::FrontendParams{}, params, 5);
  OffloadClient client(sim, cpu, profile, link, server, Policy::kFullOffload,
                       params, 6, server.open_session(profile));
  InferenceRecord rec;
  auto run = [](OffloadClient& c, InferenceRecord& out) -> sim::Task {
    co_await c.infer(&out);
  };
  sim.spawn(run(client, rec));
  sim.run_until(seconds(10));
  EXPECT_EQ(rec.upload_bytes,
            model.input_desc().bytes() + kHeaderBytes);
  EXPECT_EQ(rec.download_bytes, model.output_desc().bytes());
  EXPECT_GT(device_energy_joules(rec, hw::EnergyModel()), 0.0);
}

}  // namespace
}  // namespace lp::core

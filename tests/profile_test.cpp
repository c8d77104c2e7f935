#include <gtest/gtest.h>

#include <cstdio>

#include "common/check.h"
#include "models/zoo.h"
#include "profile/gbt_predictor.h"
#include "profile/model_store.h"
#include "profile/offline_profiler.h"
#include "profile/sampler.h"
#include "profile/trainer.h"

namespace lp::profile {
namespace {

using flops::Device;
using flops::ModelKind;

TEST(Sampler, ProducesWellFormedConfigs) {
  Rng rng(42);
  for (ModelKind kind : flops::all_model_kinds()) {
    SCOPED_TRACE(model_kind_name(kind));
    for (int i = 0; i < 50; ++i) {
      const auto cfg = sample_config(kind, rng);
      EXPECT_EQ(flops::model_kind(cfg.op), kind);
      EXPECT_GT(flops::flops_of(cfg), 0);
      // Features must be computable on both devices.
      EXPECT_FALSE(flops::features_of(cfg, Device::kUser).empty());
      EXPECT_FALSE(flops::features_of(cfg, Device::kEdge).empty());
    }
  }
}

TEST(Profiler, DeterministicGivenSeed) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  ProfilerParams params;
  params.samples_per_kind = 20;
  OfflineProfiler a(cpu, gpu, params), b(cpu, gpu, params);
  const auto sa = a.profile(ModelKind::kConv, Device::kUser);
  const auto sb = b.profile(ModelKind::kConv, Device::kUser);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_DOUBLE_EQ(sa[i].seconds, sb[i].seconds);
}

TEST(Profiler, MeasurementsNearGroundTruth) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  ProfilerParams params;
  params.samples_per_kind = 50;
  OfflineProfiler profiler(cpu, gpu, params);
  for (const auto& s : profiler.profile(ModelKind::kConv, Device::kUser)) {
    const double truth = to_seconds(cpu.node_time(s.cfg));
    EXPECT_NEAR(s.seconds, truth, truth * 0.2);
  }
}

TEST(Trainer, ReportsReasonableAccuracy) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  OfflineProfiler profiler(cpu, gpu, {});
  Trainer trainer;
  for (Device device : {Device::kUser, Device::kEdge}) {
    const auto samples = profiler.profile(ModelKind::kMatMul, device);
    const auto [model, report] = trainer.train(ModelKind::kMatMul, device,
                                               samples);
    EXPECT_TRUE(model.trained());
    // MatMul is nearly linear in its features: MAPE well under 50%.
    EXPECT_LT(report.mape, 0.5);
    EXPECT_GT(report.train_n, report.test_n);
  }
}

TEST(Trainer, PredictorCompleteAndPositive) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  ProfilerParams params;
  params.samples_per_kind = 120;
  OfflineProfiler profiler(cpu, gpu, params);
  Trainer trainer;
  std::vector<TrainReport> reports;
  const auto predictor =
      trainer.train_all(profiler, Device::kUser, &reports);
  EXPECT_TRUE(predictor.complete());
  EXPECT_EQ(reports.size(),
            static_cast<std::size_t>(flops::kNumModelKinds));
  Rng rng(5);
  for (ModelKind kind : flops::all_model_kinds()) {
    const auto cfg = sample_config(kind, rng);
    EXPECT_GE(predictor.predict_seconds(cfg), 0.0);
  }
}

TEST(Trainer, EdgePredictionsFasterThanUser) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  ProfilerParams params;
  params.samples_per_kind = 150;
  OfflineProfiler profiler(cpu, gpu, params);
  Trainer trainer;
  const auto user = trainer.train_all(profiler, Device::kUser);
  const auto edge = trainer.train_all(profiler, Device::kEdge);
  Rng rng(9);
  int user_slower = 0, total = 0;
  for (int i = 0; i < 50; ++i) {
    const auto cfg = sample_config(ModelKind::kConv, rng);
    ++total;
    if (user.predict_seconds(cfg) > edge.predict_seconds(cfg))
      ++user_slower;
  }
  EXPECT_GT(user_slower, total * 9 / 10);
}

TEST(GbtPredictor, TrainsAndPredictsAllKinds) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  ProfilerParams params;
  params.samples_per_kind = 150;
  OfflineProfiler profiler(cpu, gpu, params);
  std::vector<TrainReport> reports;
  const auto gbt = train_gbt_all(profiler, Device::kUser, &reports);
  EXPECT_EQ(reports.size(),
            static_cast<std::size_t>(flops::kNumModelKinds));
  Rng rng(5);
  for (ModelKind kind : flops::all_model_kinds()) {
    SCOPED_TRACE(model_kind_name(kind));
    ASSERT_NE(gbt.model(kind), nullptr);
    const auto cfg = sample_config(kind, rng);
    EXPECT_GT(gbt.predict_seconds(cfg), 0.0);
    // Reasonable accuracy on every kind (log-target fit).
    for (const auto& r : reports) {
      if (r.kind == kind) {
        EXPECT_LT(r.mape, 0.6);
      }
    }
  }
}

TEST(GbtPredictor, TracksGroundTruthOnZooConvs) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  OfflineProfiler profiler(cpu, gpu, {});
  const auto gbt = train_gbt_all(profiler, Device::kUser);
  const auto g = models::resnet18();
  double pred = 0.0, truth = 0.0;
  for (std::size_t i = 1; i <= g.n(); ++i) {
    const auto cfg = flops::config_of(g, g.backbone()[i]);
    pred += gbt.predict_seconds(cfg);
    truth += to_seconds(cpu.node_time(cfg));
  }
  EXPECT_NEAR(pred, truth, truth * 0.25);
}

TEST(ModelStore, SerializationRoundTrip) {
  const hw::CpuModel cpu;
  const hw::GpuModel gpu;
  ProfilerParams params;
  params.samples_per_kind = 60;
  OfflineProfiler profiler(cpu, gpu, params);
  Trainer trainer;
  const auto predictor = trainer.train_all(profiler, Device::kEdge);

  const auto text = serialize_predictor(predictor);
  const auto loaded = deserialize_predictor(text, Device::kEdge);
  EXPECT_TRUE(loaded.complete());
  Rng rng(3);
  for (ModelKind kind : flops::all_model_kinds()) {
    const auto cfg = sample_config(kind, rng);
    EXPECT_DOUBLE_EQ(loaded.predict_seconds(cfg),
                     predictor.predict_seconds(cfg))
        << model_kind_name(kind);
  }
}

TEST(ModelStore, FileRoundTrip) {
  NodePredictor p(Device::kUser);
  p.set_model(ModelKind::kRelu, ml::LinearModel({1.5e-9}));
  const std::string path = ::testing::TempDir() + "/predictor.txt";
  save_predictor(p, path);
  const auto loaded = load_predictor(path, Device::kUser);
  ASSERT_NE(loaded.model(ModelKind::kRelu), nullptr);
  EXPECT_DOUBLE_EQ(loaded.model(ModelKind::kRelu)->coefficients()[0],
                   1.5e-9);
  std::remove(path.c_str());
}

TEST(ModelStore, MalformedInputThrows) {
  EXPECT_THROW(deserialize_predictor("99 1.0\n", Device::kUser),
               ContractError);
  EXPECT_THROW(deserialize_predictor("0\n", Device::kUser), ContractError);
  // Trailing garbage after the coefficients.
  EXPECT_THROW(deserialize_predictor("8 1.5e-9 abc", Device::kUser),
               ContractError);
  // A decimal comma leaves one coefficient for a four-feature conv.
  EXPECT_THROW(deserialize_predictor("0 1,5 2 3 4", Device::kUser),
               ContractError);
  // A kind listed twice.
  EXPECT_THROW(deserialize_predictor("8 1e-9\n8 2e-9", Device::kUser),
               ContractError);
}

TEST(ModelStore, MissingFileThrows) {
  EXPECT_THROW(load_predictor("/nonexistent/path.txt", Device::kUser),
               ContractError);
}

}  // namespace
}  // namespace lp::profile

// Section III-A claim: with the partition cache, the partitioning overhead
// amortized over ~100 offloading requests is about 1% of the inference
// time. Also microbenchmarks the real (host) cost of partition_at and cache
// lookups with google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "common/table.h"
#include "core/system.h"
#include "models/zoo.h"
#include "partition/cache.h"
#include "partition/partitioner.h"

namespace {

using namespace lp;

void report_amortization() {
  const auto bundle = core::train_default_predictors();
  std::printf(
      "Partition cache amortization over a 100-request stream "
      "(8 Mbps, idle server)\n\n");
  Table table({"model", "overhead total(ms)", "inference total(ms)",
               "overhead share", "cache hit rate"});
  for (const char* name : {"alexnet", "squeezenet", "resnet18"}) {
    const auto model = models::make_model(name);
    core::ExperimentConfig config;
    config.duration = seconds(120);
    config.warmup = 0;
    config.request_gap = 0;
    config.seed = 5;
    const auto result = core::run_experiment(model, bundle, config);
    const std::size_t take =
        std::min<std::size_t>(100, result.records.size());
    double overhead = 0.0, total = 0.0;
    for (std::size_t i = 0; i < take; ++i) {
      overhead += result.records[i].overhead_sec;
      total += result.records[i].total_sec;
    }
    table.add_row({name, Table::num(overhead * 1e3),
                   Table::num(total * 1e3),
                   Table::num(overhead / total * 100.0, 2) + "%",
                   Table::num(100.0 * (take - 1.0) / take, 1) + "%"});
  }
  table.print();
  std::printf(
      "\nPaper: overhead ~1%% of inference time amortized over 100 "
      "requests.\n\n");
}

void bm_partition_at(benchmark::State& state) {
  const auto model = models::make_model(
      state.range(0) == 0 ? "alexnet" : "squeezenet");
  const std::size_t p = model.n() / 2;
  for (auto _ : state) {
    auto plan = partition::partition_at(model, p);
    benchmark::DoNotOptimize(plan.boundary_bytes);
  }
}
BENCHMARK(bm_partition_at)->Arg(0)->Arg(1);

void bm_cache_hit(benchmark::State& state) {
  partition::PartitionCache cache(8);
  cache.insert(8);
  for (auto _ : state) {
    const bool hit = cache.find(8);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(bm_cache_hit);

}  // namespace

int main(int argc, char** argv) {
  report_amortization();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

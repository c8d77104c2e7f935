// Calibration constants for the simulated testbed of Table IV.
//
// The user-end device models a Raspberry Pi 4 Model B (4x Cortex-A72
// @1.5 GHz, LPDDR4) and the edge server a Tesla T4 behind a deep-learning
// framework runtime. Constants are *effective* rates chosen so that
// whole-model latencies land in the ranges the paper reports (DESIGN.md §6):
// VGG16 local ~5.2 s, Xception local ~1.8 s, server-side inference tens of
// milliseconds (negligible next to a 588 KB upload at 8 Mbps).
#pragma once

namespace lp::hw {

struct CpuModelParams {
  // Effective multiply-accumulate throughput by kind (MAC/s). The A72's
  // NEON peak is ~24 GMAC/s; real conv kernels on the Pi reach ~10-15%.
  double conv_mac_per_sec = 3.6e9;
  double dwconv_mac_per_sec = 0.6e9;  // depthwise has poor arithmetic density
  double matmul_mac_per_sec = 4.0e9;
  double pool_elems_per_sec = 1.2e9;  // window elements scanned per second

  // Effective memory bandwidth for streaming activations/weights.
  double mem_bytes_per_sec = 2.2e9;

  // Per-node framework dispatch overhead.
  double node_overhead_sec = 10e-6;

  // Relative execution-time jitter applied by the device executor.
  double jitter_frac = 0.02;
};

struct GpuModelParams {
  // Effective MAC throughput (T4 fp32 peak ~4 TMAC/s; inference kernels
  // reach about half).
  double mac_per_sec = 2.0e12;
  double mem_bytes_per_sec = 300e9;

  // Floor of a kernel's *device-side* duration (what a CUDA-event-style
  // profiler measures, and what the Table III predictors are trained on).
  double kernel_launch_sec = 2e-6;

  // Host-side framework dispatch per executed op (MindSpore-class
  // frameworks spend a few hundred microseconds per op). It serializes the
  // execution stream but is invisible to per-kernel profiling, so it is a
  // *systematic bias* of the prediction models — folded, by construction,
  // into the influential factor k (Section III-C). Small enough that a
  // single layer finishes far inside a scheduler time slice; large enough
  // that multi-layer partitions span several slices and feel contention,
  // and that deep-narrow nets (ResNet50/152) cost more server time than
  // shallow-wide ones (VGG16) of higher FLOPs.
  double framework_dispatch_sec = 0.6e-3;

  // Work (in output elements) needed to saturate the GPU; smaller kernels
  // run at proportionally lower utilization. This is the main nonlinearity
  // the LR predictors cannot express (Table III's conv MAPE).
  double saturation_elems = 2.0e5;

  double jitter_frac = 0.03;

  // Marginal compute cost of each extra sample in a coalesced suffix batch,
  // as a fraction of the single-sample kernel body. Batching amortizes the
  // per-op framework dispatch (paid once per batch) and improves occupancy,
  // so each added sample costs less than a full kernel.
  double batch_compute_frac = 0.8;
};

struct GpuSchedulerParams {
  // Preemption happens only at kernel boundaries, after a context has
  // consumed its slice ("e.g. 2 ms" in Section III-C).
  double time_slice_sec = 2e-3;
  // Cost of switching between contexts.
  double context_switch_sec = 20e-6;
};

/// Number of background processes generating server load (Section II).
constexpr int kBackgroundProcesses = 7;

// Partition-cache miss cost: partitioning the graph and preparing the
// framework runtime for one side of the cut, a fixed base plus a per-node
// term over the nodes that side executes (Section III-A). The device pays
// the Pi's slower framework start-up; the server preparation is cheaper.
constexpr double kDevicePartitionBaseSec = 0.040;
constexpr double kDevicePartitionPerNodeSec = 1.2e-3;
constexpr double kServerPartitionBaseSec = 0.008;
constexpr double kServerPartitionPerNodeSec = 0.25e-3;

}  // namespace lp::hw

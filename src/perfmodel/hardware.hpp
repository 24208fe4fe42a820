#pragma once
// Hardware and algorithm specifications — the inputs of the
// design-configuration workflow (§4.2).

#include <cstddef>

#include "eval/gpu_model.hpp"

namespace apm {

// Multi-core CPU + optional accelerator description. Defaults model the
// paper's testbed (AMD Threadripper 3990X + RTX A6000 over PCIe 4.0, §5.1);
// override for other targets.
struct HardwareSpec {
  int cpu_threads = 64;
  // Documented DDR access latency — the per-worker T_shared-tree-access of
  // Eqs. 3/4 (µs). ~90 ns loaded latency for DDR4 plus coherence traffic.
  double ddr_access_us = 0.12;
  // Last-level-cache hit latency (µs) — what the local-tree master pays
  // instead when the tree fits in LLC (§3.1.2).
  double llc_access_us = 0.018;
  std::size_t llc_bytes = 256ull << 20;
  // Threads reserved for CPU-side DNN training in the CPU-only platform
  // ("we are able to allocate 32 threads for conducting training", §5.4).
  int train_threads = 32;
  GpuTimingModel gpu;
};

// Per-benchmark algorithm hyper-parameters (the paper's "tree fanout, tree
// depth" model inputs).
struct AlgoSpec {
  int fanout = 225;        // actions per expansion (15×15 board)
  int depth = 16;          // typical selection depth per rollout
  int num_playouts = 1600; // iterations per move (§5.1)
  std::size_t state_bytes = 4 * 15 * 15 * sizeof(float);
};

}  // namespace apm

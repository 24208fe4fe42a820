#pragma once
// Analytic performance models of §4.1 (Eqs. 3–6) and the compile-time
// scheme selection built on them (§3.2).
//
// Each `*_wave_us` function returns the paper's per-iteration estimate —
// the latency of one "wave" in which every one of the N workers completes
// one iteration. The amortized per-worker-iteration latency plotted in
// Figures 4/5 is wave/N (the paper divides total move time by the 1600
// iterations executed collectively by all workers).

#include "perfmodel/hardware.hpp"
#include "perfmodel/profiler.hpp"

#include <functional>
#include <string>
#include <vector>

#include "mcts/config.hpp"

namespace apm {

// Outcome of the adaptive selection for one platform/worker-count point.
struct AdaptiveDecision {
  Scheme scheme = Scheme::kSharedTree;
  int workers = 1;
  // Communication batch size: N for shared-tree on GPU ("always set to the
  // number of threads", §3.3), Algorithm-4's B* for local-tree on GPU,
  // 1 for CPU-only.
  int batch_size = 1;
  double predicted_shared_us = 0.0;  // amortized per-iteration (µs)
  double predicted_local_us = 0.0;
  double speedup_vs_worst = 1.0;

  std::string to_string() const;
};

class PerfModel {
 public:
  PerfModel(HardwareSpec hw, ProfiledCosts costs)
      : hw_(hw), costs_(costs) {}

  const HardwareSpec& hardware() const { return hw_; }
  const ProfiledCosts& costs() const { return costs_; }

  // --- Eq. 3: shared tree, CPU-only -------------------------------------
  // T ≈ T_shared_access·N + T_select + T_backup + T_DNN^CPU
  double shared_cpu_wave_us(int n) const;

  // --- Eq. 4: shared tree, CPU-GPU (batch = N) ---------------------------
  // T ≈ T_shared_access·N + T_select + T_backup + T_DNN^GPU(batch = N)
  double shared_gpu_wave_us(int n) const;

  // --- Eq. 5: local tree, CPU-only ---------------------------------------
  // T ≈ max((T_select + T_backup)·N, T_DNN^CPU + T_handoff)
  // T_handoff is the master↔worker round trip around each evaluation
  // (pool submit → worker wake, completion push → master wake). In-flight
  // requests are capped at N, so every slot pays it once per wave, as
  // WU-UCT's master/worker split pays its communication. Both terms
  // scale with the miss rate: a grafted leaf never reaches a worker.
  double local_cpu_wave_us(int n) const;

  // --- Eq. 6: local tree, CPU-GPU with sub-batches of size B -------------
  // T ≈ max((T_select + T_backup)·N, T_PCIe, T_DNN-compute^GPU(batch = B))
  double local_gpu_wave_us(int n, int b) const;

  // Amortized per-worker-iteration latencies (wave / N).
  double shared_cpu_us(int n) const { return shared_cpu_wave_us(n) / n; }
  double shared_gpu_us(int n) const { return shared_gpu_wave_us(n) / n; }
  double local_cpu_us(int n) const { return local_cpu_wave_us(n) / n; }
  double local_gpu_us(int n, int b) const {
    return local_gpu_wave_us(n, b) / n;
  }

  // In-tree cost per iteration on the local-tree master. The tree is
  // cache-resident (§3.1.2) when it fits in LLC, so the per-node touch is
  // cheaper than the shared tree's DDR accesses.
  double local_intree_us() const;
  double shared_intree_us() const;

  // Expected fraction of leaf expansions that reach the backend:
  // (1 − cache_hit_rate) · (1 − tt_graft_rate). Every DNN/PCIe term above
  // is scaled by this factor — a cached request costs no inference and no
  // transfer, and a transposition-table graft skips the request entirely —
  // so with hit rate h and graft rate g the effective per-wave evaluation
  // cost the adaptive controller re-tunes against is T_DNN · (1−h) · (1−g).
  double eval_miss_rate() const;

  // --- adaptive selection -------------------------------------------------
  // CPU-only platform: pick min(Eq. 3, Eq. 5) per worker count.
  AdaptiveDecision decide_cpu(int n) const;

  // CPU-GPU platform: shared(batch = N) vs local(batch = B*). By default
  // B* minimises Eq. 6 via Algorithm 4 over the model itself; pass a probe
  // to use measured test runs instead (§4.2's Test Run).
  AdaptiveDecision decide_gpu(
      int n, const std::function<double(int)>& probe_us = nullptr) const;

 private:
  HardwareSpec hw_;
  ProfiledCosts costs_;
};

}  // namespace apm

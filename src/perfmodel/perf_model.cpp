#include "perfmodel/perf_model.hpp"

#include <algorithm>
#include <sstream>

#include "perfmodel/batch_search.hpp"
#include "support/check.hpp"

namespace apm {

std::string AdaptiveDecision::to_string() const {
  std::ostringstream out;
  out << apm::to_string(scheme) << " (N=" << workers;
  if (batch_size > 1) out << ", B=" << batch_size;
  out << ", shared=" << predicted_shared_us
      << "us, local=" << predicted_local_us << "us)";
  return out.str();
}

double PerfModel::shared_intree_us() const {
  // Per-iteration in-tree compute of one worker. Eq. 3 writes
  // T_select + T_backup; expansion runs on the same worker thread between
  // them, so it belongs to the same per-iteration constant.
  return costs_.t_select_us + costs_.t_expand_us + costs_.t_backup_us;
}

double PerfModel::local_intree_us() const {
  // The local-tree master performs selection, expansion and backup for
  // every iteration. The profiler measures on a DDR-cold synthetic tree;
  // when the tree fits in LLC the per-level memory cost drops from ddr to
  // llc latency (§3.1.2).
  const double levels = costs_.mean_depth;
  const bool cache_resident =
      costs_.tree_bytes == 0 || costs_.tree_bytes <= hw_.llc_bytes;
  const double adjust =
      cache_resident ? levels * (hw_.ddr_access_us - hw_.llc_access_us) : 0.0;
  return std::max(0.0, costs_.t_select_us + costs_.t_expand_us +
                           costs_.t_backup_us - adjust);
}

double PerfModel::eval_miss_rate() const {
  // Cache and TT compound: a TT graft never produces a request, and of the
  // requests that remain, a cache hit costs no backend work.
  return std::clamp(
      (1.0 - costs_.cache_hit_rate) * (1.0 - costs_.tt_graft_rate), 0.0, 1.0);
}

double PerfModel::shared_cpu_wave_us(int n) const {
  APM_CHECK(n >= 1);
  return costs_.t_shared_access_us * n + shared_intree_us() +
         costs_.t_dnn_cpu_us * eval_miss_rate();
}

double PerfModel::shared_gpu_wave_us(int n) const {
  APM_CHECK(n >= 1);
  return costs_.t_shared_access_us * n + shared_intree_us() +
         hw_.gpu.batch_total_us(n) * eval_miss_rate();
}

double PerfModel::local_cpu_wave_us(int n) const {
  APM_CHECK(n >= 1);
  return std::max(local_intree_us() * n,
                  (costs_.t_dnn_cpu_us + costs_.t_handoff_us) *
                      eval_miss_rate());
}

double PerfModel::local_gpu_wave_us(int n, int b) const {
  APM_CHECK(n >= 1);
  APM_CHECK(b >= 1 && b <= n);
  // Eq. 6: the three overlapped resources — master-thread in-tree ops,
  // the PCIe link moving N samples in N/B transfers, and the GPU computing
  // sub-batches of size B (N/B streams). Cached requests skip both the
  // link and the kernel, so those two resources see only the miss traffic.
  const double miss = eval_miss_rate();
  const double intree = local_intree_us() * n;
  const double pcie = hw_.gpu.pcie_total_us(n, b) * miss;
  const int streams = std::max(1, n / std::max(1, b));
  // Each stream computes its sub-batch; streams serialize on the single
  // GPU, but sub-batch compute overlaps the next transfer, so the bound is
  // the total compute divided by the overlap factor of 1 (conservative:
  // all N/B kernels run back to back).
  const double gpu_compute = hw_.gpu.compute_us(b) * streams * miss;
  return std::max({intree, pcie, gpu_compute});
}

AdaptiveDecision PerfModel::decide_cpu(int n) const {
  AdaptiveDecision d;
  d.workers = n;
  d.batch_size = 1;
  d.predicted_shared_us = shared_cpu_us(n);
  d.predicted_local_us = local_cpu_us(n);
  d.scheme = d.predicted_local_us <= d.predicted_shared_us
                 ? Scheme::kLocalTree
                 : Scheme::kSharedTree;
  const double best = std::min(d.predicted_shared_us, d.predicted_local_us);
  const double worst = std::max(d.predicted_shared_us, d.predicted_local_us);
  d.speedup_vs_worst = best > 0.0 ? worst / best : 1.0;
  return d;
}

AdaptiveDecision PerfModel::decide_gpu(
    int n, const std::function<double(int)>& probe_us) const {
  AdaptiveDecision d;
  d.workers = n;
  d.predicted_shared_us = shared_gpu_us(n);

  // Local tree: tune B with Algorithm 4, over the model or a measured probe.
  const auto model_probe = [this, n](int b) { return local_gpu_us(n, b); };
  const BatchSearchResult found =
      find_min_batch(n, probe_us ? probe_us : model_probe);
  d.predicted_local_us = found.best_latency_us;

  if (d.predicted_local_us <= d.predicted_shared_us) {
    d.scheme = Scheme::kLocalTree;
    d.batch_size = found.best_batch;
  } else {
    d.scheme = Scheme::kSharedTree;
    d.batch_size = n;  // §3.3: shared-tree batch is always N
  }
  const double best = std::min(d.predicted_shared_us, d.predicted_local_us);
  const double worst = std::max(d.predicted_shared_us, d.predicted_local_us);
  d.speedup_vs_worst = best > 0.0 ? worst / best : 1.0;
  return d;
}

}  // namespace apm

#include "eval/gpu_model.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace apm {

double GpuTimingModel::transfer_us(int batch) const {
  APM_CHECK(batch >= 1);
  const double bytes = sample_bytes * batch;
  return kernel_launch_us + bytes / (pcie_gbps * 1e3);  // GB/s == bytes/ns·1e-3
}

double GpuTimingModel::compute_us(int batch) const {
  APM_CHECK(batch >= 1);
  const int sat = std::max(1, saturation_batch);
  double marginal;
  if (batch <= sat) {
    marginal = compute_per_sample_us * subsat_fraction *
               static_cast<double>(batch - 1);
  } else {
    marginal = compute_per_sample_us * subsat_fraction *
                   static_cast<double>(sat - 1) +
               compute_per_sample_us * static_cast<double>(batch - sat);
  }
  return compute_base_us + marginal;
}

double GpuTimingModel::pcie_total_us(int n_samples, int batch) const {
  APM_CHECK(n_samples >= 1 && batch >= 1);
  const int transfers = (n_samples + batch - 1) / batch;
  return transfers * kernel_launch_us +
         sample_bytes * n_samples / (pcie_gbps * 1e3);
}

double CpuBackend::compute_batch(const float* inputs, int n,
                                 EvalOutput* outs) {
  Timer timer;
  eval_.evaluate_batch(inputs, n, outs);
  const double us = timer.elapsed_us();
  if (n >= 1) {
    // Track the best observed per-sample cost: with the implicit-GEMM
    // conv path, larger batches amortise packing and epilogues, so
    // the first (often batch-1) observation badly overestimates steady-state
    // batched throughput. CAS-min: concurrent stream threads race here.
    const double per = us / n;
    double cur = amortized_single_us_.load(std::memory_order_relaxed);
    while ((cur < 0.0 || per < cur) &&
           !amortized_single_us_.compare_exchange_weak(
               cur, per, std::memory_order_relaxed)) {
    }
  }
  return us;
}

double CpuBackend::model_batch_us(int n) const {
  // CPU batches scale ~linearly in the modelled regime; the per-sample
  // coefficient reflects the best batched throughput observed so far.
  const double cur = amortized_single_us_.load(std::memory_order_relaxed);
  const double per = cur > 0.0 ? cur : 1.0;
  return per * n;
}

double SimGpuBackend::compute_batch(const float* inputs, int n,
                                    EvalOutput* outs) {
  eval_.evaluate_batch(inputs, n, outs);
  const double modelled = model_.batch_total_us(n);
  if (emulate_wall_time_) busy_wait_us(modelled);
  return modelled;
}

}  // namespace apm

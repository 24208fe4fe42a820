#include "perfmodel/adaptive.hpp"

#include <algorithm>

#include "mcts/tree.hpp"
#include "support/check.hpp"

namespace apm {
namespace {

double ewma(double current, double sample, double alpha) {
  return (1.0 - alpha) * current + alpha * sample;
}

// A cost still at its zero default has no estimate to blend with: its first
// sample is taken verbatim, not read as alpha × sample.
double fold(double current, double sample, double alpha, bool first) {
  return first && current == 0.0 ? sample : ewma(current, sample, alpha);
}

}  // namespace

AdaptiveController::AdaptiveController(HardwareSpec hw,
                                       ProfiledCosts seed_costs,
                                       AdaptiveConfig cfg, Scheme scheme,
                                       int workers, int batch_size)
    : hw_(hw),
      costs_(seed_costs),
      cfg_(cfg),
      scheme_(scheme),
      workers_(workers),
      batch_(std::max(1, batch_size)) {
  APM_CHECK(workers >= 1);
  APM_CHECK(cfg_.ewma_alpha > 0.0 && cfg_.ewma_alpha <= 1.0);
  APM_CHECK(cfg_.hysteresis >= 0.0);
  if (cfg_.worker_candidates.empty()) {
    cfg_.worker_candidates.push_back(workers);
  }
  // VL re-tune references: default the base constant to the MctsConfig
  // default and the base in-flight count to the *initial* configuration —
  // the design-time pair the constant was (implicitly) tuned for.
  if (cfg_.base_virtual_loss <= 0.0f) {
    cfg_.base_virtual_loss = MctsConfig{}.virtual_loss;
  }
  if (cfg_.base_inflight <= 0) {
    cfg_.base_inflight = planned_inflight(scheme_, workers_, batch_);
  }
  APM_CHECK(cfg_.min_virtual_loss > 0.0f);
  // Keep the clamp range well-formed when the configured constant already
  // sits below the floor (clamp with hi < lo is UB).
  cfg_.min_virtual_loss =
      std::min(cfg_.min_virtual_loss, cfg_.base_virtual_loss);
}

int AdaptiveController::planned_inflight(Scheme scheme, int workers,
                                         int batch) const {
  // Over the accelerator queue the local-tree master's outstanding window
  // is dispatch-granular: shrinking B shrinks the concurrently unobserved
  // rollouts even at fixed N (the ISSUE-3 "VL shrinks with B" lever). The
  // per-scheme values live in scheme_inflight() so the serving layer's
  // aggregate arrival model uses the exact same accounting.
  return scheme_inflight(scheme, workers, batch, cfg_.gpu);
}

float AdaptiveController::planned_virtual_loss(Scheme scheme, int workers,
                                               int batch) const {
  if (!cfg_.tune_virtual_loss) return cfg_.base_virtual_loss;
  const double scale =
      static_cast<double>(planned_inflight(scheme, workers, batch)) /
      static_cast<double>(std::max(1, cfg_.base_inflight));
  const double vl = cfg_.base_virtual_loss * scale;
  return static_cast<float>(
      std::clamp(vl, static_cast<double>(cfg_.min_virtual_loss),
                 static_cast<double>(cfg_.base_virtual_loss)));
}

VirtualLossMode AdaptiveController::planned_vl_mode(Scheme scheme, int workers,
                                                    int batch) const {
  if (!cfg_.tune_virtual_loss) return cfg_.base_vl_mode;
  return planned_inflight(scheme, workers, batch) <=
                 cfg_.visit_tracking_at_or_below
             ? VirtualLossMode::kVisitTracking
             : cfg_.base_vl_mode;
}

ProfiledCosts AdaptiveController::costs_from_metrics(
    const SearchMetrics& metrics, const HardwareSpec& hw) {
  ProfiledCosts sample;
  const double playouts = std::max(1, metrics.playouts);
  // TT grafts are expansion work too (their time lands in expand_seconds),
  // so they join the denominator of the per-expansion cost.
  const double expansions = static_cast<double>(
      std::max<std::size_t>(1, metrics.expansions + metrics.tt_grafts));
  // Cache hits complete synchronously on the submit path and contribute
  // ~nothing to eval_seconds; folding them into the per-request mean would
  // conflate the hardware's eval latency with the workload's hit rate.
  // Instead: t_dnn is the per-request cost of the requests that actually
  // waited on the backend (misses + coalesced waiters, which block for a
  // full batch), and the hit rate is carried separately so the models can
  // apply the miss-rate scaling to the *effective* eval cost (Eq. 3–6).
  const double requests =
      static_cast<double>(std::max<std::size_t>(1, metrics.eval_requests));
  const double waited = static_cast<double>(std::max<std::size_t>(
      1, metrics.eval_requests -
             std::min(metrics.cache_hits, metrics.eval_requests)));
  // Phase times are resource-seconds summed across workers, so dividing by
  // the collective iteration count yields the per-iteration per-worker cost
  // the Eq. 3–6 models expect.
  sample.t_select_us = metrics.select_seconds * 1e6 / playouts;
  sample.t_expand_us = metrics.expand_seconds * 1e6 / expansions;
  sample.t_backup_us = metrics.backup_seconds * 1e6 / playouts;
  // On a CPU evaluator eval_seconds is the evaluations' own time under every
  // scheme (see SearchMetrics); over a batch queue it is the blocking wait,
  // the latency the searching thread experiences per request.
  sample.t_dnn_cpu_us = metrics.eval_seconds * 1e6 / waited;
  // Zero when no request crossed to a local-tree worker this move;
  // observe_costs() then keeps the last measured hand-off.
  if (metrics.handoff_requests > 0) {
    sample.t_handoff_us = metrics.handoff_seconds * 1e6 /
                          static_cast<double>(metrics.handoff_requests);
  }
  sample.cache_hit_rate =
      metrics.eval_requests > 0
          ? static_cast<double>(
                std::min(metrics.cache_hits, metrics.eval_requests)) /
                requests
          : 0.0;
  // Graft rate over the total leaf-expansion demand: grafted leaves never
  // became eval requests at all, so the denominator is grafts + requests
  // (unlike cache_hit_rate, whose hits are a subset of eval_requests).
  const double graft_demand =
      static_cast<double>(metrics.tt_grafts + metrics.eval_requests);
  sample.tt_graft_rate =
      graft_demand > 0.0
          ? static_cast<double>(metrics.tt_grafts) / graft_demand
          : 0.0;
  sample.mean_depth = std::max(1.0, metrics.mean_depth());
  sample.t_shared_access_us = hw.ddr_access_us * sample.mean_depth;
  sample.tree_bytes =
      SearchTree::footprint_bytes(metrics.nodes, metrics.edges);
  return sample;
}

void AdaptiveController::observe(const SearchMetrics& metrics) {
  observe_costs(costs_from_metrics(metrics, hw_));
}

void AdaptiveController::observe_costs(const ProfiledCosts& sample) {
  const double a = cfg_.ewma_alpha;
  const bool first = observed_moves_ == 0;
  costs_.t_select_us = fold(costs_.t_select_us, sample.t_select_us, a, first);
  costs_.t_expand_us = fold(costs_.t_expand_us, sample.t_expand_us, a, first);
  costs_.t_backup_us = fold(costs_.t_backup_us, sample.t_backup_us, a, first);
  costs_.t_dnn_cpu_us =
      fold(costs_.t_dnn_cpu_us, sample.t_dnn_cpu_us, a, first);
  costs_.t_shared_access_us =
      fold(costs_.t_shared_access_us, sample.t_shared_access_us, a, first);
  // Only a local-tree move over the CPU pool measures the hand-off; every
  // other move leaves the last measurement in place, and the first one
  // replaces the zero default outright.
  if (sample.t_handoff_us > 0.0) {
    costs_.t_handoff_us =
        fold(costs_.t_handoff_us, sample.t_handoff_us, a, /*first=*/true);
  }
  costs_.cache_hit_rate =
      ewma(costs_.cache_hit_rate, sample.cache_hit_rate, a);
  costs_.tt_graft_rate =
      ewma(costs_.tt_graft_rate, sample.tt_graft_rate, a);
  costs_.mean_depth = fold(costs_.mean_depth, sample.mean_depth, a, first);
  costs_.tree_bytes = static_cast<std::size_t>(
      fold(static_cast<double>(costs_.tree_bytes),
           static_cast<double>(sample.tree_bytes), a, first));
  ++observed_moves_;
}

double AdaptiveController::predict_us(const PerfModel& model, Scheme scheme,
                                      int workers, int batch) const {
  switch (scheme) {
    case Scheme::kLocalTree:
      return cfg_.gpu ? model.local_gpu_us(workers,
                                           std::clamp(batch, 1, workers))
                      : model.local_cpu_us(workers);
    case Scheme::kSerial:
      // Serial is the 1-worker shared-tree degenerate case (no staggering,
      // but Eq. 3 at N=1 only adds one access term).
      return cfg_.gpu ? model.shared_gpu_us(1) : model.shared_cpu_us(1);
    default:
      return cfg_.gpu ? model.shared_gpu_us(workers)
                      : model.shared_cpu_us(workers);
  }
}

AdaptivePlan AdaptiveController::plan() {
  const PerfModel model(hw_, costs_);
  AdaptivePlan out;
  out.current_predicted_us = predict_us(model, scheme_, workers_, batch_);

  AdaptiveDecision best;
  double best_us = 0.0;
  bool first = true;
  for (const int n : cfg_.worker_candidates) {
    if (n < 1) continue;
    const AdaptiveDecision d =
        cfg_.gpu ? model.decide_gpu(n) : model.decide_cpu(n);
    const double us = std::min(d.predicted_shared_us, d.predicted_local_us);
    if (first || us < best_us) {
      best = d;
      best_us = us;
      first = false;
    }
  }
  ++moves_since_switch_;

  out.predicted_us = best_us;
  const bool different = best.scheme != scheme_ || best.workers != workers_ ||
                         (cfg_.gpu && best.batch_size != batch_);
  const bool clears_margin =
      best_us < out.current_predicted_us * (1.0 - cfg_.hysteresis);
  if (!first && different && clears_margin &&
      observed_moves_ >= cfg_.warmup_moves &&
      moves_since_switch_ > cfg_.dwell_moves) {
    scheme_ = best.scheme;
    workers_ = best.workers;
    batch_ = std::max(1, best.batch_size);
    out.switched = true;
    ++switches_;
    moves_since_switch_ = 0;
  }
  out.scheme = scheme_;
  out.workers = workers_;
  out.batch_size = batch_;
  out.virtual_loss = planned_virtual_loss(scheme_, workers_, batch_);
  out.vl_mode = planned_vl_mode(scheme_, workers_, batch_);
  return out;
}

}  // namespace apm

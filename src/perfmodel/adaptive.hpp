#pragma once
// Runtime half of the paper's adaptive parallelism: the offline workflow
// (§4.2) seeds the Eq. 3–6 models with design-time ProfiledCosts; this
// controller keeps those costs *live* by folding each move's measured
// SearchMetrics in with an EWMA and re-evaluating the models per move. When
// another (scheme, N, B) configuration's predicted amortized latency beats
// the current one by more than a hysteresis margin — and a dwell period has
// passed — it recommends a switch. The SearchEngine applies the switch by
// rebuilding the scheme driver over the shared tree arena, so the search
// tree survives the handover.
//
// Hysteresis + dwell exist because profiled costs are noisy move to move:
// without them the controller would flap between two near-equal
// configurations, paying the (small but non-zero) switch cost every move
// and destroying batch-formation locality in the evaluator queue.

#include <vector>

#include "mcts/config.hpp"
#include "perfmodel/perf_model.hpp"

namespace apm {

struct AdaptiveConfig {
  // EWMA weight of the newest cost sample (1.0 = trust only the last move).
  double ewma_alpha = 0.3;
  // Fractional predicted improvement another configuration must show over
  // the current one before a switch fires (0.1 = 10% faster).
  double hysteresis = 0.10;
  // Minimum moves between two switches.
  int dwell_moves = 1;
  // Moves observed before the first switch is allowed (the design-time seed
  // costs dominate until then).
  int warmup_moves = 1;
  // Platform: false = CPU-only (Eq. 3 vs 5), true = CPU+accelerator
  // (Eq. 4 vs 6 with Algorithm-4 B search).
  bool gpu = false;
  // Candidate worker counts re-evaluated each move (empty = keep the
  // initial worker count and only re-decide the scheme/batch).
  std::vector<int> worker_candidates = {1, 2, 4, 8, 16, 32, 64};

  // --- virtual-loss re-tune (the WU-UCT follow-up) -----------------------
  // The VL constant exists to spread concurrent in-flight rollouts across
  // the tree; WU-UCT (Liu et al.) argues the penalty should track the
  // in-flight parallelism, which here shrinks whenever a switch shrinks the
  // chosen batch size / worker count. When enabled, plan() recommends
  //   VL = clamp(base_virtual_loss * inflight / base_inflight,
  //              min_virtual_loss, base_virtual_loss)
  // where inflight = 1 (serial), N (tree-parallel CPU), or min(N, B)
  // (local-tree over the accelerator queue, where the master keeps at most
  // one dispatch granularity outstanding per wave slot). The SearchEngine
  // applies the recommendation through the driver config the same way
  // set_batch_threshold applies B.
  bool tune_virtual_loss = true;
  // Reference VL and the in-flight count it was tuned for. Non-positive =
  // derive from the engine's MctsConfig / initial configuration (the
  // SearchEngine fills these in).
  float base_virtual_loss = 0.0f;
  int base_inflight = 0;
  float min_virtual_loss = 0.5f;
  // Mode recommended while the in-flight count stays above the threshold
  // below (the SearchEngine seeds it from MctsConfig::vl_mode).
  VirtualLossMode base_vl_mode = VirtualLossMode::kConstant;
  // At or below this in-flight count the constant penalty buys nothing and
  // biases Q; recommend the unbiased WU-UCT visit-tracking flavour instead.
  int visit_tracking_at_or_below = 1;
};

// One per-move recommendation.
struct AdaptivePlan {
  Scheme scheme = Scheme::kSerial;
  int workers = 1;
  int batch_size = 1;
  bool switched = false;          // configuration changed this move
  double predicted_us = 0.0;      // amortized us/iter of the recommendation
  double current_predicted_us = 0.0;  // same model, current configuration
  // Virtual-loss recommendation for the committed configuration (equals the
  // base constant/mode when tune_virtual_loss is off).
  float virtual_loss = 0.0f;
  VirtualLossMode vl_mode = VirtualLossMode::kConstant;
};

class AdaptiveController {
 public:
  AdaptiveController(HardwareSpec hw, ProfiledCosts seed_costs,
                     AdaptiveConfig cfg, Scheme scheme, int workers,
                     int batch_size = 1);

  // Folds one move's measured metrics into the live costs (EWMA). On the
  // first observation a cost still at its zero default takes the sample
  // verbatim; the hand-off folds only from moves that measured one.
  void observe(const SearchMetrics& metrics);

  // Folds an externally supplied cost sample (tests, DES replays).
  void observe_costs(const ProfiledCosts& sample);

  // Re-evaluates Eq. 3–6 under the live costs and commits a switch when it
  // clears the hysteresis margin and the dwell period.
  AdaptivePlan plan();

  // Derives a ProfiledCosts sample from per-move metrics (exposed so DES
  // replays and tests share the exact conversion).
  static ProfiledCosts costs_from_metrics(const SearchMetrics& metrics,
                                          const HardwareSpec& hw);

  // --- virtual-loss re-tune (WU-UCT follow-up; see AdaptiveConfig) -------
  // In-flight rollouts the given configuration sustains.
  int planned_inflight(Scheme scheme, int workers, int batch) const;
  // The VL constant / flavour recommended for that configuration. With
  // tune_virtual_loss off these return the base constant / mode unchanged.
  float planned_virtual_loss(Scheme scheme, int workers, int batch) const;
  VirtualLossMode planned_vl_mode(Scheme scheme, int workers,
                                  int batch) const;

  const ProfiledCosts& costs() const { return costs_; }
  Scheme scheme() const { return scheme_; }
  int workers() const { return workers_; }
  int batch_size() const { return batch_; }
  int switches() const { return switches_; }

 private:
  double predict_us(const PerfModel& model, Scheme scheme, int workers,
                    int batch) const;

  HardwareSpec hw_;
  ProfiledCosts costs_;
  AdaptiveConfig cfg_;
  Scheme scheme_;
  int workers_;
  int batch_;
  int observed_moves_ = 0;
  int moves_since_switch_ = 0;
  int switches_ = 0;
};

}  // namespace apm

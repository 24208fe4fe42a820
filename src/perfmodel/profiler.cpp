#include "perfmodel/profiler.hpp"

#include <algorithm>

#include "mcts/serial.hpp"
#include "perfmodel/synthetic_game.hpp"
#include "support/timer.hpp"

namespace apm {
namespace {

// Profiling uses fewer playouts than a real move; costs are amortized so
// the tree shape (fanout/depth), not the count, dominates.
MctsConfig profiling_config(const AlgoSpec& algo, int profile_playouts) {
  MctsConfig cfg;
  cfg.num_playouts = std::min(algo.num_playouts, profile_playouts);
  cfg.seed = 0xBADCAFE;
  return cfg;
}

}  // namespace

ProfiledCosts profile_intree_costs(const AlgoSpec& algo,
                                   const HardwareSpec& hw,
                                   int profile_playouts) {
  SyntheticGame game(algo.fanout, algo.depth);
  // Zero-latency evaluator → the measured eval_seconds is negligible and
  // select/expand/backup dominate, isolating the in-tree costs.
  SyntheticEvaluator eval(game.action_count(), game.encode_size(),
                          /*latency_us=*/0.0);
  const MctsConfig cfg = profiling_config(algo, profile_playouts);
  SerialMcts search(cfg, eval);
  const SearchResult result = search.search(game);
  const auto& m = result.metrics;

  ProfiledCosts costs;
  const double n = static_cast<double>(std::max(1, m.playouts));
  costs.t_select_us = m.select_seconds * 1e6 / n;
  costs.t_expand_us =
      m.expand_seconds * 1e6 / std::max<std::size_t>(1, m.eval_requests);
  costs.t_backup_us = m.backup_seconds * 1e6 / n;
  // Mean traversal depth approximated from the max and the tree shape; use
  // half the max depth as the expected path length, floored at 1.
  costs.mean_depth = std::max(1.0, m.max_depth / 2.0);
  // Each level of a shared-tree descent touches DDR-resident node state.
  costs.t_shared_access_us = hw.ddr_access_us * costs.mean_depth;
  costs.tree_bytes = SearchTree::footprint_bytes(m.nodes, m.edges);
  return costs;
}

double profile_dnn_us(Evaluator& dnn, const AlgoSpec& algo, int iters) {
  SyntheticGame game(algo.fanout, algo.depth);
  std::vector<float> input(game.encode_size());
  game.encode(input.data());
  EvalOutput out;
  dnn.evaluate(input.data(), out);  // warm-up (allocations, caches)
  Timer timer;
  for (int i = 0; i < iters; ++i) {
    input[2] = static_cast<float>(i);  // perturb so nothing caches results
    dnn.evaluate(input.data(), out);
  }
  return timer.elapsed_us() / iters;
}

ProfiledCosts profile_costs(const AlgoSpec& algo, Evaluator& dnn,
                            const HardwareSpec& hw, int profile_playouts) {
  ProfiledCosts costs = profile_intree_costs(algo, hw, profile_playouts);
  costs.t_dnn_cpu_us = profile_dnn_us(dnn, algo);
  return costs;
}

}  // namespace apm

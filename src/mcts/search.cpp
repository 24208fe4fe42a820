#include "mcts/search.hpp"

#include <algorithm>
#include <vector>

#include "mcts/selection.hpp"

namespace apm {

void SearchMetrics::accumulate(const SearchMetrics& part) {
  playouts += part.playouts;
  select_seconds += part.select_seconds;
  expand_seconds += part.expand_seconds;
  backup_seconds += part.backup_seconds;
  eval_seconds += part.eval_seconds;
  handoff_seconds += part.handoff_seconds;
  handoff_requests += part.handoff_requests;
  nodes += part.nodes;
  edges += part.edges;
  max_depth = std::max(max_depth, part.max_depth);
  sum_depth += part.sum_depth;
  eval_requests += part.eval_requests;
  cache_hits += part.cache_hits;
  coalesced_evals += part.coalesced_evals;
  expansions += part.expansions;
  tt_probes += part.tt_probes;
  tt_grafts += part.tt_grafts;
  tt_pending += part.tt_pending;
  tt_stores += part.tt_stores;
  terminal_rollouts += part.terminal_rollouts;
  expansion_collisions += part.expansion_collisions;
  reused_nodes += part.reused_nodes;
  reused_visits += part.reused_visits;
}

void MctsSearch::prepare_root(const Game& env, bool reuse) {
  port_.begin_window();
  InTreeOps ops(tree_, cfg_);
  if (reuse) {
    if (cfg_.root_noise) ops.mix_root_noise(rng_);
    return;
  }
  Node& root = tree_.node(tree_.root());
  ExpandState expected = ExpandState::kLeaf;
  const bool claimed = root.state.compare_exchange_strong(
      expected, ExpandState::kExpanding, std::memory_order_acq_rel);
  APM_CHECK(claimed);
  std::vector<float> input(env.encode_size());
  env.encode(input.data());
  EvalOutput out;
  port_.evaluate_root(input.data(), env.eval_key(), out);
  ops.note_eval(tree_.root(), env.eval_key(), out.value);
  ops.expand(tree_.root(), env, out.policy, cfg_.root_noise ? &rng_ : nullptr);
}

SearchResult MctsSearch::finish_move(const Game& env, SearchMetrics& metrics,
                                     bool reuse, const Timer& move_timer) {
  port_.end_window(metrics, reuse);
  metrics.playouts = cfg_.num_playouts;
  metrics.move_seconds = move_timer.elapsed_seconds();
  metrics.nodes = tree_.node_count();
  metrics.edges = tree_.edge_count();
  SearchResult result = extract_result(tree_, env.action_count());
  result.metrics = metrics;
  return result;
}

}  // namespace apm

#include "mcts/baselines.hpp"

#include <thread>
#include <vector>

#include "mcts/selection.hpp"
#include "mcts/serial.hpp"
#include "support/timer.hpp"

namespace apm {

RootParallelMcts::RootParallelMcts(MctsConfig cfg, int workers,
                                   Evaluator& eval)
    : MctsSearch(cfg, eval), workers_(workers), eval_(eval) {
  APM_CHECK(workers >= 1);
}

SearchResult RootParallelMcts::search(const Game& env) {
  Timer move_timer;
  const int per_worker = std::max(1, cfg_.num_playouts / workers_);

  std::vector<SearchResult> partials(static_cast<std::size_t>(workers_));
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      threads.emplace_back([this, &env, &partials, per_worker, w] {
        MctsConfig local = cfg_;
        local.num_playouts = per_worker;
        local.seed = cfg_.seed + static_cast<std::uint64_t>(w) * 7919 + 1;
        SerialMcts worker_search(local, eval_);
        partials[w] = worker_search.search(env);
      });
    }
  }

  // Aggregate root visit distributions (weighted equally: same playout
  // budget per tree).
  SearchResult result;
  result.action_prior.assign(static_cast<std::size_t>(env.action_count()),
                             0.0f);
  double value_acc = 0.0;
  for (const SearchResult& p : partials) {
    for (std::size_t a = 0; a < result.action_prior.size(); ++a) {
      result.action_prior[a] += p.action_prior[a];
    }
    value_acc += p.root_value;
    result.metrics.accumulate(p.metrics);
  }
  float best = -1.0f;
  for (std::size_t a = 0; a < result.action_prior.size(); ++a) {
    result.action_prior[a] /= static_cast<float>(workers_);
    if (result.action_prior[a] > best) {
      best = result.action_prior[a];
      result.best_action = static_cast<int>(a);
    }
  }
  result.root_value = static_cast<float>(value_acc / workers_);
  result.metrics.workers = workers_;
  result.metrics.playouts = per_worker * workers_;
  result.metrics.move_seconds = move_timer.elapsed_seconds();
  return result;
}

LeafParallelMcts::LeafParallelMcts(MctsConfig cfg, int workers,
                                   Evaluator& eval, SearchTree* shared_tree)
    : MctsSearch(cfg, eval, shared_tree),
      workers_(workers),
      eval_(eval),
      pool_(static_cast<std::size_t>(workers)) {
  APM_CHECK(workers >= 1);
}

SearchResult LeafParallelMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  InTreeOps ops(tree_, cfg_);
  metrics.workers = workers_;
  Timer move_timer;

  std::vector<float> input(env.encode_size());
  EvalOutput root_out;

  if (!reuse) {
    Node& root = tree_.node(tree_.root());
    ExpandState expected = ExpandState::kLeaf;
    APM_CHECK(root.state.compare_exchange_strong(
        expected, ExpandState::kExpanding, std::memory_order_acq_rel));
    env.encode(input.data());
    eval_.evaluate(input.data(), root_out);
    ops.expand(tree_.root(), env, root_out.policy,
               cfg_.root_noise ? &rng_ : nullptr);
  } else if (cfg_.root_noise) {
    ops.mix_root_noise(rng_);
  }

  int playouts_done = 0;
  std::vector<EvalOutput> outs(static_cast<std::size_t>(workers_));
  while (playouts_done < cfg_.num_playouts) {
    auto game = env.clone();
    Timer phase;
    const DescendOutcome outcome =
        ops.descend(*game, CollisionPolicy::kWait);
    metrics.select_seconds += phase.elapsed_seconds();
    metrics.max_depth = std::max(metrics.max_depth, outcome.depth);
    metrics.sum_depth += outcome.depth;

    if (outcome.status == DescendStatus::kTerminal) {
      ++metrics.terminal_rollouts;
      ops.backup(outcome.node, game->terminal_value());
      ++playouts_done;
      continue;
    }

    // All N workers evaluate the same leaf state concurrently. The DNN is
    // deterministic, so the N results agree — the textbook leaf-parallel
    // waste. Budget: N playouts consumed per iteration.
    const int dup = std::min(workers_, cfg_.num_playouts - playouts_done);
    game->encode(input.data());
    phase.reset();
    for (int w = 0; w < dup; ++w) {
      pool_.submit([this, &input, &outs, w] {
        eval_.evaluate(input.data(), outs[w]);
      });
    }
    pool_.wait_idle();
    metrics.eval_seconds += phase.elapsed_seconds();
    metrics.eval_requests += static_cast<std::size_t>(dup);

    phase.reset();
    ops.expand(outcome.node, *game, outs[0].policy);
    ++metrics.expansions;
    metrics.expand_seconds += phase.elapsed_seconds();

    phase.reset();
    // First backup settles the claimed path's virtual loss; the duplicates
    // re-walk the same path with fresh +visit/−visit-neutral VL handling.
    ops.backup(outcome.node, outs[0].value);
    for (int w = 1; w < dup; ++w) {
      // Re-apply a visit for each duplicate evaluation.
      NodeId node_id = outcome.node;
      float value = outs[w].value;
      while (node_id != kNullNode) {
        const Node& n = tree_.node(node_id);
        if (n.parent_edge == kNullEdge) break;
        value = -value;
        Edge& e = tree_.edge(n.parent_edge);
        e.visits.fetch_add(1, std::memory_order_acq_rel);
        atomic_add_float(e.value_sum, value);
        node_id = n.parent;
      }
    }
    metrics.backup_seconds += phase.elapsed_seconds();
    playouts_done += dup;
  }

  metrics.playouts = playouts_done;
  metrics.move_seconds = move_timer.elapsed_seconds();
  metrics.nodes = tree_.node_count();
  metrics.edges = tree_.edge_count();

  SearchResult result = extract_result(tree_, env.action_count());
  result.metrics = metrics;
  return result;
}

}  // namespace apm

#include "mcts/local_tree.hpp"

#include <algorithm>
#include <vector>

#include "mcts/selection.hpp"
#include "mcts/transposition.hpp"
#include "support/timer.hpp"

namespace apm {

LocalTreeMcts::LocalTreeMcts(MctsConfig cfg, int workers, EvalPort port,
                             SearchTree* shared_tree)
    : MctsSearch(cfg, std::move(port), shared_tree), workers_(workers) {
  port_.open_workers(workers);
}

SearchResult LocalTreeMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  InTreeOps ops(tree_, cfg_);
  metrics.workers = workers_;
  Timer move_timer;

  prepare_root(env, reuse);

  std::vector<float> input(env.encode_size());
  TtView tt_scratch;

  const int total = cfg_.num_playouts;
  int issued = 0;     // rollouts started (selection done)
  int completed = 0;  // rollouts fully backed up
  int in_flight = 0;  // evaluation requests outstanding

  // Applies one completion: expansion + backup on the master thread.
  auto process = [&](Completion&& c) {
    Timer phase;
    ops.note_eval(c.node, c.key, c.out.value);
    ops.expand_from_legal(c.node, c.legal, c.out.policy);
    ++metrics.expansions;
    if (tt_ != nullptr) {
      tt_store_expansion(tt_, tree_, c.node, c.key, c.out.value, c.depth,
                         c.announced);
      ++metrics.tt_stores;
    }
    metrics.expand_seconds += phase.elapsed_seconds();

    phase.reset();
    ops.backup(c.node, c.out.value);
    metrics.backup_seconds += phase.elapsed_seconds();

    --in_flight;
    ++completed;
  };

  while (completed < total) {
    // Opportunistically drain finished evaluations to keep the tree fresh.
    while (auto c = port_.poll(metrics)) process(std::move(*c));

    const bool at_capacity = in_flight >= workers_;
    if (issued >= total || at_capacity) {
      if (in_flight > 0) process(port_.wait(metrics));
      continue;
    }

    // One selection on the master thread.
    auto game = env.clone();
    Timer phase;
    const DescendOutcome outcome =
        ops.descend(*game, CollisionPolicy::kBackout);
    metrics.select_seconds += phase.elapsed_seconds();
    metrics.max_depth = std::max(metrics.max_depth, outcome.depth);
    metrics.sum_depth += outcome.depth;

    switch (outcome.status) {
      case DescendStatus::kCollision:
        // The path leads into an evaluation still in flight; apply a
        // result first so the tree can move on.
        ++metrics.expansion_collisions;
        process(port_.wait(metrics));
        break;
      case DescendStatus::kTerminal: {
        ++metrics.terminal_rollouts;
        phase.reset();
        ops.backup(outcome.node, game->terminal_value());
        metrics.backup_seconds += phase.elapsed_seconds();
        ++issued;
        ++completed;
        break;
      }
      case DescendStatus::kLeaf: {
        const std::uint64_t key = game->eval_key();
        bool announced = false;
        if (tt_ != nullptr) {
          // Batched probe pass (Cazenave): resolve against the TT before
          // the position ever reaches the evaluation queue. A hit expands
          // and backs up synchronously on the master — no in-flight slot,
          // no batch occupancy. A miss is announced so a sibling rollout
          // reaching the same position coalesces on the queue layer
          // (kPending here, kCoalesced there) instead of double-counting.
          Timer tt_phase;
          ++metrics.tt_probes;
          float tt_value = 0.0f;
          const TtProbeResult tr =
              tt_probe_and_graft(tt_, ops, outcome.node, key, tt_scratch,
                                 &tt_value, &announced);
          if (tr == TtProbeResult::kHit) {
            ++metrics.tt_grafts;
            metrics.expand_seconds += tt_phase.elapsed_seconds();
            tt_phase.reset();
            ops.backup(outcome.node, tt_value);
            metrics.backup_seconds += tt_phase.elapsed_seconds();
            ++issued;
            ++completed;
            break;
          }
          if (tr == TtProbeResult::kPending) ++metrics.tt_pending;
          metrics.expand_seconds += tt_phase.elapsed_seconds();
        }
        game->encode(input.data());
        Completion c;
        c.node = outcome.node;
        c.key = key;
        c.depth = outcome.depth;
        c.announced = announced;
        game->legal_actions(c.legal);
        ++issued;
        ++in_flight;
        port_.submit(input.data(), std::move(c), metrics);
        break;
      }
    }

    // Every remaining request has been issued, so a partial batch can
    // never fill to the threshold on its own.
    if (issued >= total && in_flight > 0) port_.flush_tail();
  }

  APM_CHECK(in_flight == 0);
  return finish_move(env, metrics, reuse, move_timer);
}

}  // namespace apm

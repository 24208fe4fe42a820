#include "mcts/serial.hpp"

#include "mcts/selection.hpp"
#include "mcts/transposition.hpp"
#include "support/timer.hpp"

namespace apm {

SerialMcts::SerialMcts(MctsConfig cfg, EvalPort port,
                       SearchTree* shared_tree)
    : MctsSearch(cfg, std::move(port), shared_tree) {}

SearchResult SerialMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  InTreeOps ops(tree_, cfg_);
  metrics.workers = 1;
  Timer move_timer;

  prepare_root(env, reuse);

  std::vector<float> input(env.encode_size());
  EvalOutput eval_out;
  TtView tt_scratch;

  for (int playout = 0; playout < cfg_.num_playouts; ++playout) {
    auto game = env.clone();
    Timer phase;
    const DescendOutcome outcome =
        ops.descend(*game, CollisionPolicy::kWait);
    metrics.select_seconds += phase.elapsed_seconds();
    metrics.max_depth = std::max(metrics.max_depth, outcome.depth);
    metrics.sum_depth += outcome.depth;

    if (outcome.status == DescendStatus::kTerminal) {
      ++metrics.terminal_rollouts;
      phase.reset();
      ops.backup(outcome.node, game->terminal_value());
      metrics.backup_seconds += phase.elapsed_seconds();
      continue;
    }

    const std::uint64_t key = game->eval_key();
    bool announced = false;
    if (tt_ != nullptr) {
      phase.reset();
      ++metrics.tt_probes;
      float tt_value = 0.0f;
      const TtProbeResult tr = tt_probe_and_graft(tt_, ops, outcome.node, key,
                                                  tt_scratch, &tt_value,
                                                  &announced);
      if (tr == TtProbeResult::kHit) {
        // Grafted from the table: no encode, no eval request. The graft is
        // expansion work, so it lands in expand_seconds.
        ++metrics.tt_grafts;
        metrics.expand_seconds += phase.elapsed_seconds();
        phase.reset();
        ops.backup(outcome.node, tt_value);
        metrics.backup_seconds += phase.elapsed_seconds();
        continue;
      }
      if (tr == TtProbeResult::kPending) ++metrics.tt_pending;
      metrics.expand_seconds += phase.elapsed_seconds();
    }

    phase.reset();
    game->encode(input.data());
    port_.evaluate(input.data(), key, eval_out, metrics);
    metrics.eval_seconds += phase.elapsed_seconds();

    phase.reset();
    ops.note_eval(outcome.node, key, eval_out.value);
    ops.expand(outcome.node, *game, eval_out.policy);
    ++metrics.expansions;
    if (tt_ != nullptr) {
      tt_store_expansion(tt_, tree_, outcome.node, key, eval_out.value,
                         outcome.depth, announced);
      ++metrics.tt_stores;
    }
    metrics.expand_seconds += phase.elapsed_seconds();

    phase.reset();
    ops.backup(outcome.node, eval_out.value);
    metrics.backup_seconds += phase.elapsed_seconds();
  }

  return finish_move(env, metrics, reuse, move_timer);
}

}  // namespace apm

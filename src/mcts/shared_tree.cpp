#include "mcts/shared_tree.hpp"

#include <mutex>
#include <thread>
#include <vector>

#include "mcts/selection.hpp"
#include "mcts/transposition.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace apm {

SharedTreeMcts::SharedTreeMcts(MctsConfig cfg, int workers, EvalPort port,
                               SearchTree* shared_tree)
    : MctsSearch(cfg, std::move(port), shared_tree), workers_(workers) {
  APM_CHECK(workers >= 1);
}

void SharedTreeMcts::worker_loop(const Game& env,
                                 std::atomic<int>& playout_counter,
                                 SearchMetrics& metrics) {
  InTreeOps ops(tree_, cfg_);
  std::vector<float> input(env.encode_size());
  EvalOutput out;
  TtView tt_scratch;  // per-worker: probe results never cross threads
  const bool coarse = cfg_.lock_mode == LockMode::kCoarse;

  for (;;) {
    const int ticket = playout_counter.fetch_add(1, std::memory_order_acq_rel);
    if (ticket >= cfg_.num_playouts) return;

    Timer phase;
    std::unique_ptr<Game> game;
    DescendOutcome outcome;
    if (coarse) {
      // Never wait on a collision while holding the coarse lock: the
      // expander needs that same lock to publish its edges. Back out,
      // release, retry.
      for (;;) {
        game = env.clone();
        {
          std::lock_guard guard(tree_.coarse_lock());
          outcome = ops.descend(*game, CollisionPolicy::kBackout);
        }
        if (outcome.status != DescendStatus::kCollision) break;
        std::this_thread::yield();
      }
    } else {
      game = env.clone();
      outcome = ops.descend(*game, CollisionPolicy::kWait);
    }
    metrics.select_seconds += phase.elapsed_seconds();
    metrics.max_depth = std::max(metrics.max_depth, outcome.depth);
    metrics.sum_depth += outcome.depth;

    if (outcome.status == DescendStatus::kTerminal) {
      ++metrics.terminal_rollouts;
      phase.reset();
      if (coarse) {
        std::lock_guard guard(tree_.coarse_lock());
        ops.backup(outcome.node, game->terminal_value());
      } else {
        ops.backup(outcome.node, game->terminal_value());
      }
      metrics.backup_seconds += phase.elapsed_seconds();
      continue;
    }

    const std::uint64_t key = game->eval_key();
    bool announced = false;
    if (tt_ != nullptr) {
      phase.reset();
      ++metrics.tt_probes;
      float tt_value = 0.0f;
      TtProbeResult tr;
      if (coarse) {
        // TT ops serialise on their own bucket locks; only the tree graft
        // itself needs the coarse lock (lock order coarse→bucket is never
        // reversed anywhere, so no cycle).
        tr = tt_->probe(key, tt_scratch);
        if (tr == TtProbeResult::kHit) {
          {
            std::lock_guard guard(tree_.coarse_lock());
            ops.expand_from_tt(outcome.node, key, tt_scratch);
          }
          tt_value = tt_scratch.value;
          // Mirrors the tt_probe_and_graft instant (the per-node path) so
          // coarse-mode grafts are visible on the timeline too.
          obs::emit_instant("tt_graft", "mcts",
                            {{"edges", tt_scratch.edges.size()},
                             {"depth", tt_scratch.depth},
                             {"visits", tt_scratch.visits},
                             {"lane", tt_->label()}});
        } else {
          announced = tt_->announce(key);
        }
      } else {
        tr = tt_probe_and_graft(tt_, ops, outcome.node, key, tt_scratch,
                                &tt_value, &announced);
      }
      if (tr == TtProbeResult::kHit) {
        ++metrics.tt_grafts;
        metrics.expand_seconds += phase.elapsed_seconds();
        phase.reset();
        if (coarse) {
          std::lock_guard guard(tree_.coarse_lock());
          ops.backup(outcome.node, tt_value);
        } else {
          ops.backup(outcome.node, tt_value);
        }
        metrics.backup_seconds += phase.elapsed_seconds();
        continue;
      }
      if (tr == TtProbeResult::kPending) ++metrics.tt_pending;
      metrics.expand_seconds += phase.elapsed_seconds();
    }

    phase.reset();
    game->encode(input.data());
    port_.evaluate(input.data(), key, out, metrics);
    metrics.eval_seconds += phase.elapsed_seconds();

    phase.reset();
    if (coarse) {
      std::lock_guard guard(tree_.coarse_lock());
      ops.note_eval(outcome.node, key, out.value);
      ops.expand(outcome.node, *game, out.policy);
      if (tt_ != nullptr) {
        tt_store_expansion(tt_, tree_, outcome.node, key, out.value,
                           outcome.depth, announced);
        ++metrics.tt_stores;
      }
      metrics.expand_seconds += phase.elapsed_seconds();
      phase.reset();
      ops.backup(outcome.node, out.value);
    } else {
      ops.note_eval(outcome.node, key, out.value);
      ops.expand(outcome.node, *game, out.policy);
      if (tt_ != nullptr) {
        // Edges are immutable once published; the store reads them without
        // tree locks and serialises on its bucket lock.
        tt_store_expansion(tt_, tree_, outcome.node, key, out.value,
                           outcome.depth, announced);
        ++metrics.tt_stores;
      }
      metrics.expand_seconds += phase.elapsed_seconds();
      phase.reset();
      ops.backup(outcome.node, out.value);
    }
    ++metrics.expansions;
    metrics.backup_seconds += phase.elapsed_seconds();
  }
}

SearchResult SharedTreeMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  metrics.workers = workers_;
  Timer move_timer;

  prepare_root(env, reuse);

  std::atomic<int> playout_counter{0};
  std::vector<SearchMetrics> parts(static_cast<std::size_t>(workers_));
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      threads.emplace_back([this, &env, &playout_counter, &parts, w] {
        worker_loop(env, playout_counter, parts[w]);
      });
    }
  }  // joins

  for (const SearchMetrics& part : parts) metrics.accumulate(part);
  return finish_move(env, metrics, reuse, move_timer);
}

}  // namespace apm

#include "mcts/shared_tree.hpp"

#include <mutex>
#include <thread>
#include <vector>

#include "mcts/selection.hpp"
#include "mcts/transposition.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace apm {

SharedTreeMcts::SharedTreeMcts(MctsConfig cfg, int workers, Evaluator& eval,
                               SearchTree* shared_tree)
    : MctsSearch(cfg, shared_tree),
      workers_(workers),
      eval_(&eval),
      rng_(cfg.seed) {
  APM_CHECK(workers >= 1);
}

SharedTreeMcts::SharedTreeMcts(MctsConfig cfg, int workers,
                               AsyncBatchEvaluator& batch,
                               SearchTree* shared_tree)
    : MctsSearch(cfg, shared_tree),
      workers_(workers),
      batch_(&batch),
      rng_(cfg.seed) {
  APM_CHECK(workers >= 1);
}

void SharedTreeMcts::evaluate_root(const Game& env) {
  InTreeOps ops(tree_, cfg_);
  Node& root = tree_.node(tree_.root());
  ExpandState expected = ExpandState::kLeaf;
  const bool claimed = root.state.compare_exchange_strong(
      expected, ExpandState::kExpanding, std::memory_order_acq_rel);
  APM_CHECK(claimed);

  std::vector<float> input(env.encode_size());
  env.encode(input.data());
  EvalOutput out;
  if (batch_ != nullptr) {
    SubmitOutcome how = SubmitOutcome::kQueued;
    auto fut = batch_->submit_future(input.data(), batch_tag(), env.eval_key(),
                                     &how);
    // Sole producer: don't wait for a batch that can't fill. On a tagged
    // multi-producer queue the flush would dispatch other games' forming
    // batches; the stale timer bounds the root's wait there instead.
    if (batch_tag() < 0 && how == SubmitOutcome::kQueued) batch_->flush();
    out = fut.get();
    // Root dedupe is deliberately NOT counted into SearchMetrics:
    // eval_requests counts leaf evaluations only, and cache_hits must stay
    // a subset of it so hit-rate ratios are well-formed. Root hits still
    // show in the queue- and cache-level counters.
  } else {
    eval_->evaluate(input.data(), out);
  }
  ops.note_eval(tree_.root(), env.eval_key(), out.value);
  ops.expand(tree_.root(), env, out.policy, cfg_.root_noise ? &rng_ : nullptr);
}

void SharedTreeMcts::worker_loop(const Game& env,
                                 std::atomic<int>& playout_counter,
                                 WorkerStats& stats) {
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
    stats.select_s += phase.elapsed_seconds();
    stats.max_depth = std::max(stats.max_depth, outcome.depth);
    stats.sum_depth += outcome.depth;

    if (outcome.status == DescendStatus::kTerminal) {
      ++stats.terminals;
      phase.reset();
      if (coarse) {
        std::lock_guard guard(tree_.coarse_lock());
        ops.backup(outcome.node, game->terminal_value());
      } else {
        ops.backup(outcome.node, game->terminal_value());
      }
      stats.backup_s += phase.elapsed_seconds();
      continue;
    }

    const std::uint64_t key = game->eval_key();
    bool announced = false;
    if (tt_ != nullptr) {
      phase.reset();
      ++stats.tt_probes;
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
        ++stats.tt_grafts;
        stats.expand_s += phase.elapsed_seconds();
        phase.reset();
        if (coarse) {
          std::lock_guard guard(tree_.coarse_lock());
          ops.backup(outcome.node, tt_value);
        } else {
          ops.backup(outcome.node, tt_value);
        }
        stats.backup_s += phase.elapsed_seconds();
        continue;
      }
      if (tr == TtProbeResult::kPending) ++stats.tt_pending;
      stats.expand_s += phase.elapsed_seconds();
    }

    phase.reset();
    game->encode(input.data());
    if (batch_ != nullptr) {
      SubmitOutcome how = SubmitOutcome::kQueued;
      out = batch_->submit_future(input.data(), batch_tag(), key, &how).get();
      if (how == SubmitOutcome::kCacheHit) ++stats.cache_hits;
      if (how == SubmitOutcome::kCoalesced) ++stats.coalesced;
    } else {
      eval_->evaluate(input.data(), out);
    }
    ++stats.evals;
    stats.eval_s += phase.elapsed_seconds();

    phase.reset();
    if (coarse) {
      std::lock_guard guard(tree_.coarse_lock());
      ops.note_eval(outcome.node, key, out.value);
      ops.expand(outcome.node, *game, out.policy);
      if (tt_ != nullptr) {
        tt_store_expansion(tt_, tree_, outcome.node, key, out.value,
                           outcome.depth, announced);
        ++stats.tt_stores;
      }
      stats.expand_s += phase.elapsed_seconds();
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
        ++stats.tt_stores;
      }
      stats.expand_s += phase.elapsed_seconds();
      phase.reset();
      ops.backup(outcome.node, out.value);
    }
    ++stats.expansions;
    stats.backup_s += phase.elapsed_seconds();
  }
}

SearchResult SharedTreeMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  metrics.workers = workers_;
  Timer move_timer;

  BatchQueueStats batch_before;
  if (batch_ != nullptr) batch_before = batch_->stats();

  if (!reuse) {
    evaluate_root(env);
  } else if (cfg_.root_noise) {
    InTreeOps ops(tree_, cfg_);
    ops.mix_root_noise(rng_);
  }

  std::atomic<int> playout_counter{0};
  std::vector<WorkerStats> stats(static_cast<std::size_t>(workers_));
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      threads.emplace_back([this, &env, &playout_counter, &stats, w] {
        worker_loop(env, playout_counter, stats[w]);
      });
    }
  }  // joins

  for (const WorkerStats& s : stats) {
    metrics.select_seconds += s.select_s;
    metrics.eval_seconds += s.eval_s;
    metrics.expand_seconds += s.expand_s;
    metrics.backup_seconds += s.backup_s;
    metrics.max_depth = std::max(metrics.max_depth, s.max_depth);
    metrics.sum_depth += s.sum_depth;
    metrics.terminal_rollouts += s.terminals;
    metrics.eval_requests += s.evals;
    metrics.cache_hits += s.cache_hits;
    metrics.coalesced_evals += s.coalesced;
    metrics.expansions += s.expansions;
    metrics.tt_probes += s.tt_probes;
    metrics.tt_grafts += s.tt_grafts;
    metrics.tt_pending += s.tt_pending;
    metrics.tt_stores += s.tt_stores;
  }
  if (batch_ != nullptr) {
    // Sole producer: settle the queue before reading the delta. On a
    // tagged multi-producer queue drain() would stall on other games'
    // traffic — and is unnecessary, since our workers block on their own
    // futures, so nothing of ours is still in flight here.
    if (batch_tag() < 0) batch_->drain();
    finish_batch_metrics(*batch_, batch_before, metrics, reuse);
  }

  metrics.playouts = cfg_.num_playouts;
  metrics.move_seconds = move_timer.elapsed_seconds();
  metrics.nodes = tree_.node_count();
  metrics.edges = tree_.edge_count();

  SearchResult result = extract_result(tree_, env.action_count());
  result.metrics = metrics;
  return result;
}

}  // namespace apm

#include "mcts/local_tree.hpp"

#include <algorithm>
#include <vector>

#include "mcts/selection.hpp"
#include "mcts/transposition.hpp"
#include "support/sync_queue.hpp"
#include "support/timer.hpp"

namespace apm {
namespace {

// A finished node evaluation travelling back to the master thread.
struct Completion {
  NodeId node = kNullNode;
  std::vector<int> legal;  // captured at selection time (the master does
                           // not retain the game state of the leaf)
  EvalOutput out;
  std::uint64_t key = 0;     // leaf eval_key, for the TT store
  std::int32_t depth = 0;
  bool announced = false;    // a TT in-flight mark to release at store time
  // CPU pool mode: started when the request was submitted, and the time the
  // worker spent inside evaluate(). The rest of the round trip is the
  // hand-off (submit → worker wake, completion push → master pickup).
  Timer since_submit;
  double eval_seconds = 0.0;
};

}  // namespace

LocalTreeMcts::LocalTreeMcts(MctsConfig cfg, int workers, Evaluator& eval,
                             SearchTree* shared_tree)
    : MctsSearch(cfg, shared_tree),
      workers_(workers),
      eval_(&eval),
      pool_(std::make_unique<ThreadPool>(static_cast<std::size_t>(workers))),
      rng_(cfg.seed) {
  APM_CHECK(workers >= 1);
}

LocalTreeMcts::LocalTreeMcts(MctsConfig cfg, int workers,
                             AsyncBatchEvaluator& batch,
                             SearchTree* shared_tree)
    : MctsSearch(cfg, shared_tree),
      workers_(workers),
      batch_(&batch),
      rng_(cfg.seed) {
  APM_CHECK(workers >= 1);
}

void LocalTreeMcts::evaluate_root(const Game& env) {
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
    // Sole producer only: on a tagged multi-producer queue the flush would
    // dispatch other games' forming batches (stale timer covers the wait).
    if (batch_tag() < 0 && how == SubmitOutcome::kQueued) batch_->flush();
    out = fut.get();
    // Root dedupe is deliberately NOT counted into SearchMetrics (see
    // SharedTreeMcts::evaluate_root): cache_hits must stay a subset of the
    // leaf-only eval_requests.
  } else {
    eval_->evaluate(input.data(), out);
  }
  ops.note_eval(tree_.root(), env.eval_key(), out.value);
  ops.expand(tree_.root(), env, out.policy, cfg_.root_noise ? &rng_ : nullptr);
}

SearchResult LocalTreeMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  InTreeOps ops(tree_, cfg_);
  metrics.workers = workers_;
  Timer move_timer;

  BatchQueueStats batch_before;
  if (batch_ != nullptr) batch_before = batch_->stats();

  if (!reuse) {
    evaluate_root(env);
  } else if (cfg_.root_noise) {
    ops.mix_root_noise(rng_);
  }

  SyncQueue<Completion> completions;
  std::vector<float> input(env.encode_size());
  TtView tt_scratch;

  const int total = cfg_.num_playouts;
  int issued = 0;     // rollouts started (selection done)
  int completed = 0;  // rollouts fully backed up
  int in_flight = 0;  // evaluation requests outstanding

  // Applies one completion: expansion + backup on the master thread.
  auto process = [&](Completion&& c) {
    if (pool_ != nullptr) {
      metrics.eval_seconds += c.eval_seconds;
      metrics.handoff_seconds +=
          std::max(0.0, c.since_submit.elapsed_seconds() - c.eval_seconds);
      ++metrics.handoff_requests;
    }
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

  // Over the batch queue the master's blocking wait is the eval cost it
  // sees; in pool mode the workers time their own evaluations instead (with
  // N requests overlapping, the master waits for only part of each one).
  auto wait_for_completion = [&] {
    Timer wait;
    auto c = completions.pop();
    if (batch_ != nullptr) metrics.eval_seconds += wait.elapsed_seconds();
    APM_CHECK_MSG(c.has_value(), "completion queue closed prematurely");
    process(std::move(*c));
  };

  while (completed < total) {
    // Opportunistically drain finished evaluations to keep the tree fresh.
    while (auto c = completions.try_pop()) process(std::move(*c));

    const bool pool_full = in_flight >= workers_;
    if (issued >= total || pool_full) {
      if (in_flight > 0) {
        wait_for_completion();
      }
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
        wait_for_completion();
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
        ++metrics.eval_requests;
        ++issued;
        ++in_flight;
        if (batch_ != nullptr) {
          const NodeId node_id = outcome.node;
          const std::int32_t depth = outcome.depth;
          auto legal = std::move(c.legal);
          // A cache hit runs the callback synchronously right here: the
          // completion lands in the queue and is processed on the next
          // loop pass — the master never blocks on a resident position.
          // A transposition *within this tree* (two nodes, same position)
          // coalesces onto its own in-flight request the same way a
          // cross-game duplicate does.
          const SubmitOutcome how = batch_->submit(
              input.data(),
              [&completions, node_id, key, depth, announced,
               legal = std::move(legal)](EvalOutput out) mutable {
                Completion done;
                done.node = node_id;
                done.legal = std::move(legal);
                done.out = std::move(out);
                done.key = key;
                done.depth = depth;
                done.announced = announced;
                completions.push(std::move(done));
              },
              batch_tag(), key);
          if (how == SubmitOutcome::kCacheHit) ++metrics.cache_hits;
          if (how == SubmitOutcome::kCoalesced) ++metrics.coalesced_evals;
        } else {
          auto state = std::make_shared<std::vector<float>>(input);
          const NodeId node_id = outcome.node;
          const std::int32_t depth = outcome.depth;
          auto legal = std::move(c.legal);
          pool_->submit([this, &completions, state, node_id, key, depth,
                         announced, legal = std::move(legal),
                         since_submit = Timer()]() mutable {
            Completion done;
            done.node = node_id;
            done.legal = std::move(legal);
            done.key = key;
            done.depth = depth;
            done.announced = announced;
            done.since_submit = since_submit;
            const Timer eval;
            eval_->evaluate(state->data(), done.out);
            done.eval_seconds = eval.elapsed_seconds();
            completions.push(std::move(done));
          });
        }
        break;
      }
    }

    // Tail flush: every remaining request has been issued, so a partial
    // batch can never fill to the threshold on its own. Sole producer
    // only — on a tagged multi-producer queue other games keep filling
    // batches and the stale timer bounds the stragglers' wait, while a
    // flush here would dispatch those games' forming batches early.
    if (batch_ != nullptr && batch_tag() < 0 && issued >= total &&
        in_flight > 0) {
      batch_->flush();
    }
  }

  APM_CHECK(in_flight == 0);

  if (batch_ != nullptr) {
    // The tail flush above already dispatched our stragglers, so no drain
    // is needed before reading the sole-producer delta.
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

#pragma once
// Related-work parallelisation baselines (§2.2), implemented for the
// ablation benches. Both are deliberately simple — the paper cites them as
// the schemes whose weaknesses motivate tree parallelism:
//
//  * Root-parallel [6]: N workers each grow an independent tree with
//    num_playouts/N playouts; root statistics are aggregated at the end.
//    Workers revisit the same states redundantly.
//
//  * Leaf-parallel [1]: one worker performs selection; at each leaf all N
//    workers evaluate concurrently. With a deterministic DNN evaluator the
//    N results are identical — the parallelism is provably wasted ("lack
//    of diverse evaluation coverage"), which is exactly the effect the
//    paper calls out. Each duplicate evaluation is backed up and counted
//    as a playout, matching the fixed per-move iteration budget.

#include "eval/evaluator.hpp"
#include "mcts/search.hpp"
#include "support/thread_pool.hpp"

namespace apm {

class RootParallelMcts final : public MctsSearch {
 public:
  // Root-parallel cannot reuse a shared arena (each worker grows a private
  // tree), so set_reuse_next() is a no-op for this scheme.
  RootParallelMcts(MctsConfig cfg, int workers, Evaluator& eval);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return Scheme::kRootParallel; }
  int workers() const override { return workers_; }

 private:
  int workers_;
  Evaluator& eval_;
};

class LeafParallelMcts final : public MctsSearch {
 public:
  LeafParallelMcts(MctsConfig cfg, int workers, Evaluator& eval,
                   SearchTree* shared_tree = nullptr);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return Scheme::kLeafParallel; }
  int workers() const override { return workers_; }

 private:
  int workers_;
  Evaluator& eval_;
  ThreadPool pool_;
};

}  // namespace apm

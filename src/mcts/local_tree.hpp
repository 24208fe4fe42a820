#pragma once
// Local-tree parallel DNN-MCTS (Algorithm 3, §3.1.2).
//
// One master thread owns the complete tree and performs ALL in-tree
// operations (selection, expansion, backup); N worker threads (or the
// accelerator queue's streams) execute only node evaluations. Master and
// workers communicate through FIFO queues: evaluation requests flow out,
// (node, policy, value) completions flow back. Because only the master
// touches the tree, the tree stays cache-resident and lock-free — the
// scheme's advantage — while all in-tree work is serialised — its cost
// (Eq. 5).
//
// The master keeps issuing selections while the worker pool has capacity
// (Algorithm 3 line 12: "if number of tasks in thread pool >= number of
// threads, wait for a task to finish"). If a selection runs into a node
// whose evaluation is still in flight, the master backs out (reverting
// virtual loss) and processes a completion first — it cannot wait, since
// it is itself the consumer of completions.
//
// Evaluation flavours mirror the shared-tree scheme:
//  * CPU mode — a dedicated pool of N threads, one evaluation per task.
//    Each worker times its own evaluate(); the master records the rest of
//    every request's round trip as hand-off time (SearchMetrics).
//  * Accelerator mode — an AsyncBatchEvaluator with tunable threshold B
//    and N/B streams (§3.3); B is chosen by Algorithm 4 at config time.

#include <memory>

#include "eval/async_batch.hpp"
#include "eval/evaluator.hpp"
#include "mcts/search.hpp"
#include "support/thread_pool.hpp"

namespace apm {

class LocalTreeMcts final : public MctsSearch {
 public:
  // CPU mode: spawns a private pool of `workers` evaluation threads.
  LocalTreeMcts(MctsConfig cfg, int workers, Evaluator& eval,
                SearchTree* shared_tree = nullptr);
  // Accelerator mode: requests go to the batch queue.
  LocalTreeMcts(MctsConfig cfg, int workers, AsyncBatchEvaluator& batch,
                SearchTree* shared_tree = nullptr);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return Scheme::kLocalTree; }
  int workers() const override { return workers_; }

 private:
  void evaluate_root(const Game& env);

  int workers_;
  Evaluator* eval_ = nullptr;
  AsyncBatchEvaluator* batch_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;  // CPU mode only
  Rng rng_;
};

}  // namespace apm

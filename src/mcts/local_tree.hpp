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
// Requests go out through the EvalPort's submit() and come back through
// poll()/wait() (eval_port.hpp): over a CPU evaluator the port's pool of N
// worker threads runs one evaluation per task; over the accelerator queue
// the threshold B and N/B streams are tuned by Algorithm 4 (§3.3).

#include "mcts/search.hpp"

namespace apm {

class LocalTreeMcts final : public MctsSearch {
 public:
  // Opens the port for `workers` evaluations in flight (over a CPU
  // evaluator, a pool of that many threads).
  LocalTreeMcts(MctsConfig cfg, int workers, EvalPort port,
                SearchTree* shared_tree = nullptr);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return Scheme::kLocalTree; }
  int workers() const override { return workers_; }

 private:
  int workers_;
};

}  // namespace apm

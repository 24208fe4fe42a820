#pragma once
// Shared-tree parallel DNN-MCTS (Algorithm 2, §3.1.1).
//
// N worker threads share one tree. Each worker runs complete rollouts:
// select (virtual loss marks the path so workers diverge), evaluate,
// expand, backup. Tree mutation uses per-edge atomics and per-node
// spinlocks (LockMode::kPerNode) or one coarse lock around the in-tree
// phases (LockMode::kCoarse — the original lock-everything variant [2],
// kept for the ablation bench).
//
// Each worker evaluates its leaves blocking through the EvalPort
// (eval_port.hpp), on its own thread over a CPU evaluator or through the
// batch queue, whose threshold the caller sets to N (§3.3).

#include "mcts/search.hpp"

namespace apm {

class SharedTreeMcts final : public MctsSearch {
 public:
  SharedTreeMcts(MctsConfig cfg, int workers, EvalPort port,
                 SearchTree* shared_tree = nullptr);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return Scheme::kSharedTree; }
  int workers() const override { return workers_; }

 private:
  // One worker's rollouts; its phase times and counters go to `metrics`.
  void worker_loop(const Game& env, std::atomic<int>& playout_counter,
                   SearchMetrics& metrics);

  int workers_;
};

}  // namespace apm

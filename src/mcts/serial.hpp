#pragma once
// Serial (1-worker) DNN-MCTS — the reference implementation every parallel
// scheme must agree with, and the baseline of the paper's §2.1 profile
// ("tree-based search accounts for more than 85% of the total runtime").
//
// Each leaf is evaluated blocking through the EvalPort (eval_port.hpp).
// Over a batch queue alone this is strictly slower (one in-flight request
// can never fill a batch; every eval waits for the stale-flush timer),
// which is exactly the single-game starvation the MatchService fixes: K
// concurrent serial games share one queue and their single requests
// coalesce into cross-game batches. The search result is identical either
// way — the scheme stays fully sequential in-game.

#include "mcts/search.hpp"

namespace apm {

class SerialMcts final : public MctsSearch {
 public:
  // `shared_tree` != nullptr runs over an externally owned arena (engine
  // mode, enabling cross-move reuse); nullptr owns a private tree.
  SerialMcts(MctsConfig cfg, EvalPort port, SearchTree* shared_tree = nullptr);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return Scheme::kSerial; }
  int workers() const override { return 1; }
};

}  // namespace apm

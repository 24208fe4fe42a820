#pragma once
// Scheme-dispatching constructor — the `flag_local` switch of Algorithm 1,
// generalised to every implemented scheme.

#include <memory>

#include "mcts/baselines.hpp"
#include "mcts/local_tree.hpp"
#include "mcts/search.hpp"
#include "mcts/serial.hpp"
#include "mcts/shared_tree.hpp"

namespace apm {

// Evaluation resources for a search. Serial and the tree-parallel drivers
// run over an EvalPort built from `batch` (accelerator queue) when it is
// set, else from `evaluator` (CPU inference); the baselines require
// `evaluator`. `batch_tag` (>= 0) tags every request this search submits to
// `batch`, so a shared multi-producer queue can attribute batch occupancy
// per game slot (MatchService).
struct SearchResources {
  Evaluator* evaluator = nullptr;
  AsyncBatchEvaluator* batch = nullptr;
  int batch_tag = -1;
  // Optional caller-owned transposition table, attached to the built
  // search via MctsSearch::set_transposition().
  TranspositionTable* tt = nullptr;
  // true: `tt` is a LANE-shared table serving other engines' games
  // concurrently (EvaluatorPool ownership). The attached search then
  // advances the table's generation monotonically (bump_generation) on its
  // own resets instead of overwriting it with its private tree epoch —
  // engine B starting a fresh game must never rewind the lane clock under
  // engine A's live entries. false (default): the historical private-table
  // contract, generation in lockstep with SearchTree::epoch().
  bool tt_shared = false;
};

// `shared_tree` != nullptr runs the scheme over an externally owned arena
// (the SearchEngine's long-lived tree, surviving moves and scheme
// switches); nullptr keeps the historical per-search-object private tree.
std::unique_ptr<MctsSearch> make_search(Scheme scheme, MctsConfig cfg,
                                        int workers, SearchResources res,
                                        SearchTree* shared_tree = nullptr);

}  // namespace apm

#pragma once
// Abstract move-level search interface implemented by every scheme.
//
// One search() call performs the paper's "tree-based search stage" for a
// single move: `num_playouts` rollouts (Node Selection → Expansion →
// Evaluation → Backup) from the given position, returning the normalised
// root visit counts ("action prior", Algorithms 2/3) plus per-phase
// metrics for the profiler and the benches.
//
// Evaluation: the Serial, SharedTree and LocalTree drivers evaluate every
// node through one EvalPort (eval_port.hpp), built from a CPU Evaluator or
// an AsyncBatchEvaluator; the baselines call their Evaluator directly.
//
// Tree ownership: every scheme runs over a SearchTree arena. Standalone
// construction owns a private arena (the historical behaviour — each
// search() resets it); the SearchEngine instead passes one long-lived
// shared arena to whichever driver is currently active, so the tree — and
// the subtree kept by SearchTree::advance_root() — survives across moves
// AND across runtime scheme switches. A driver only reuses the prepared
// tree when the owner arms set_reuse_next(); a plain search() call still
// starts from scratch, so direct users are unaffected.

#include <memory>

#include "games/game.hpp"
#include "mcts/config.hpp"
#include "mcts/eval_port.hpp"
#include "mcts/transposition.hpp"
#include "mcts/tree.hpp"
#include "support/timer.hpp"

namespace apm {

class MctsSearch {
 public:
  virtual ~MctsSearch() = default;

  // Runs a full move's worth of playouts starting from `env` (which is not
  // modified). Not re-entrant: one search() at a time per instance.
  virtual SearchResult search(const Game& env) = 0;

  virtual Scheme scheme() const = 0;
  virtual int workers() const = 0;

  const MctsConfig& config() const { return cfg_; }
  MctsConfig& mutable_config() { return cfg_; }

  SearchTree& tree() { return tree_; }

  // Arms cross-move tree reuse for the next search() only: the driver skips
  // the arena reset and the root evaluation, continuing from the subtree
  // the caller prepared via SearchTree::advance_root(). Ignored by schemes
  // that cannot reuse a tree (root-parallel grows fresh per-worker trees).
  void set_reuse_next(bool reuse) { reuse_next_ = reuse; }

  // Submitter tag passed with every batch-queue request (see EvalPort), so
  // a shared multi-producer queue (MatchService) can attribute batch
  // occupancy to this search's game slot. Negative = untagged (default).
  void set_batch_tag(int tag) { port_.set_tag(tag); }
  int batch_tag() const { return port_.tag(); }

  // Attaches a caller-owned transposition table (nullptr detaches). The
  // TT-aware drivers (Serial/SharedTree/LocalTree) probe it before every
  // leaf evaluation and store every fresh expansion; other schemes ignore
  // it. The owner manages generations/clearing: for a private table
  // (shared = false) the search keeps the generation in lockstep with
  // SearchTree::epoch(); for a lane-shared table (shared = true, see
  // SearchResources::tt_shared) it bumps the generation monotonically
  // instead — a shared clock must never rewind to one engine's epoch.
  void set_transposition(TranspositionTable* tt, bool shared = false) {
    tt_ = tt;
    tt_shared_ = shared;
  }
  TranspositionTable* transposition() const { return tt_; }
  bool transposition_shared() const { return tt_shared_; }

 protected:
  MctsSearch(MctsConfig cfg, EvalPort port, SearchTree* shared_tree = nullptr)
      : cfg_(cfg),
        owned_tree_(shared_tree ? nullptr : std::make_unique<SearchTree>()),
        tree_(shared_tree ? *shared_tree : *owned_tree_),
        port_(std::move(port)),
        rng_(cfg.seed) {}

  // Consumes the reuse flag; true only when the prepared root is actually
  // expanded (otherwise the search must evaluate it from scratch anyway).
  bool take_reuse() {
    const bool armed = reuse_next_;
    reuse_next_ = false;
    return armed && tree_.node(tree_.root()).state.load(
                        std::memory_order_acquire) == ExpandState::kExpanded;
  }

  // Shared search() prologue: resets the arena unless reuse was armed, and
  // records the carried-over subtree in the metrics. Returns whether the
  // root evaluation can be skipped.
  bool begin_move(SearchMetrics& metrics) {
    const bool reuse = take_reuse();
    if (!reuse) {
      tree_.reset();
      // reset() bumps the arena epoch exactly like advance_root()
      // compaction does; keep the TT's replacement clock in lockstep so
      // pre-reset memos age instead of reading as current. A lane-shared
      // table ticks forward instead: its clock belongs to every engine on
      // the lane, and overwriting it with this tree's (small, private)
      // epoch would rewind the aging of other games' live entries.
      if (tt_ != nullptr) {
        if (tt_shared_) {
          tt_->bump_generation();
        } else {
          tt_->set_generation(tree_.epoch());
        }
      }
    }
    metrics.reused_nodes = reuse ? tree_.node_count() : 0;
    metrics.reused_visits = reuse ? tree_.root_visit_total() : 0;
    return reuse;
  }

  // Shared root step of the port-driven drivers, run right after
  // begin_move() inside the move's timer: opens the port's per-move window,
  // then claims, evaluates and expands a fresh root (with Dirichlet noise
  // when configured), or mixes fresh noise into a reused one.
  void prepare_root(const Game& env, bool reuse);

  // Shared epilogue of the port-driven drivers: closes the port's window
  // into metrics.batch, stamps the move-level metrics and extracts the
  // root's visit distribution.
  SearchResult finish_move(const Game& env, SearchMetrics& metrics,
                           bool reuse, const Timer& move_timer);

  MctsConfig cfg_;
  std::unique_ptr<SearchTree> owned_tree_;
  SearchTree& tree_;
  TranspositionTable* tt_ = nullptr;
  bool tt_shared_ = false;
  EvalPort port_;
  Rng rng_;  // root noise

 private:
  bool reuse_next_ = false;
};

}  // namespace apm

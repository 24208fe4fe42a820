#pragma once
// In-tree operations shared by every search scheme: PUCT edge selection
// (Eq. 1), virtual-loss bookkeeping, node expansion and backup.
//
// Virtual loss follows the constant-VL variant [2] the paper describes in
// §2.1: while a rollout holds an edge, the edge behaves as if it had
// `virtual_loss` extra visits each returning a loss, lowering its U so
// concurrent workers diverge; the backup reverts it. With a single worker
// the VL is applied and reverted within one rollout and never observed, so
// serial search is unaffected — all schemes share this code path.

#include <cstdint>
#include <vector>

#include "games/game.hpp"
#include "mcts/config.hpp"
#include "mcts/transposition.hpp"
#include "mcts/tree.hpp"
#include "support/rng.hpp"

namespace apm {

// What a descent ended on.
enum class DescendStatus {
  kLeaf,       // claimed an unexpanded node (state moved kLeaf→kExpanding)
  kTerminal,   // reached a terminal game state
  kCollision,  // hit a node another rollout is expanding (kBackout mode
               // only); virtual losses along the path were reverted
};

// How to treat a node that is currently being expanded by someone else.
enum class CollisionPolicy {
  kWait,     // spin/yield until expanded, then continue (shared-tree)
  kBackout,  // revert VL and report kCollision (local-tree master: waiting
             // would deadlock, because the master itself applies results)
};

struct DescendOutcome {
  DescendStatus status = DescendStatus::kLeaf;
  NodeId node = kNullNode;
  int depth = 0;
};

// Stateless algorithms over one SearchTree + config. Thread-safe: all
// mutation goes through the tree's atomics/locks.
class InTreeOps {
 public:
  InTreeOps(SearchTree& tree, const MctsConfig& cfg)
      : tree_(tree), cfg_(cfg) {}

  // Selects argmax_a U(s,a) among `node`'s edges (Eq. 1, with virtual
  // losses folded into N and Q). node must be expanded and have edges.
  EdgeId select_edge(NodeId node) const;

  // Walks from the root following select_edge, applying virtual loss and
  // the corresponding game moves, until reaching an unexpanded node, a
  // terminal state, or a collision. On kLeaf return, the leaf is claimed
  // (state == kExpanding) and `game` holds the leaf position.
  DescendOutcome descend(Game& game, CollisionPolicy policy);

  // Creates `node`'s edges from the legal actions of the (leaf) position
  // and the evaluator policy (masked to legal actions and renormalised),
  // then publishes state = kExpanded. The caller must have claimed the
  // node. `noise_rng` != nullptr additionally mixes Dirichlet noise into
  // the priors (root expansion during self-play).
  void expand(NodeId node, const Game& game, const std::vector<float>& policy,
              Rng* noise_rng = nullptr);

  // Same as expand(), but from a pre-captured legal-action list (the
  // local-tree master no longer holds the leaf's game state when the
  // evaluation completes).
  void expand_from_legal(NodeId node, const std::vector<int>& legal,
                         const std::vector<float>& policy,
                         Rng* noise_rng = nullptr);

  // Expands a claimed leaf from a transposition-table hit instead of a
  // fresh evaluation: installs the stored (action, prior) list verbatim —
  // identical to what expand() would have produced for the same position
  // under a deterministic evaluator. Also records the node's position memo
  // (key + stored value) for later archiving.
  void expand_from_tt(NodeId node, std::uint64_t key, const TtView& hit);

  // Records the position memo (Zobrist eval_key + NN value) on a node the
  // caller has claimed (or just expanded): advance_root()'s archive pass
  // reads it to fold discarded subtrees into the transposition table.
  void note_eval(NodeId node, std::uint64_t key, float value);

  // Propagates `leaf_value` (value for the player to move at the leaf)
  // back to the root: along the path each edge gains one visit and the
  // value flips sign per level; virtual losses are reverted.
  void backup(NodeId leaf, float leaf_value);

  // Reverts virtual losses from `node` up to the root without recording a
  // visit (used when a rollout is abandoned).
  void revert_path(NodeId node);

  // Mixes fresh Dirichlet noise into the (already expanded) root's priors —
  // self-play exploration on a reused root, where expand() never runs. The
  // convex mix of two distributions stays normalised. No-op on an
  // unexpanded root.
  void mix_root_noise(Rng& rng);

  // Ensures edge->child exists, creating a leaf node under the parent's
  // lock on first use.
  NodeId get_or_create_child(NodeId parent, EdgeId edge_id);

  SearchTree& tree() { return tree_; }

 private:
  void apply_virtual_loss(EdgeId edge_id);

  SearchTree& tree_;
  const MctsConfig& cfg_;
};

// Evaluates root synchronously via `policy`/`value` already computed by the
// caller and prepares the tree root. Collects the per-move result out of
// root statistics.
SearchResult extract_result(const SearchTree& tree, int action_count);

// Samples a Dirichlet(alpha, ..., alpha) vector of size n into `out`.
void sample_dirichlet(Rng& rng, float alpha, std::size_t n,
                      std::vector<float>& out);

}  // namespace apm

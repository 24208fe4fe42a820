#pragma once
// Concurrent search-tree storage.
//
// Following the paper (§4.2): "the tree is managed as a dynamically
// allocated array of node structs". Nodes and edges live in chunked arenas
// addressed by 32-bit ids, so (a) allocation never invalidates concurrent
// readers (chunks are stable once published), (b) a node's edges are
// contiguous (one cache streak per UCT scan), and (c) a 1600-playout Gomoku
// tree is a few MB — small enough to sit in a last-level cache, which is
// the local-tree scheme's latency advantage (§3.1.2).
//
// Edge statistics are C++ atomics: visits N(s,a), value sum W(s,a), the
// virtual-loss counter, and the child pointer. The shared-tree scheme
// updates them from N threads; per-node spinlocks additionally serialise
// expansion (and, in LockMode::kCoarse, a single lock serialises whole
// phases, reproducing the original lock-everything variant [2]).
//
// Chunk directories are fixed-size arrays of atomic pointers: growing the
// arena publishes a new chunk with a release store, and readers load with
// acquire — no reader ever observes a moving directory.
//
// The storage is DOUBLE-BUFFERED: two arenas, with an atomic front
// pointer. advance_root() compacts the kept subtree by copying it from the
// intact front arena into the back arena and swapping — the source is
// never overwritten mid-copy, so the copy can run on a background thread
// between moves (SearchEngine::background_compaction) while the old tree
// stays readable, and discarded nodes can be archived (e.g. folded into a
// TranspositionTable) from stable storage. Each reset/advance bumps the
// epoch counter, which the transposition table shares as its generation
// stamp.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/check.hpp"
#include "support/spinlock.hpp"

namespace apm {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
inline constexpr NodeId kNullNode = -1;
inline constexpr EdgeId kNullEdge = -1;

// Lock-free accumulate for atomic<float> (CAS loop; portable).
inline void atomic_add_float(std::atomic<float>& target, float delta) {
  float current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
  }
}

// One (state, action) edge. ~24 bytes.
struct Edge {
  std::atomic<std::int32_t> visits{0};        // N(s,a)
  std::atomic<float> value_sum{0.0f};         // W(s,a); Q = W/N
  std::atomic<std::int32_t> virtual_loss{0};  // active VL applications
  std::atomic<NodeId> child{kNullNode};
  float prior = 0.0f;  // P(s,a)
  std::int32_t action = -1;

  float q() const {
    const auto n = visits.load(std::memory_order_relaxed);
    if (n == 0) return 0.0f;
    return value_sum.load(std::memory_order_relaxed) / static_cast<float>(n);
  }
};

// Expansion lifecycle: kLeaf -> kExpanding (claimed by one rollout) ->
// kExpanded (edges valid).
enum class ExpandState : std::uint8_t {
  kLeaf = 0,
  kExpanding = 1,
  kExpanded = 2
};

struct Node {
  NodeId parent = kNullNode;
  EdgeId parent_edge = kNullEdge;
  EdgeId first_edge = kNullEdge;
  std::int32_t num_edges = 0;
  // Position memo, written by the expander before publishing kExpanded:
  // the game's eval_key() at this node and the NN value it evaluated to.
  // Lets advance_root() fold a discarded subtree's statistics back into a
  // transposition table keyed by the same Zobrist keys. 0 = unset.
  std::uint64_t hash = 0;
  float value = 0.0f;
  std::atomic<ExpandState> state{ExpandState::kLeaf};
  SpinLock lock;  // guards expansion & child-pointer installation
};

class SearchTree {
 public:
  // Invoked by advance_root() for every discarded (non-kept) node id while
  // the old arena is still intact — node()/edge() reads remain valid inside
  // the callback.
  using NodeArchiver = std::function<void(NodeId)>;

  SearchTree();
  ~SearchTree();

  SearchTree(const SearchTree&) = delete;
  SearchTree& operator=(const SearchTree&) = delete;

  // Discards all nodes/edges and creates a fresh root. NOT thread-safe
  // (call between moves, with no search running).
  void reset();

  // Cross-move tree reuse (AlphaZero-style): makes the child reached by
  // `action` from the current root the new root, keeping that subtree's
  // statistics and discarding every sibling subtree. The kept subtree is
  // compacted into the back arena (the counters of the new front arena
  // equal the subtree size) and the arenas swap. Returns false — and
  // leaves the tree freshly reset() — when there is nothing to reuse
  // (root unexpanded, action never visited, or child never created).
  // `archive` (optional) is called for every discarded node id before any
  // storage is reclaimed; on the false path it still runs over the whole
  // discarded tree. NOT thread-safe against a concurrent search, but safe
  // to run on a dedicated thread while no search is running — which is
  // exactly what SearchEngine's background compaction does.
  bool advance_root(int action, const NodeArchiver& archive = {});

  // Monotonic compaction epoch: bumped by every reset()/advance_root().
  // The transposition table's generation stamp tracks this counter.
  std::uint32_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // Σ_a N(root, a) — the visit mass already accumulated at the root (used
  // by the engine to credit reused visits against the playout budget).
  // Returns 0 when the root is unexpanded.
  std::int64_t root_visit_total() const;

  NodeId root() const { return 0; }

  Node& node(NodeId id) {
    Arena& a = *front_.load(std::memory_order_acquire);
    APM_DCHECK(id >= 0 &&
               static_cast<std::size_t>(id) <
                   a.node_count.load(std::memory_order_acquire));
    Node* chunk = a.node_dir[static_cast<std::size_t>(id) >> kNodeShift].load(
        std::memory_order_acquire);
    return chunk[static_cast<std::size_t>(id) & kNodeMask];
  }
  const Node& node(NodeId id) const {
    return const_cast<SearchTree*>(this)->node(id);
  }

  Edge& edge(EdgeId id) {
    Arena& a = *front_.load(std::memory_order_acquire);
    APM_DCHECK(id >= 0 &&
               static_cast<std::size_t>(id) <
                   a.edge_count.load(std::memory_order_acquire));
    Edge* chunk = a.edge_dir[static_cast<std::size_t>(id) >> kEdgeShift].load(
        std::memory_order_acquire);
    return chunk[static_cast<std::size_t>(id) & kEdgeMask];
  }
  const Edge& edge(EdgeId id) const {
    return const_cast<SearchTree*>(this)->edge(id);
  }

  // Allocates a fresh leaf node. Thread-safe.
  NodeId allocate_node(NodeId parent, EdgeId parent_edge);

  // Allocates `n` contiguous edges (within one chunk); returns the first
  // id. Thread-safe.
  EdgeId allocate_edges(std::int32_t n);

  std::size_t node_count() const {
    return front_.load(std::memory_order_acquire)
        ->node_count.load(std::memory_order_acquire);
  }
  std::size_t edge_count() const {
    return front_.load(std::memory_order_acquire)
        ->edge_count.load(std::memory_order_acquire);
  }

  // Approximate resident bytes (for the cache-fit analysis of Eq. 5).
  std::size_t memory_bytes() const {
    return footprint_bytes(node_count(), edge_count());
  }
  // The one footprint formula: the design-time profiler and the adaptive
  // controller's measured moves both size a tree with it.
  static std::size_t footprint_bytes(std::size_t nodes, std::size_t edges) {
    return nodes * sizeof(Node) + edges * sizeof(Edge);
  }

  // Coarse-lock mode: one lock for the whole tree (Algorithm 2 verbatim).
  SpinLock& coarse_lock() { return coarse_lock_; }

  static constexpr std::size_t kNodeShift = 12;  // 4096-node chunks
  static constexpr std::size_t kNodeMask = (1u << kNodeShift) - 1;
  static constexpr std::size_t kEdgeShift = 16;  // 65536-edge chunks
  static constexpr std::size_t kEdgeMask = (1u << kEdgeShift) - 1;
  static constexpr std::size_t kMaxNodeChunks = 1024;  // ≤ 4M nodes
  static constexpr std::size_t kMaxEdgeChunks = 1024;  // ≤ 64M edges

 private:
  struct Arena {
    std::atomic<Node*> node_dir[kMaxNodeChunks] = {};
    std::atomic<Edge*> edge_dir[kMaxEdgeChunks] = {};
    std::atomic<std::size_t> node_count{0};
    std::atomic<std::size_t> edge_count{0};
  };

  Arena& back_arena() {
    Arena* front = front_.load(std::memory_order_acquire);
    return front == &arenas_[0] ? arenas_[1] : arenas_[0];
  }
  NodeId allocate_node_in(Arena& a, NodeId parent, EdgeId parent_edge);
  EdgeId allocate_edges_in(Arena& a, std::int32_t n);
  void ensure_node_chunk(Arena& a, std::size_t chunk_idx);
  void ensure_edge_chunk(Arena& a, std::size_t chunk_idx);
  static Node& arena_node(Arena& a, NodeId id) {
    return a.node_dir[static_cast<std::size_t>(id) >> kNodeShift].load(
        std::memory_order_acquire)[static_cast<std::size_t>(id) & kNodeMask];
  }
  static Edge& arena_edge(Arena& a, EdgeId id) {
    return a.edge_dir[static_cast<std::size_t>(id) >> kEdgeShift].load(
        std::memory_order_acquire)[static_cast<std::size_t>(id) & kEdgeMask];
  }

  Arena arenas_[2];
  std::atomic<Arena*> front_{&arenas_[0]};
  std::atomic<std::uint32_t> epoch_{0};
  SpinLock grow_lock_;
  SpinLock coarse_lock_;
};

}  // namespace apm

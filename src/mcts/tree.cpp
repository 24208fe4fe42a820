#include "mcts/tree.hpp"

#include <mutex>
#include <vector>

namespace apm {

SearchTree::SearchTree() {
  ensure_node_chunk(arenas_[0], 0);
  ensure_edge_chunk(arenas_[0], 0);
  reset();
}

SearchTree::~SearchTree() {
  for (Arena& a : arenas_) {
    for (auto& slot : a.node_dir) delete[] slot.load(std::memory_order_acquire);
    for (auto& slot : a.edge_dir) delete[] slot.load(std::memory_order_acquire);
  }
}

void SearchTree::reset() {
  // Arena chunks are retained; only the counters rewind. Re-initialise the
  // root slot in place.
  Arena& a = *front_.load(std::memory_order_acquire);
  a.node_count.store(0, std::memory_order_relaxed);
  a.edge_count.store(0, std::memory_order_relaxed);
  const NodeId root_id = allocate_node(kNullNode, kNullEdge);
  APM_CHECK(root_id == 0);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

std::int64_t SearchTree::root_visit_total() const {
  const Node& r = node(root());
  if (r.state.load(std::memory_order_acquire) != ExpandState::kExpanded) {
    return 0;
  }
  std::int64_t total = 0;
  for (std::int32_t i = 0; i < r.num_edges; ++i) {
    total += edge(r.first_edge + i).visits.load(std::memory_order_acquire);
  }
  return total;
}

bool SearchTree::advance_root(int action, const NodeArchiver& archive) {
  Arena& src = *front_.load(std::memory_order_acquire);
  const std::size_t src_nodes = src.node_count.load(std::memory_order_acquire);
  const Node& old_root = node(root());
  EdgeId kept_edge = kNullEdge;
  if (old_root.state.load(std::memory_order_acquire) ==
      ExpandState::kExpanded) {
    for (std::int32_t i = 0; i < old_root.num_edges; ++i) {
      if (edge(old_root.first_edge + i).action == action) {
        kept_edge = old_root.first_edge + i;
        break;
      }
    }
  }
  const NodeId kept = kept_edge == kNullEdge
                          ? kNullNode
                          : edge(kept_edge).child.load(std::memory_order_acquire);
  if (kept == kNullNode) {
    // Nothing to reuse: the entire old tree is discarded. Archive it while
    // the arena is still intact, then rewind in place (no swap needed).
    if (archive) {
      for (std::size_t id = 0; id < src_nodes; ++id) {
        archive(static_cast<NodeId>(id));
      }
    }
    reset();
    return false;
  }

  // Copy the kept subtree from the intact front arena into the back arena.
  // The source is never mutated, so the old tree (and the archive pass
  // below) read consistent data throughout — this is what makes running
  // the whole routine on a background thread safe.
  Arena& dst = back_arena();
  dst.node_count.store(0, std::memory_order_relaxed);
  dst.edge_count.store(0, std::memory_order_relaxed);

  std::vector<bool> is_kept(src_nodes, false);
  // BFS over (old id, new id): parents always precede children, so a
  // child's parent edge block already exists in dst when the child copies.
  std::vector<NodeId> old_ids;
  std::vector<NodeId> new_ids;
  old_ids.push_back(kept);
  new_ids.push_back(allocate_node_in(dst, kNullNode, kNullEdge));
  APM_CHECK(new_ids[0] == 0);
  is_kept[static_cast<std::size_t>(kept)] = true;
  for (std::size_t i = 0; i < old_ids.size(); ++i) {
    const Node& n = node(old_ids[i]);
    Node& m = arena_node(dst, new_ids[i]);
    m.hash = n.hash;
    m.value = n.value;
    ExpandState st = n.state.load(std::memory_order_acquire);
    // A claimed-but-never-expanded node has no published edges; between
    // moves no rollout is in flight, so it is semantically a leaf.
    if (st == ExpandState::kExpanding) st = ExpandState::kLeaf;
    if (st != ExpandState::kExpanded) {
      m.state.store(st, std::memory_order_release);
      continue;
    }
    const EdgeId first = allocate_edges_in(dst, n.num_edges);
    m.first_edge = first;
    m.num_edges = n.num_edges;
    for (std::int32_t e = 0; e < n.num_edges; ++e) {
      const Edge& s = edge(n.first_edge + e);
      Edge& d = arena_edge(dst, first + e);
      d.visits.store(s.visits.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
      d.value_sum.store(s.value_sum.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
      d.prior = s.prior;
      d.action = s.action;
      APM_DCHECK(s.virtual_loss.load(std::memory_order_acquire) == 0);
      const NodeId child = s.child.load(std::memory_order_acquire);
      if (child != kNullNode) {
        const NodeId new_child = allocate_node_in(dst, new_ids[i], first + e);
        d.child.store(new_child, std::memory_order_relaxed);
        is_kept[static_cast<std::size_t>(child)] = true;
        old_ids.push_back(child);
        new_ids.push_back(new_child);
      }
    }
    m.state.store(st, std::memory_order_release);
  }

  // Fold the discarded siblings' statistics out (e.g. into a transposition
  // table) while the old arena is still readable.
  if (archive) {
    for (std::size_t id = 0; id < src_nodes; ++id) {
      if (!is_kept[id]) archive(static_cast<NodeId>(id));
    }
  }

  front_.store(&dst, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

NodeId SearchTree::allocate_node(NodeId parent, EdgeId parent_edge) {
  return allocate_node_in(*front_.load(std::memory_order_acquire), parent,
                          parent_edge);
}

NodeId SearchTree::allocate_node_in(Arena& a, NodeId parent,
                                    EdgeId parent_edge) {
  const std::size_t idx =
      a.node_count.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t chunk_idx = idx >> kNodeShift;
  APM_CHECK_MSG(chunk_idx < kMaxNodeChunks, "node arena exhausted");
  ensure_node_chunk(a, chunk_idx);
  Node& n = a.node_dir[chunk_idx].load(std::memory_order_acquire)
                [idx & kNodeMask];
  n.parent = parent;
  n.parent_edge = parent_edge;
  n.first_edge = kNullEdge;
  n.num_edges = 0;
  n.hash = 0;
  n.value = 0.0f;
  n.state.store(ExpandState::kLeaf, std::memory_order_release);
  return static_cast<NodeId>(idx);
}

EdgeId SearchTree::allocate_edges(std::int32_t n) {
  return allocate_edges_in(*front_.load(std::memory_order_acquire), n);
}

EdgeId SearchTree::allocate_edges_in(Arena& a, std::int32_t n) {
  APM_CHECK(n >= 0);
  if (n == 0) return kNullEdge;
  APM_CHECK_MSG(static_cast<std::size_t>(n) <= kEdgeMask + 1,
                "node fanout exceeds edge chunk size");
  for (;;) {
    const std::size_t first = a.edge_count.fetch_add(
        static_cast<std::size_t>(n), std::memory_order_acq_rel);
    const std::size_t last = first + static_cast<std::size_t>(n) - 1;
    if ((first >> kEdgeShift) != (last >> kEdgeShift)) {
      // Straddled a chunk boundary: abandon the slots (bounded waste, at
      // most one partial chunk per straddle) and retry from the next chunk.
      continue;
    }
    const std::size_t chunk_idx = first >> kEdgeShift;
    APM_CHECK_MSG(chunk_idx < kMaxEdgeChunks, "edge arena exhausted");
    ensure_edge_chunk(a, chunk_idx);
    Edge* chunk = a.edge_dir[chunk_idx].load(std::memory_order_acquire);
    for (std::size_t i = first; i <= last; ++i) {
      Edge& e = chunk[i & kEdgeMask];
      e.visits.store(0, std::memory_order_relaxed);
      e.value_sum.store(0.0f, std::memory_order_relaxed);
      e.virtual_loss.store(0, std::memory_order_relaxed);
      e.child.store(kNullNode, std::memory_order_relaxed);
      e.prior = 0.0f;
      e.action = -1;
    }
    return static_cast<EdgeId>(first);
  }
}

void SearchTree::ensure_node_chunk(Arena& a, std::size_t chunk_idx) {
  if (a.node_dir[chunk_idx].load(std::memory_order_acquire) != nullptr) return;
  std::lock_guard grow_guard(grow_lock_);
  if (a.node_dir[chunk_idx].load(std::memory_order_relaxed) == nullptr) {
    a.node_dir[chunk_idx].store(new Node[kNodeMask + 1],
                                std::memory_order_release);
  }
}

void SearchTree::ensure_edge_chunk(Arena& a, std::size_t chunk_idx) {
  if (a.edge_dir[chunk_idx].load(std::memory_order_acquire) != nullptr) return;
  std::lock_guard grow_guard(grow_lock_);
  if (a.edge_dir[chunk_idx].load(std::memory_order_relaxed) == nullptr) {
    a.edge_dir[chunk_idx].store(new Edge[kEdgeMask + 1],
                                std::memory_order_release);
  }
}

}  // namespace apm

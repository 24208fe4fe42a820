#include "mcts/selection.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

namespace apm {

std::string to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSerial:
      return "serial";
    case Scheme::kSharedTree:
      return "shared-tree";
    case Scheme::kLocalTree:
      return "local-tree";
    case Scheme::kLeafParallel:
      return "leaf-parallel";
    case Scheme::kRootParallel:
      return "root-parallel";
  }
  return "unknown";
}

std::vector<float> SearchResult::prior_with_temperature(float tau) const {
  std::vector<float> out(action_prior.size(), 0.0f);
  if (tau <= 1e-3f) {  // argmax limit
    if (best_action >= 0) out[best_action] = 1.0f;
    return out;
  }
  double total = 0.0;
  for (std::size_t a = 0; a < action_prior.size(); ++a) {
    if (action_prior[a] > 0.0f) {
      out[a] = std::pow(action_prior[a], 1.0f / tau);
      total += out[a];
    }
  }
  if (total > 0.0) {
    for (auto& p : out) p = static_cast<float>(p / total);
  }
  return out;
}

EdgeId InTreeOps::select_edge(NodeId node_id) const {
  const Node& n = tree_.node(node_id);
  APM_DCHECK(n.state.load(std::memory_order_acquire) ==
             ExpandState::kExpanded);
  APM_DCHECK(n.num_edges > 0);

  const float vl_weight = cfg_.virtual_loss;
  const bool pessimise =
      cfg_.vl_mode == VirtualLossMode::kConstant;
  // Σ_b N(s,b) including virtual (in-flight) visits.
  double total_visits = 0.0;
  for (std::int32_t i = 0; i < n.num_edges; ++i) {
    const Edge& e = tree_.edge(n.first_edge + i);
    total_visits += e.visits.load(std::memory_order_relaxed) +
                    e.virtual_loss.load(std::memory_order_relaxed);
  }
  const float sqrt_total =
      std::sqrt(static_cast<float>(total_visits) + 1e-8f);

  EdgeId best = n.first_edge;
  float best_u = -std::numeric_limits<float>::infinity();
  for (std::int32_t i = 0; i < n.num_edges; ++i) {
    const EdgeId eid = n.first_edge + i;
    const Edge& e = tree_.edge(eid);
    const auto visits = e.visits.load(std::memory_order_relaxed);
    const auto vl = e.virtual_loss.load(std::memory_order_relaxed);
    const float n_eff = static_cast<float>(visits + vl);
    float q = 0.0f;
    if (n_eff > 0.0f) {
      // kConstant [2]: in-flight rollouts each count as a loss of weight
      // `vl_weight`. kVisitTracking [8] (WU-UCT): they only inflate the
      // visit counts, leaving Q at its observed mean.
      float w_eff = e.value_sum.load(std::memory_order_relaxed);
      if (pessimise) w_eff -= static_cast<float>(vl) * vl_weight;
      q = pessimise ? w_eff / n_eff
                    : (visits > 0 ? w_eff / static_cast<float>(visits)
                                  : 0.0f) *
                          (static_cast<float>(visits) / n_eff);
    }
    const float u = q + cfg_.c_puct * e.prior * sqrt_total / (1.0f + n_eff);
    if (u > best_u) {
      best_u = u;
      best = eid;
    }
  }
  return best;
}

void InTreeOps::apply_virtual_loss(EdgeId edge_id) {
  tree_.edge(edge_id).virtual_loss.fetch_add(1, std::memory_order_acq_rel);
}

DescendOutcome InTreeOps::descend(Game& game, CollisionPolicy policy) {
  DescendOutcome out;
  NodeId node_id = tree_.root();
  for (;;) {
    if (game.is_terminal()) {
      out.status = DescendStatus::kTerminal;
      out.node = node_id;
      return out;
    }
    Node& n = tree_.node(node_id);
    ExpandState st = n.state.load(std::memory_order_acquire);
    if (st == ExpandState::kLeaf) {
      ExpandState expected = ExpandState::kLeaf;
      if (n.state.compare_exchange_strong(expected, ExpandState::kExpanding,
                                          std::memory_order_acq_rel)) {
        out.status = DescendStatus::kLeaf;
        out.node = node_id;
        return out;
      }
      st = expected;  // someone else claimed or finished
    }
    if (st == ExpandState::kExpanding) {
      if (policy == CollisionPolicy::kBackout) {
        revert_path(node_id);
        out.status = DescendStatus::kCollision;
        out.node = node_id;
        return out;
      }
      // kWait: the expander is running a DNN inference; yield until the
      // edges are published. (This is the lock-wait of Algorithm 2.)
      while (n.state.load(std::memory_order_acquire) !=
             ExpandState::kExpanded) {
        std::this_thread::yield();
      }
    }
    // Expanded: select, mark virtual loss, move down.
    const EdgeId eid = select_edge(node_id);
    apply_virtual_loss(eid);
    Edge& e = tree_.edge(eid);
    game.apply(e.action);
    node_id = get_or_create_child(node_id, eid);
    ++out.depth;
  }
}

NodeId InTreeOps::get_or_create_child(NodeId parent, EdgeId edge_id) {
  Edge& e = tree_.edge(edge_id);
  NodeId child = e.child.load(std::memory_order_acquire);
  if (child != kNullNode) return child;
  Node& p = tree_.node(parent);
  std::lock_guard guard(p.lock);
  child = e.child.load(std::memory_order_relaxed);
  if (child == kNullNode) {
    child = tree_.allocate_node(parent, edge_id);
    e.child.store(child, std::memory_order_release);
  }
  return child;
}

void InTreeOps::expand(NodeId node_id, const Game& game,
                       const std::vector<float>& policy, Rng* noise_rng) {
  std::vector<int> legal;
  game.legal_actions(legal);
  expand_from_legal(node_id, legal, policy, noise_rng);
}

void InTreeOps::expand_from_legal(NodeId node_id,
                                  const std::vector<int>& legal,
                                  const std::vector<float>& policy,
                                  Rng* noise_rng) {
  Node& n = tree_.node(node_id);
  APM_CHECK_MSG(n.state.load(std::memory_order_acquire) ==
                    ExpandState::kExpanding,
                "expand() on an unclaimed node");
  APM_CHECK_MSG(!legal.empty(), "expanding a terminal position");

  float total = 0.0f;
  for (int a : legal) total += policy[a];
  const bool degenerate = total <= 1e-8f;
  const float uniform = 1.0f / static_cast<float>(legal.size());

  std::vector<float> noise;
  if (noise_rng != nullptr) {
    sample_dirichlet(*noise_rng, cfg_.dirichlet_alpha, legal.size(), noise);
  }

  const EdgeId first =
      tree_.allocate_edges(static_cast<std::int32_t>(legal.size()));
  for (std::size_t i = 0; i < legal.size(); ++i) {
    Edge& e = tree_.edge(first + static_cast<EdgeId>(i));
    float prior = degenerate ? uniform : policy[legal[i]] / total;
    if (noise_rng != nullptr) {
      prior = (1.0f - cfg_.noise_fraction) * prior +
              cfg_.noise_fraction * noise[i];
    }
    e.prior = prior;
    e.action = legal[i];
  }
  {
    // Publish edges before flipping the state so concurrent select_edge
    // never sees a half-built child list.
    std::lock_guard guard(n.lock);
    n.first_edge = first;
    n.num_edges = static_cast<std::int32_t>(legal.size());
  }
  n.state.store(ExpandState::kExpanded, std::memory_order_release);
}

void InTreeOps::note_eval(NodeId node_id, std::uint64_t key, float value) {
  // Only the claimer/expander of a node writes its memo, and the archive
  // pass that reads it runs strictly between moves — no synchronisation
  // needed beyond the kExpanded release-store that follows expansion.
  Node& n = tree_.node(node_id);
  n.hash = key;
  n.value = value;
}

void InTreeOps::expand_from_tt(NodeId node_id, std::uint64_t key,
                               const TtView& hit) {
  Node& n = tree_.node(node_id);
  APM_CHECK_MSG(n.state.load(std::memory_order_acquire) ==
                    ExpandState::kExpanding,
                "expand_from_tt() on an unclaimed node");
  const auto count = static_cast<std::int32_t>(hit.edges.size());
  APM_CHECK_MSG(count > 0, "grafting an entry without edges");

  const EdgeId first = tree_.allocate_edges(count);
  for (std::int32_t i = 0; i < count; ++i) {
    const TtEdge& s = hit.edges[static_cast<std::size_t>(i)];
    Edge& e = tree_.edge(first + i);
    e.action = s.action;
    e.prior = s.prior;
  }
  n.hash = key;
  n.value = hit.value;
  {
    // Publish edges before flipping the state so concurrent select_edge
    // never sees a half-built child list (mirrors expand_from_legal).
    std::lock_guard guard(n.lock);
    n.first_edge = first;
    n.num_edges = count;
  }
  n.state.store(ExpandState::kExpanded, std::memory_order_release);
}

void InTreeOps::backup(NodeId leaf, float leaf_value) {
  float value = leaf_value;
  NodeId node_id = leaf;
  while (node_id != kNullNode) {
    const Node& n = tree_.node(node_id);
    const EdgeId eid = n.parent_edge;
    if (eid == kNullEdge) break;  // reached root
    // The edge belongs to the parent, whose player is the opponent of the
    // player to move at `node_id`.
    value = -value;
    Edge& e = tree_.edge(eid);
    e.visits.fetch_add(1, std::memory_order_acq_rel);
    atomic_add_float(e.value_sum, value);
    e.virtual_loss.fetch_sub(1, std::memory_order_acq_rel);
    node_id = n.parent;
  }
}

void InTreeOps::mix_root_noise(Rng& rng) {
  Node& root = tree_.node(tree_.root());
  if (root.state.load(std::memory_order_acquire) != ExpandState::kExpanded ||
      root.num_edges == 0) {
    return;
  }
  std::vector<float> noise;
  sample_dirichlet(rng, cfg_.dirichlet_alpha,
                   static_cast<std::size_t>(root.num_edges), noise);
  for (std::int32_t i = 0; i < root.num_edges; ++i) {
    Edge& e = tree_.edge(root.first_edge + i);
    e.prior = (1.0f - cfg_.noise_fraction) * e.prior +
              cfg_.noise_fraction * noise[i];
  }
}

void InTreeOps::revert_path(NodeId node_id) {
  while (node_id != kNullNode) {
    const Node& n = tree_.node(node_id);
    const EdgeId eid = n.parent_edge;
    if (eid == kNullEdge) break;
    tree_.edge(eid).virtual_loss.fetch_sub(1, std::memory_order_acq_rel);
    node_id = n.parent;
  }
}

SearchResult extract_result(const SearchTree& tree, int action_count) {
  SearchResult result;
  result.action_prior.assign(static_cast<std::size_t>(action_count), 0.0f);
  const Node& root = tree.node(tree.root());
  double total = 0.0;
  double value_weighted = 0.0;
  std::int32_t best_visits = -1;
  for (std::int32_t i = 0; i < root.num_edges; ++i) {
    const Edge& e = tree.edge(root.first_edge + i);
    const auto visits = e.visits.load(std::memory_order_acquire);
    result.action_prior[e.action] = static_cast<float>(visits);
    total += visits;
    value_weighted += static_cast<double>(e.q()) * visits;
    if (visits > best_visits) {
      best_visits = visits;
      result.best_action = e.action;
    }
  }
  if (total > 0.0) {
    for (auto& p : result.action_prior)
      p = static_cast<float>(p / total);
    result.root_value = static_cast<float>(value_weighted / total);
  }
  return result;
}

void sample_dirichlet(Rng& rng, float alpha, std::size_t n,
                      std::vector<float>& out) {
  // Gamma(alpha) via Marsaglia–Tsang; for alpha < 1 use the boost
  // Gamma(alpha+1) * U^(1/alpha) identity.
  auto sample_gamma = [&rng](float a) -> float {
    float boost = 1.0f;
    if (a < 1.0f) {
      boost = std::pow(static_cast<float>(rng.uniform()) + 1e-12f, 1.0f / a);
      a += 1.0f;
    }
    const float d = a - 1.0f / 3.0f;
    const float c = 1.0f / std::sqrt(9.0f * d);
    for (;;) {
      // One normal sample via Box–Muller.
      const double u1 = 1.0 - rng.uniform();
      const double u2 = rng.uniform();
      const float x = static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                                         std::cos(2.0 * M_PI * u2));
      const float v0 = 1.0f + c * x;
      if (v0 <= 0.0f) continue;
      const float v = v0 * v0 * v0;
      const float u = static_cast<float>(rng.uniform());
      if (u < 1.0f - 0.0331f * x * x * x * x ||
          std::log(u + 1e-20f) <
              0.5f * x * x + d * (1.0f - v + std::log(v))) {
        return boost * d * v;
      }
    }
  };

  out.resize(n);
  float total = 0.0f;
  for (auto& g : out) {
    g = sample_gamma(alpha);
    total += g;
  }
  if (total <= 0.0f) {
    const float uniform = 1.0f / static_cast<float>(n);
    for (auto& g : out) g = uniform;
    return;
  }
  for (auto& g : out) g /= total;
}

}  // namespace apm

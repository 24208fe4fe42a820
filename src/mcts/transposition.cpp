#include "mcts/transposition.hpp"

#include <algorithm>
#include <mutex>

#include "mcts/selection.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace apm {

TranspositionTable::TranspositionTable(TtConfig cfg) : cfg_(std::move(cfg)) {
  APM_CHECK(cfg_.ways >= 1);
  APM_CHECK(cfg_.max_edges >= 1);
  APM_CHECK(cfg_.capacity >= static_cast<std::size_t>(cfg_.ways));
  if (!cfg_.name.empty()) label_ = obs::intern_label(cfg_.name);
  buckets_ = (cfg_.capacity + static_cast<std::size_t>(cfg_.ways) - 1) /
             static_cast<std::size_t>(cfg_.ways);
  entries_.resize(buckets_ * static_cast<std::size_t>(cfg_.ways));
  payload_.resize(entries_.size() * static_cast<std::size_t>(cfg_.max_edges));
  bucket_locks_ = std::make_unique<SpinLock[]>(buckets_);
}

std::size_t TranspositionTable::bucket_of(std::uint64_t key) const {
  // eval_key() is already splitmix-style mixed; fold the halves so bucket
  // selection uses bits independent of any game's low-entropy cell bits.
  const std::uint64_t folded = key ^ (key >> 32);
  return static_cast<std::size_t>(folded % buckets_);
}

double TranspositionTable::retain_score(const Entry& e) const {
  const std::uint32_t now = generation();
  const std::uint32_t age = now >= e.generation ? now - e.generation : 0;
  // Visit mass is the dominant term, decayed by how many compaction epochs
  // ago the entry was last useful; shallow (small-depth) nodes root larger
  // subtrees, so depth is a small penalty, not a bonus.
  return (static_cast<double>(e.visits) + 1.0) / (1.0 + age) -
         0.001 * static_cast<double>(e.depth);
}

TtProbeResult TranspositionTable::probe(std::uint64_t key, TtView& out) {
  if (key == 0) return TtProbeResult::kMiss;
  probes_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t b = bucket_of(key);
  std::lock_guard guard(bucket_locks_[b]);
  const std::size_t base = b * static_cast<std::size_t>(cfg_.ways);
  for (int w = 0; w < cfg_.ways; ++w) {
    Entry& e = entries_[base + static_cast<std::size_t>(w)];
    if (e.key != key) continue;
    if (e.num_edges == 0) {
      // Announced but not yet stored: pending iff the evaluation is still
      // in flight somewhere; a released placeholder reads as a miss. On a
      // shared table the announcer may be another game entirely — the
      // instant's lane label is what lets a trace tell the two apart.
      if (e.inflight > 0) {
        pending_.fetch_add(1, std::memory_order_relaxed);
        obs::emit_instant("tt_pending", "mcts",
                          {{"inflight", e.inflight}, {"lane", label_}});
        return TtProbeResult::kPending;
      }
      return TtProbeResult::kMiss;
    }
    const std::uint32_t now = generation();
    if (cfg_.max_age > 0 && now >= e.generation &&
        now - e.generation > static_cast<std::uint32_t>(cfg_.max_age)) {
      return TtProbeResult::kMiss;  // aged out; stays evictable in place
    }
    out.value = e.value;
    out.depth = e.depth;
    out.inflight = e.inflight;
    out.visits = e.visits;
    out.generation = e.generation;
    out.edges.assign(slab(base + static_cast<std::size_t>(w)),
                     slab(base + static_cast<std::size_t>(w)) + e.num_edges);
    e.generation = now;  // refresh: a grafted entry is a live one
    hits_.fetch_add(1, std::memory_order_relaxed);
    return TtProbeResult::kHit;
  }
  return TtProbeResult::kMiss;
}

bool TranspositionTable::announce(std::uint64_t key) {
  if (key == 0) return false;
  const std::size_t b = bucket_of(key);
  std::lock_guard guard(bucket_locks_[b]);
  const std::size_t base = b * static_cast<std::size_t>(cfg_.ways);
  Entry* empty = nullptr;
  for (int w = 0; w < cfg_.ways; ++w) {
    Entry& e = entries_[base + static_cast<std::size_t>(w)];
    if (e.key == key) {
      ++e.inflight;
      return true;
    }
    if (e.key == 0 && empty == nullptr) empty = &e;
  }
  if (empty == nullptr) return false;  // bucket full of other keys
  *empty = Entry{};
  empty->key = key;
  empty->generation = generation();
  empty->inflight = 1;
  occupied_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TranspositionTable::store(std::uint64_t key, float value,
                               std::int32_t depth, const TtEdge* edges,
                               std::int32_t count, bool release_inflight) {
  if (key == 0) return;
  const std::size_t b = bucket_of(key);
  std::lock_guard guard(bucket_locks_[b]);
  const std::size_t base = b * static_cast<std::size_t>(cfg_.ways);

  Entry* match = nullptr;
  Entry* empty = nullptr;
  Entry* victim = nullptr;
  std::size_t match_idx = 0, empty_idx = 0, victim_idx = 0;
  double victim_score = 0.0;
  for (int w = 0; w < cfg_.ways; ++w) {
    const std::size_t idx = base + static_cast<std::size_t>(w);
    Entry& e = entries_[idx];
    if (e.key == key) {
      match = &e;
      match_idx = idx;
      break;
    }
    if (e.key == 0) {
      if (empty == nullptr) {
        empty = &e;
        empty_idx = idx;
      }
      continue;
    }
    if (e.inflight > 0) continue;  // never evict an announced position
    const double score = retain_score(e);
    if (victim == nullptr || score < victim_score) {
      victim = &e;
      victim_idx = idx;
      victim_score = score;
    }
  }

  if (match != nullptr && release_inflight && match->inflight > 0) {
    --match->inflight;
  }
  if (count > cfg_.max_edges || count <= 0) {
    skipped_fanout_.fetch_add(1, std::memory_order_relaxed);
    // A placeholder that will never gain a payload is dead weight; free
    // the way so the bucket doesn't pin a permanently-pending key.
    if (match != nullptr && match->num_edges == 0 && match->inflight == 0) {
      *match = Entry{};
      occupied_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }

  std::int64_t incoming_visits = 0;
  for (std::int32_t i = 0; i < count; ++i) incoming_visits += edges[i].visits;

  if (match != nullptr) {
    if (match->num_edges == count) {
      // Same position stored twice: fold the visit mass, keep the memo
      // (deterministic evaluator ⇒ priors/value are identical anyway).
      bool same_actions = true;
      TtEdge* stored = slab(match_idx);
      for (std::int32_t i = 0; i < count; ++i) {
        if (stored[i].action != edges[i].action) {
          same_actions = false;
          break;
        }
      }
      if (same_actions) {
        for (std::int32_t i = 0; i < count; ++i) {
          stored[i].visits += edges[i].visits;
        }
        match->visits += incoming_visits;
        match->depth = std::min(match->depth, depth);
        match->generation = generation();
        merges_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    if (match->num_edges == 0) {
      // Filling an announced placeholder — the common miss→store path.
      stores_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // 64-bit key collision (different position, same key) — vanishingly
      // rare; the newer position wins.
      replacements_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::int32_t keep_inflight = match->inflight;
    *match = Entry{};
    match->key = key;
    match->inflight = keep_inflight;
    match->value = value;
    match->depth = depth;
    match->visits = incoming_visits;
    match->num_edges = count;
    match->generation = generation();
    std::copy(edges, edges + count, slab(match_idx));
    return;
  }

  Entry* target = empty;
  std::size_t target_idx = empty_idx;
  if (target == nullptr) {
    if (victim == nullptr ||
        victim_score >= retain_score_for_new(incoming_visits, depth)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    target = victim;
    target_idx = victim_idx;
    replacements_.fetch_add(1, std::memory_order_relaxed);
  } else {
    occupied_.fetch_add(1, std::memory_order_relaxed);
  }
  *target = Entry{};
  target->key = key;
  target->value = value;
  target->depth = depth;
  target->visits = incoming_visits;
  target->num_edges = count;
  target->generation = generation();
  std::copy(edges, edges + count, slab(target_idx));
  stores_.fetch_add(1, std::memory_order_relaxed);
}

void TranspositionTable::clear() {
  // Bucket-at-a-time under the bucket locks: a lane-owned invalidate may
  // race other games' probe/announce/store traffic (header note covers the
  // dropped-announce and in-flight-stale-store caveats). occupied_ is
  // adjusted by the count actually cleared, not reset wholesale — a
  // concurrent announce in an already-swept bucket keeps its increment.
  std::int64_t cleared = 0;
  for (std::size_t b = 0; b < buckets_; ++b) {
    std::lock_guard guard(bucket_locks_[b]);
    const std::size_t base = b * static_cast<std::size_t>(cfg_.ways);
    for (int w = 0; w < cfg_.ways; ++w) {
      Entry& e = entries_[base + static_cast<std::size_t>(w)];
      if (e.key == 0) continue;
      e = Entry{};
      ++cleared;
    }
  }
  occupied_.fetch_sub(cleared, std::memory_order_relaxed);
}

TtStatsSnapshot TranspositionTable::stats() const {
  TtStatsSnapshot s;
  s.probes = probes_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.pending = pending_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.merges = merges_.load(std::memory_order_relaxed);
  s.replacements = replacements_.load(std::memory_order_relaxed);
  s.skipped_fanout = skipped_fanout_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.entries = static_cast<std::size_t>(
      std::max<std::int64_t>(0, occupied_.load(std::memory_order_relaxed)));
  s.capacity = entries_.size();
  return s;
}

TtProbeResult tt_probe_and_graft(TranspositionTable* tt, InTreeOps& ops,
                                 NodeId node, std::uint64_t key,
                                 TtView& scratch, float* value_out,
                                 bool* announced) {
  *announced = false;
  if (tt == nullptr || key == 0) return TtProbeResult::kMiss;
  const TtProbeResult r = tt->probe(key, scratch);
  if (r == TtProbeResult::kHit) {
    ops.expand_from_tt(node, key, scratch);
    *value_out = scratch.value;
    obs::emit_instant("tt_graft", "mcts",
                      {{"edges", scratch.edges.size()},
                       {"depth", scratch.depth},
                       {"visits", scratch.visits},
                       {"lane", tt->label()}});
    return r;
  }
  *announced = tt->announce(key);
  return r;
}

void tt_store_expansion(TranspositionTable* tt, SearchTree& tree, NodeId node,
                        std::uint64_t key, float value, std::int32_t depth,
                        bool release_inflight) {
  if (tt == nullptr || key == 0) return;
  const Node& n = tree.node(node);
  const std::int32_t count = n.num_edges;
  if (count > tt->config().max_edges || count <= 0) {
    // Let store() release the announce mark and count the skip.
    tt->store(key, value, depth, nullptr, count, release_inflight);
    return;
  }
  TtEdge edges[64];
  std::vector<TtEdge> heap;
  TtEdge* out = edges;
  if (count > 64) {
    heap.resize(static_cast<std::size_t>(count));
    out = heap.data();
  }
  for (std::int32_t i = 0; i < count; ++i) {
    const Edge& e = tree.edge(n.first_edge + i);
    out[i].action = e.action;
    out[i].prior = e.prior;
    out[i].visits = 0;  // fresh expansion: the archive pass folds real mass
  }
  tt->store(key, value, depth, out, count, release_inflight);
}

}  // namespace apm

#pragma once
// Zobrist-keyed transposition table over the search arena (ROADMAP
// direction 5; see src/mcts/DESIGN_transposition.md for the full design
// note covering the TT ↔ tree-reuse ↔ virtual-loss interaction).
//
// The EvalCache (PR 4) dedupes NN *calls*; this table shares search
// *memory*: when a rollout claims a leaf whose position (keyed by the
// games' incremental Zobrist `Game::eval_key()`) was already expanded —
// earlier this move, on a previous move of the same game, or in a
// discarded sibling subtree folded back by `advance_root()` — the stored
// per-edge priors and NN value graft the node without touching the encoder
// or the evaluation backend at all. Layout follows mcts-dama's TT + arena
// split (SNIPPETS.md snippet 1): the arena holds the tree, the TT is a
// fixed-size open-addressed side table of position memos; Batch MCTS
// (Cazenave 2021) motivates coexisting with the async batch queue — a
// probe miss is *announced* so concurrent rollouts on the same position
// see a pending marker instead of double-counting, mirroring the queue's
// in-flight coalescing one layer up.
//
// Structure: `capacity` entries in buckets of `ways`, indexed by the high
// key bits, each entry owning a fixed slab of `max_edges` edge stats. One
// spinlock per bucket serialises probe/store/announce within a bucket (a
// handful of words each), which keeps the SharedTree scheme's contended
// probes race-free without per-field atomics. Replacement is
// generation-stamped and depth/visit-weighted: the owner advances
// `generation` alongside the tree's compaction epoch, and a victim is the
// way with the lowest visit mass decayed by generation age — stale moves'
// memos fade without ever rehashing live ones. Entries are pure memos
// (deterministic evaluator ⇒ a stored position is never wrong), so
// generations drive *replacement priority*, not correctness invalidation;
// `clear()` is for weight changes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mcts/tree.hpp"
#include "support/spinlock.hpp"

namespace apm {

class InTreeOps;

struct TtConfig {
  bool enabled = false;  // engines build a TT only when set
  // Entry count (rounded up to a whole number of buckets).
  std::size_t capacity = 8192;
  int ways = 4;  // bucket associativity
  // Positions with more legal actions than this are not stored (bounds the
  // per-entry slab; covers Connect4/Othello fanouts by default while
  // skipping Gomoku openings).
  int max_edges = 40;
  // > 0: probe treats entries older than this many generations as misses.
  // 0 (default): memos never age out — replacement pressure alone recycles
  // them.
  int max_age = 0;
  // Label carried by the table's trace instants (tt_graft / tt_pending) —
  // the lane name for a pool-owned shared table, empty = "engine" for an
  // engine-private one. Interned at construction (trace events borrow
  // static pointers).
  std::string name;
};

enum class TtProbeResult { kMiss, kHit, kPending };

// One stored edge: prior at expansion plus the visit mass folded back by
// the archive pass (zero right after a store-at-expansion).
struct TtEdge {
  std::int32_t action = -1;
  float prior = 0.0f;
  std::int64_t visits = 0;
  double value_sum = 0.0;
};

// Probe output. Caller-owned so per-worker scratch avoids allocation in
// the hot path (the edges vector is reused across probes).
struct TtView {
  float value = 0.0f;       // NN value memo at expansion
  std::int32_t depth = 0;
  std::int32_t inflight = 0;  // announced evaluations in flight elsewhere
  std::int64_t visits = 0;    // Σ folded edge visits
  std::uint32_t generation = 0;
  std::vector<TtEdge> edges;
};

struct TtStatsSnapshot {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
  std::uint64_t pending = 0;
  std::uint64_t stores = 0;        // fresh entries written
  std::uint64_t merges = 0;        // stores folded into an existing entry
  std::uint64_t replacements = 0;  // victims evicted by a store
  std::uint64_t skipped_fanout = 0;
  std::uint64_t dropped = 0;  // stores with no admissible way
  std::size_t entries = 0;    // occupied ways right now
  std::size_t capacity = 0;
};

class TranspositionTable {
 public:
  explicit TranspositionTable(TtConfig cfg);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  // Looks `key` up. kHit fills `out` (and refreshes the entry's
  // generation stamp); kPending means the position is announced but its
  // payload has not been stored yet; kMiss otherwise. key == 0 is the
  // "no key" sentinel and always misses. Thread-safe.
  TtProbeResult probe(std::uint64_t key, TtView& out);

  // Marks an evaluation of `key` as in flight, so concurrent probes of the
  // same position report kPending instead of racing to duplicate work.
  // Returns true when a mark was placed (an existing entry or a claimed
  // empty way) — the caller must then pass release_inflight = true to the
  // matching store(). Returns false when the bucket is full of other keys
  // (the eval proceeds untracked). Thread-safe.
  bool announce(std::uint64_t key);

  // Stores (or merges into) `key`'s entry: `value` is the NN value memo,
  // `edges` the per-action priors plus any visit mass to fold. A second
  // store of the same position accumulates visits/value sums and keeps the
  // existing priors/value memo. count > max_edges releases the announce
  // mark but stores nothing. Thread-safe.
  void store(std::uint64_t key, float value, std::int32_t depth,
             const TtEdge* edges, std::int32_t count, bool release_inflight);

  // Generation stamp applied to new/refreshed entries; an engine-private
  // table's owner keeps it in lockstep with SearchTree::epoch() so
  // advance_root() reuse ages the table without rehashing.
  void set_generation(std::uint32_t gen) {
    generation_.store(gen, std::memory_order_release);
  }
  // Lane-shared alternative: no single engine's epoch can drive a shared
  // table's clock (engine B starting a fresh game would rewind it below
  // engine A's live entries), so shared owners advance it monotonically —
  // one bump per committed move / reset of ANY attached engine. With K
  // games the clock runs ~K× faster than a private table's; generations
  // are replacement priority only, so that just makes idle memos fade
  // proportionally faster, never wrong. Thread-safe.
  void bump_generation() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  std::uint32_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Drops every entry (weights changed / new game without carry-over).
  // Cumulative counters survive. Thread-safe (per-bucket locks): a
  // lane-owned clear may race other games' probes/stores. Announce marks
  // are dropped with their placeholders — a store() whose mark was cleared
  // simply inserts a fresh entry (release on a missing match is a no-op) —
  // and, as with EvalCache::clear(), an evaluation already in flight under
  // the old weights may complete and store after the clear; entries are
  // memos, so the next clear (or replacement pressure) retires it.
  void clear();

  const TtConfig& config() const { return cfg_; }
  std::size_t capacity() const { return entries_.size(); }
  // Interned static label for trace instants: cfg.name, or "engine".
  const char* label() const { return label_; }
  TtStatsSnapshot stats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;  // 0 = empty way
    std::uint32_t generation = 0;
    std::int32_t num_edges = 0;  // 0 = announced placeholder, no payload
    std::int32_t depth = 0;
    std::int32_t inflight = 0;
    std::int64_t visits = 0;
    float value = 0.0f;
  };

  std::size_t bucket_of(std::uint64_t key) const;
  TtEdge* slab(std::size_t entry_idx) {
    return payload_.data() + entry_idx * static_cast<std::size_t>(cfg_.max_edges);
  }
  // Replacement priority: visit-and-depth mass decayed by generation age.
  double retain_score(const Entry& e) const;
  // The score a new entry would have (age 0): what it must beat to evict.
  static double retain_score_for_new(std::int64_t visits, std::int32_t depth) {
    return (static_cast<double>(visits) + 1.0) -
           0.001 * static_cast<double>(depth);
  }

  TtConfig cfg_;
  const char* label_ = "engine";
  std::size_t buckets_ = 0;
  std::vector<Entry> entries_;
  std::vector<TtEdge> payload_;
  std::unique_ptr<SpinLock[]> bucket_locks_;
  std::atomic<std::uint32_t> generation_{0};

  mutable std::atomic<std::uint64_t> probes_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> pending_{0};
  mutable std::atomic<std::uint64_t> stores_{0};
  mutable std::atomic<std::uint64_t> merges_{0};
  mutable std::atomic<std::uint64_t> replacements_{0};
  mutable std::atomic<std::uint64_t> skipped_fanout_{0};
  mutable std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::int64_t> occupied_{0};
};

// --- driver glue (shared by Serial / SharedTree / LocalTree) -------------

// One probe-and-graft step for a freshly claimed leaf: on kHit the node is
// expanded from the stored entry (per tt->config().graft) and *value_out
// holds the value to back up; on kMiss/kPending the evaluation is
// announced and *announced records whether a mark was placed (pass it to
// tt_store_expansion). tt == nullptr or key == 0 is a silent kMiss.
TtProbeResult tt_probe_and_graft(TranspositionTable* tt, InTreeOps& ops,
                                 NodeId node, std::uint64_t key,
                                 TtView& scratch, float* value_out,
                                 bool* announced);

// Stores a freshly expanded node's (action, prior) list plus its NN value
// memo under `key`. Call after expand(), before/after backup — the edge
// priors are immutable once published. No-op when tt == nullptr (but a
// pending announce mark would then leak, so drivers only announce when a
// table is attached).
void tt_store_expansion(TranspositionTable* tt, SearchTree& tree, NodeId node,
                        std::uint64_t key, float value, std::int32_t depth,
                        bool release_inflight);

}  // namespace apm

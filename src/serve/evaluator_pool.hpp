#pragma once
// Multi-model serving registry — one evaluation *lane* per named net.
//
// The MatchService's games submit to a batch queue (and its EvalCache),
// and a real serving front end hosts many nets at once — different games,
// different training generations, A/B pairs — so a request for net X must
// never be answered from net Y's batch or cache. The EvaluatorPool is the
// registry every MatchService runs over (a single-net service is a
// one-lane pool): each registered model owns a private lane of
//
//     InferenceBackend  (caller-owned: the net / sim-GPU that computes)
//       └ EvalCache     (per-net — the cache-keying caveat from ROADMAP:
//                        keys are Game::eval_key() *within one net*, so
//                        isolation comes from separate tables, not from
//                        salting the key)
//       └ AsyncBatchEvaluator (per-net queue: batches form across every
//                        game routed to this model, never across models)
//
// and the MatchService routes each game slot to its declared lane. Cross-
// game batching is preserved *within* a lane (K Gomoku games on net A still
// coalesce into net A's batches) while lanes stay fully isolated: separate
// thresholds, separate stats, separate invalidation.
//
// Per-model invalidation contract: invalidate(id) clears ONLY model id's
// search memory — its cache AND its shared transposition table (below). A
// weight update to one net (Trainer SGD between waves) makes that net's
// cached policies stale and nobody else's — the all-or-nothing
// EvalCache::clear() of PR 4 forced every model to pay for any model's
// update; with per-net caches a foreign update leaves a lane's residency
// and hit rate untouched (pinned by test_hetero, extended to TTs by
// test_shared_tt). Callers that cannot name the updated model fall back to
// invalidate_all().
//
// Lane-shared transposition table (ISSUE 9): a lane may additionally own
// one TranspositionTable (ModelSpec::tt.enabled), sized per lane and
// handed by the MatchService to EVERY SearchEngine its slots build for
// this lane — K concurrent games of the same net dedupe *expansions*
// across games exactly as the lane EvalCache dedupes NN calls, one layer
// deeper (a graft skips encode + queue + inference, not just inference).
// Lifecycle is lane-owned: engines never clear the shared table or write
// absolute epochs into its generation clock (they only bump it — see
// SearchResources::tt_shared); invalidate(id) clears it with the lane's
// cache because both memoise the lane's weights. TT entries are position
// memos of a deterministic evaluator, so cross-game residency is sound
// (the same argument as tt_keep_across_games, made structural), and since
// a graft installs exactly what a cold expansion would, per-game results
// remain a pure function of the game seed — independent of worker count,
// of sharing, and of which sibling game warmed the table (pinned by
// test_shared_tt and bench/fig_cache).
//
// Per-lane precision contract: precision is a property of the LANE, not of
// the serving plane — declared at registration (ModelSpec::precision) and
// immutable afterwards, it simply labels what the caller-owned backend
// computes with (e.g. a NetEvaluator over a QuantizedPolicyValueNet for
// kInt8). Nothing else in the lane machinery branches on it: batching,
// caching, stats and stale-flush behave identically, and the Algorithm-4
// aggregate controller needs no precision plumbing at all — it re-tunes
// from backend.model_batch_us(b), so an int8 lane's cheaper measured cost
// flows into its thresholds automatically. Registering the same logical
// net twice at different precisions (e.g. "net" and "net-int8") yields two
// fully isolated lanes — separate queues, caches, thresholds — which is
// exactly what the match-play precision gate (serve/precision_gate.hpp)
// races against each other.
//
// invalidate(id) semantics are precision-INDEPENDENT: it clears the lane's
// cache because the lane's weights changed, whatever arithmetic the lane
// runs. After re-quantizing a net (new fp32 weights -> new int8 snapshot),
// invalidate the int8 lane exactly as you would an fp32 lane; a foreign
// lane at any precision is never touched.
//
// Threshold ownership: the pool constructs each queue at the spec's
// threshold; at runtime the AggregateController (serve/
// aggregate_controller.hpp) re-tunes each lane's threshold independently
// from that lane's measured arrival rate. Per-game engines never manage a
// pooled queue's threshold (MatchService forces manage_batch_threshold
// off).
//
// Thread safety: registration is single-threaded setup (add_model before
// any service attaches); the lane accessors are const after that and the
// lanes themselves are internally synchronized (queue mutex, cache shard
// locks), so concurrent services/slots can submit/invalidate freely.

#include <memory>
#include <string>
#include <vector>

#include "eval/async_batch.hpp"
#include "eval/evaluator.hpp"
#include "mcts/transposition.hpp"
#include "obs/telemetry.hpp"

namespace apm {

// One named model's lane configuration. The backend must outlive the pool.
struct ModelSpec {
  std::string name;
  InferenceBackend* backend = nullptr;
  int batch_threshold = 4;
  int num_streams = 1;
  // Required > 0: pooled queues are multi-producer (liveness at game tails)
  double stale_flush_us = 1500.0;
  bool cache = true;  // false: no EvalCache in front of this lane
  EvalCacheConfig cache_cfg = {};
  // What the backend computes with (see the per-lane precision contract in
  // the header comment). Declarative: the pool never converts — the caller
  // registers a backend that already runs at this precision.
  Precision precision = Precision::kFp32;
  // tt.enabled builds the lane's shared TranspositionTable (header note).
  // tt.name is overwritten with the lane name so the table's trace
  // instants (tt_graft / tt_pending) carry it.
  TtConfig tt;
  // Latency objective for this lane's REQUEST latency (submit -> future
  // ready, the queue's request histogram). When enabled, the MatchService
  // owning this lane evaluates it every publish_metrics() window and
  // exports "service.<name>.health" (ISSUE 10). Declarative like
  // precision: the pool stores it, the service enforces it.
  obs::SloSpec slo;
};

// Point-in-time telemetry of one lane.
struct ModelLaneStats {
  int model_id = -1;
  std::string name;
  Precision precision = Precision::kFp32;
  int batch_threshold = 1;  // current (possibly re-tuned) threshold
  BatchQueueStats batch;    // lifetime queue counters
  CacheStats cache;         // zeros when the lane has no cache
  TtStatsSnapshot tt;       // zeros (capacity 0) without a lane TT
};

class EvaluatorPool {
 public:
  EvaluatorPool() = default;
  EvaluatorPool(const EvaluatorPool&) = delete;
  EvaluatorPool& operator=(const EvaluatorPool&) = delete;

  // Registers a model and returns its id (dense, starting at 0). Names must
  // be unique and non-empty. Call before attaching services.
  int add_model(const ModelSpec& spec);

  int model_count() const { return static_cast<int>(lanes_.size()); }
  // Id for a registered name; -1 when absent.
  int find(const std::string& name) const;
  const std::string& name(int id) const { return lane(id).name; }

  // The lane's declared precision (immutable after add_model).
  Precision precision(int id) const { return lane(id).precision; }

  // The lane's declared latency objective (immutable after add_model).
  const obs::SloSpec& slo(int id) const { return lane(id).slo; }

  AsyncBatchEvaluator& queue(int id) { return *lane(id).queue; }
  const AsyncBatchEvaluator& queue(int id) const { return *lane(id).queue; }
  InferenceBackend& backend(int id) { return *lane(id).backend; }
  // nullptr when the lane runs uncached.
  EvalCache* cache(int id) { return lane(id).cache.get(); }
  const EvalCache* cache(int id) const { return lane(id).cache.get(); }

  // The lane's shared transposition table; nullptr unless spec.tt.enabled.
  TranspositionTable* transposition(int id) { return lane(id).tt.get(); }
  const TranspositionTable* transposition(int id) const {
    return lane(id).tt.get();
  }

  // Clears ONLY model `id`'s search memory — its cache and its shared
  // transposition table (its weights changed). Other lanes' residency, hit
  // rates and in-flight batches are untouched.
  void invalidate(int id);
  // Clears every lane's cache/TT (caller cannot name the updated model).
  void invalidate_all();

  // Drains every lane's queue (end-of-wave barrier across models).
  void drain_all();

  ModelLaneStats lane_stats(int id) const;

 private:
  struct Lane {
    std::string name;
    InferenceBackend* backend = nullptr;
    Precision precision = Precision::kFp32;
    obs::SloSpec slo;
    // Declaration order is the destruction contract: the queue is destroyed
    // (and drains) before the cache it points at. The TT has no queue
    // dependency — engines reference it directly and must be destroyed
    // before the pool (MatchService slots retire before the pool dies).
    std::unique_ptr<TranspositionTable> tt;
    std::unique_ptr<EvalCache> cache;
    std::unique_ptr<AsyncBatchEvaluator> queue;
  };

  Lane& lane(int id) { return *lanes_.at(static_cast<std::size_t>(id)); }
  const Lane& lane(int id) const {
    return *lanes_.at(static_cast<std::size_t>(id));
  }

  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace apm

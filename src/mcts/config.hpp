#pragma once
// Configuration and result types shared by every search scheme.

#include <cstdint>
#include <string>
#include <vector>

#include "eval/async_batch.hpp"

namespace apm {

// The parallel schemes of the program template (§3). kSerial is the
// 1-worker reference; kLeafParallel / kRootParallel are the related-work
// baselines (§2.2) used by the ablation bench.
enum class Scheme {
  kSerial,
  kSharedTree,
  kLocalTree,
  kLeafParallel,
  kRootParallel,
};

std::string to_string(Scheme scheme);

// In-flight rollouts (concurrently outstanding evaluation requests) a
// configuration sustains: 1 serial, N tree-parallel, min(N, B) for
// local-tree over an accelerator queue, where the master keeps at most one
// dispatch granularity outstanding per wave slot. Shared by the
// AdaptiveController's virtual-loss re-tune and by the serving layer's
// aggregate arrival-rate model (each live game contributes this many
// producers to its evaluation queue).
inline int scheme_inflight(Scheme scheme, int workers, int batch,
                           bool gpu_queue) {
  switch (scheme) {
    case Scheme::kSerial:
      return 1;
    case Scheme::kLocalTree:
      return gpu_queue ? (workers < batch ? (workers < 1 ? 1 : workers)
                                          : (batch < 1 ? 1 : batch))
                       : (workers < 1 ? 1 : workers);
    default:
      return workers < 1 ? 1 : workers;
  }
}

// Lock discipline for the shared-tree scheme (ablation):
// per-node 1-byte spinlocks + per-edge atomics (default), or one coarse
// tree mutex exactly like Algorithm 2's "obtain lock".
enum class LockMode { kPerNode, kCoarse };

// Virtual-loss flavour (§2.1: "VL can either be a pre-defined constant
// value [2], or a number tracking visit counts of child nodes [8]"):
//  kConstant      — each in-flight rollout behaves as `virtual_loss` extra
//                   visits that each returned a loss (Chaslot-style).
//  kVisitTracking — WU-UCT-style: in-flight rollouts count as unobserved
//                   visits (inflating N and the exploration denominator)
//                   without pessimising Q.
enum class VirtualLossMode { kConstant, kVisitTracking };

struct MctsConfig {
  // Playouts per move ("tree size limit per move is 1600", §5.1).
  int num_playouts = 1600;
  // Exploration constant c in Eq. 1.
  float c_puct = 5.0f;
  // Virtual-loss constant VL (§2.1): pre-defined constant variant [2].
  float virtual_loss = 3.0f;
  VirtualLossMode vl_mode = VirtualLossMode::kConstant;
  // Dirichlet root noise (self-play only).
  bool root_noise = false;
  float dirichlet_alpha = 0.3f;
  float noise_fraction = 0.25f;
  // Deterministic seed for noise/tie-breaking.
  std::uint64_t seed = 1;
  LockMode lock_mode = LockMode::kPerNode;
};

// Per-move instrumentation. Phase times are *summed across workers* (they
// are resource-seconds); move_seconds is the wall-clock of the move. The
// amortized per-worker-iteration latency of §5.3 is
// move_seconds / num_playouts (the paper divides total move time by 1600).
struct SearchMetrics {
  int playouts = 0;
  int workers = 1;
  double move_seconds = 0.0;
  double select_seconds = 0.0;
  double expand_seconds = 0.0;
  double backup_seconds = 0.0;
  // Evaluation time, per driver:
  //  * serial and shared tree over a CPU evaluator: leaf encode + evaluate()
  //    on the searching thread;
  //  * local tree over the EvalPort's CPU worker pool: evaluate() on the
  //    worker, as the worker timed it (the master encodes);
  //  * any driver over a batch queue: time its searching threads spend
  //    blocked on the queue's results.
  // So on a CPU evaluator eval_seconds / eval_requests is one evaluation's
  // cost whichever scheme measured it.
  double eval_seconds = 0.0;
  // Local tree over a CPU evaluator pool: Σ per request of (submit →
  // completion picked up by the master) − the worker's evaluation time,
  // i.e. the two thread hand-offs around each evaluation, over
  // handoff_requests requests. Zero for every other driver.
  double handoff_seconds = 0.0;
  std::size_t handoff_requests = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  int max_depth = 0;
  // Σ descent depth across playouts; sum_depth / playouts is the mean path
  // length the adaptive controller feeds back into the Eq. 3–6 models.
  double sum_depth = 0.0;
  std::size_t eval_requests = 0;
  // Eval-cache dedupe (zero without a cache on the queue): leaf requests
  // served synchronously from the EvalCache, and leaf requests coalesced
  // onto an in-flight duplicate instead of a second batch slot. Both count
  // leaves only — subsets of eval_requests, so hit-rate ratios are
  // well-formed; root-eval dedupe shows in the queue/cache counters.
  // Unique backend work this move ≈ eval_requests − cache_hits −
  // coalesced_evals.
  std::size_t cache_hits = 0;
  std::size_t coalesced_evals = 0;
  // Nodes newly expanded during this search (== fresh DNN evaluations that
  // produced edges). With cross-move tree reuse this is the per-move cost
  // the reused subtree saves.
  std::size_t expansions = 0;
  // Transposition-table traffic (zero without a TT attached). tt_grafts
  // counts leaves expanded entirely from a stored entry — no encode, no
  // eval request, NOT included in `expansions` (which stays the fresh-eval
  // count). tt_pending counts probes that found the position announced but
  // not yet stored (the Cazenave coalescing case one layer above the
  // queue's in-flight dedupe).
  std::size_t tt_probes = 0;
  std::size_t tt_grafts = 0;
  std::size_t tt_pending = 0;
  std::size_t tt_stores = 0;
  std::size_t terminal_rollouts = 0;
  std::size_t expansion_collisions = 0;
  // Tree reuse accounting: subtree carried over from the previous move
  // (zero when the search started from a fresh root).
  std::size_t reused_nodes = 0;
  std::int64_t reused_visits = 0;
  BatchQueueStats batch;

  // Folds in a part of the move measured separately (one shared-tree
  // worker, one root-parallel tree): counters and resource-seconds add, and
  // max_depth takes the maximum. workers, move_seconds and batch describe
  // the whole move and are left to the caller.
  void accumulate(const SearchMetrics& part);

  double amortized_iteration_us() const {
    return playouts > 0 ? move_seconds * 1e6 / playouts : 0.0;
  }
  double mean_depth() const {
    return playouts > 0 ? sum_depth / playouts : 0.0;
  }
};

struct SearchResult {
  // Normalised root visit counts over the *full* action space (zero for
  // illegal actions) — the action prior of Algorithms 2/3.
  std::vector<float> action_prior;
  // argmax of visit counts.
  int best_action = -1;
  // Root value estimate: Σ_a N(a)·Q(a) / Σ_a N(a).
  float root_value = 0.0f;
  SearchMetrics metrics;

  // Temperature-adjusted prior: π_a ∝ N(a)^(1/τ). τ == 1 returns
  // action_prior unchanged; τ → 0 approaches one-hot argmax.
  std::vector<float> prior_with_temperature(float tau) const;
};

}  // namespace apm

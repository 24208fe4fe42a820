#pragma once
// Design-time profiler (§4.2): measures the per-operation latencies that
// parameterise the performance models. "These design-time profiled
// latencies will provide a close prediction for the actual latencies at
// run time."

#include "eval/evaluator.hpp"
#include "eval/gpu_model.hpp"
#include "games/game.hpp"
#include "mcts/config.hpp"
#include "perfmodel/hardware.hpp"

namespace apm {

// Single-worker, single-thread amortized operation costs (µs).
struct ProfiledCosts {
  double t_select_us = 0.0;  // one selection descent
  double t_expand_us = 0.0;  // one node expansion
  double t_backup_us = 0.0;  // one backup walk
  double t_dnn_cpu_us = 0.0; // one inference on one CPU thread
  // Local tree over a CPU worker pool: per request, the two thread
  // hand-offs around the evaluation (submit → worker wake, completion push
  // → master pickup). Only a live local-tree move measures it; the
  // design-time profiler leaves it at 0.
  double t_handoff_us = 0.0;
  // Per-worker shared-memory staggering cost (T_shared-tree-access of
  // Eqs. 3/4); taken from HardwareSpec documentation, scaled by the
  // measured mean path length (each traversed node is a DDR touch).
  double t_shared_access_us = 0.0;
  double mean_depth = 0.0;
  std::size_t tree_bytes = 0;  // synthetic-tree footprint after one move
  // Fraction of eval requests served synchronously by the EvalCache (0 with
  // no cache). The Eq. 3–6 models scale their DNN terms by the miss rate
  // (1 − cache_hit_rate): a cached request costs no backend work, so the
  // *effective* evaluation cost the adaptive controller re-tunes against is
  // t_dnn · miss_rate. t_dnn_cpu_us itself stays the per-served-request
  // cost of the requests that actually waited on the backend.
  double cache_hit_rate = 0.0;
  // Fraction of leaf-expansion demand served by the transposition table
  // (tt_grafts / (tt_grafts + eval_requests); 0 with no TT). A grafted
  // leaf skips the encoder AND the backend entirely, so the models compound
  // it with the cache: effective miss = (1 − cache_hit_rate) ×
  // (1 − tt_graft_rate).
  double tt_graft_rate = 0.0;
};

// Profiles the in-tree operations on a synthetic tree with the algorithm's
// fanout/depth (random UCT scores via SyntheticEvaluator) and the DNN cost
// on `dnn` ("filled with random parameters and inputs of the same
// dimensions", i.e. an untrained net of the target architecture).
// `profile_playouts` bounds the profiling episode length.
ProfiledCosts profile_costs(const AlgoSpec& algo, Evaluator& dnn,
                            const HardwareSpec& hw,
                            int profile_playouts = 512);

// Profiles only the in-tree side (select/expand/backup), with a
// zero-latency evaluator. Used when the DNN cost is supplied externally.
ProfiledCosts profile_intree_costs(const AlgoSpec& algo,
                                   const HardwareSpec& hw,
                                   int profile_playouts = 512);

// Mean single-inference latency of `dnn` on this host (µs).
double profile_dnn_us(Evaluator& dnn, const AlgoSpec& algo, int iters = 32);

}  // namespace apm

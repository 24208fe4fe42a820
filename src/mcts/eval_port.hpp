#pragma once
// The node-evaluation stage that Algorithms 2 and 3 share, behind one
// submit/complete seam. Every tree driver (Serial, SharedTree, LocalTree)
// evaluates its leaves through an EvalPort, and the port is the only code
// that knows which resource a search runs on (§3.3):
//  * a CPU Evaluator: evaluate() runs it inline on the calling thread ("each
//    worker is assigned a separate CPU thread for performing one node
//    evaluation", §5.3), and submit() hands the request to the port's pool
//    of worker threads, one evaluation per task;
//  * an AsyncBatchEvaluator (the accelerator queue): evaluate() submits and
//    blocks on the result, and submit() registers a callback that the
//    queue's stream thread runs when the request's batch completes. For the
//    shared tree the caller sets the threshold to the worker count, since
//    "the communication batch size is always set to the number of threads"
//    (§3.3); the local tree's B comes from Algorithm 4.
//
// Liveness over a queue. A blocking leaf request never flushes, so with one
// request per searching thread in flight a batch below the threshold only
// dispatches through the stale-flush timer or another producer: blocking
// evaluation over a queue requires the timer. The move's root request, and
// the local tree's tail, flush the forming batch when this search is the
// queue's sole producer (untagged). On a tagged, multi-producer queue
// (MatchService) the port never flushes or drains: that would dispatch
// other games' forming batches early, and the timer bounds the wait.
//
// Metrics. The port counts each leaf request (eval_requests) and how the
// queue served it (cache_hits, coalesced_evals). The root request counts in
// neither, so cache_hits stays a subset of the leaf-only eval_requests.
// Blocking callers time evaluate() themselves. Over the worker pool, each
// worker times its own evaluation (eval_seconds) and the rest of the round
// trip is hand-off (handoff_seconds); over a queue, wait() counts the time
// the caller spends blocked as eval_seconds. The per-move window fills
// SearchMetrics::batch.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "eval/async_batch.hpp"
#include "eval/evaluator.hpp"
#include "mcts/config.hpp"
#include "mcts/tree.hpp"
#include "support/timer.hpp"

namespace apm {

// One asynchronous leaf evaluation, from submit() back to the caller of
// poll()/wait(). The caller fills the leaf's identity; the port fills the
// rest.
struct Completion {
  NodeId node = kNullNode;
  std::vector<int> legal;    // captured at selection time (the local-tree
                             // master does not keep the leaf's game state)
  std::uint64_t key = 0;     // leaf eval_key, for the TT store
  std::int32_t depth = 0;
  bool announced = false;    // a TT in-flight mark to release at store time
  EvalOutput out;
  // Worker pool only: started at submit(), and the time the worker spent
  // inside evaluate().
  Timer since_submit;
  double eval_seconds = 0.0;
};

class EvalPort {
 public:
  EvalPort(Evaluator& eval);             // NOLINT(google-explicit-constructor)
  EvalPort(AsyncBatchEvaluator& batch);  // NOLINT(google-explicit-constructor)
  EvalPort(EvalPort&&) noexcept;
  ~EvalPort();

  // Submitter tag passed with every queue request, so a shared
  // multi-producer queue can attribute batch occupancy to this search's game
  // slot. Negative = untagged, the sole producer (default).
  void set_tag(int tag) { tag_ = tag; }
  int tag() const { return tag_; }

  // Blocking evaluation of one leaf (`key` keys the queue's eval cache and
  // in-flight coalescing). Thread-safe.
  void evaluate(const float* input, std::uint64_t key, EvalOutput& out,
                SearchMetrics& metrics);
  // Blocking evaluation of the move's root: nothing else will ever join its
  // batch in-game, so a sole producer dispatches it at once.
  void evaluate_root(const float* input, std::uint64_t key, EvalOutput& out);

  // Asynchronous evaluation (one caller thread). open_workers() sizes the
  // port for `workers` requests in flight: over a CPU evaluator it spawns
  // the worker pool, which lives as long as the port. A cache hit completes
  // during submit(); its result is picked up by the next poll().
  void open_workers(int workers);
  void submit(const float* input, Completion c, SearchMetrics& metrics);
  std::optional<Completion> poll(SearchMetrics& metrics);
  Completion wait(SearchMetrics& metrics);

  // Per-move window over the queue's counters. begin_window() snapshots
  // them; flush_tail() dispatches the forming batch once the caller has
  // issued every request of the move (it can no longer fill on its own);
  // end_window() settles a sole-producer queue and fills metrics.batch.
  // `reuse` credits the root evaluation a reused tree skipped.
  void begin_window();
  void flush_tail();
  void end_window(SearchMetrics& metrics, bool reuse);

 private:
  struct Async;

  void count(SubmitOutcome how, SearchMetrics& metrics) const;
  void settle(Completion& c, SearchMetrics& metrics) const;

  Evaluator* eval_ = nullptr;
  AsyncBatchEvaluator* batch_ = nullptr;
  int tag_ = -1;
  BatchQueueStats window_start_;
  std::unique_ptr<Async> async_;
};

}  // namespace apm

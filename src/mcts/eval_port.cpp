#include "mcts/eval_port.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "support/sync_queue.hpp"
#include "support/thread_pool.hpp"

namespace apm {

// The asynchronous path's state, created by open_workers(). `pool` is
// declared after `done` so that its workers, which push into `done`, are
// joined first.
struct EvalPort::Async {
  SyncQueue<Completion> done;
  std::optional<ThreadPool> pool;  // CPU evaluator only
};

EvalPort::EvalPort(Evaluator& eval) : eval_(&eval) {}
EvalPort::EvalPort(AsyncBatchEvaluator& batch) : batch_(&batch) {}
EvalPort::EvalPort(EvalPort&&) noexcept = default;
EvalPort::~EvalPort() = default;

void EvalPort::count(SubmitOutcome how, SearchMetrics& metrics) const {
  ++metrics.eval_requests;
  if (how == SubmitOutcome::kCacheHit) ++metrics.cache_hits;
  if (how == SubmitOutcome::kCoalesced) ++metrics.coalesced_evals;
}

void EvalPort::evaluate(const float* input, std::uint64_t key,
                        EvalOutput& out, SearchMetrics& metrics) {
  if (batch_ == nullptr) {
    count(SubmitOutcome::kQueued, metrics);
    eval_->evaluate(input, out);
    return;
  }
  APM_CHECK_MSG(batch_->stale_flush_us() > 0.0,
                "blocking evaluation over a batch queue needs the stale-flush "
                "timer (a leaf request never flushes, so a batch below the "
                "threshold would never dispatch)");
  SubmitOutcome how = SubmitOutcome::kQueued;
  auto fut = batch_->submit_future(input, tag_, key, &how);
  count(how, metrics);
  out = fut.get();
}

void EvalPort::evaluate_root(const float* input, std::uint64_t key,
                             EvalOutput& out) {
  if (batch_ == nullptr) {
    eval_->evaluate(input, out);
    return;
  }
  SubmitOutcome how = SubmitOutcome::kQueued;
  auto fut = batch_->submit_future(input, tag_, key, &how);
  if (tag_ < 0 && how == SubmitOutcome::kQueued) batch_->flush();
  out = fut.get();
}

void EvalPort::open_workers(int workers) {
  APM_CHECK(workers >= 1);
  async_ = std::make_unique<Async>();
  if (eval_ != nullptr) async_->pool.emplace(static_cast<std::size_t>(workers));
}

void EvalPort::submit(const float* input, Completion c,
                      SearchMetrics& metrics) {
  APM_CHECK_MSG(async_ != nullptr, "EvalPort::submit before open_workers");
  SyncQueue<Completion>* done = &async_->done;
  if (batch_ == nullptr) {
    count(SubmitOutcome::kQueued, metrics);
    c.since_submit.reset();
    async_->pool->submit(
        [eval = eval_, done, state = std::vector<float>(
                                 input, input + eval_->input_size()),
         c = std::move(c)]() mutable {
          const Timer timer;
          eval->evaluate(state.data(), c.out);
          c.eval_seconds = timer.elapsed_seconds();
          done->push(std::move(c));
        });
    return;
  }
  // A transposition within this tree (two nodes, one position) coalesces
  // onto its own in-flight request the same way a cross-game duplicate does.
  const std::uint64_t key = c.key;
  count(batch_->submit(
            input,
            [done, c = std::move(c)](EvalOutput out) mutable {
              c.out = std::move(out);
              done->push(std::move(c));
            },
            tag_, key),
        metrics);
}

void EvalPort::settle(Completion& c, SearchMetrics& metrics) const {
  if (batch_ != nullptr) return;
  metrics.eval_seconds += c.eval_seconds;
  metrics.handoff_seconds +=
      std::max(0.0, c.since_submit.elapsed_seconds() - c.eval_seconds);
  ++metrics.handoff_requests;
}

std::optional<Completion> EvalPort::poll(SearchMetrics& metrics) {
  std::optional<Completion> c = async_->done.try_pop();
  if (c) settle(*c, metrics);
  return c;
}

Completion EvalPort::wait(SearchMetrics& metrics) {
  const Timer timer;
  std::optional<Completion> c = async_->done.pop();
  APM_CHECK_MSG(c.has_value(), "completion queue closed prematurely");
  // Over a queue the caller's blocked wait is the evaluation cost it sees;
  // over the pool the workers time their own evaluations instead (with N
  // requests overlapping, the caller waits for only part of each one).
  if (batch_ != nullptr) metrics.eval_seconds += timer.elapsed_seconds();
  settle(*c, metrics);
  return std::move(*c);
}

void EvalPort::begin_window() {
  if (batch_ != nullptr) window_start_ = batch_->stats();
}

void EvalPort::flush_tail() {
  if (batch_ != nullptr && tag_ < 0) batch_->flush();
}

void EvalPort::end_window(SearchMetrics& metrics, bool reuse) {
  if (batch_ == nullptr) return;
  if (tag_ < 0) {
    // Sole producer: settle the queue, then this move's delta of the
    // global counters is exactly this search's traffic.
    batch_->drain();
    metrics.batch = stats_delta(batch_->stats(), window_start_);
    return;
  }
  // Tagged on a shared queue: the global counters mix in other games'
  // traffic (ServiceStats attributes occupancy through the tags instead),
  // so report only this search's own submissions. Cache hits and coalesced
  // waiters never took a slot, so submitted stays the unique-position
  // count. The root term is approximate by one: root dedupe is not counted
  // in SearchMetrics, so a deduped root still contributes its +1 here.
  const std::size_t requests = metrics.eval_requests + (reuse ? 0 : 1);
  const std::size_t deduped = metrics.cache_hits + metrics.coalesced_evals;
  metrics.batch.submitted = requests > deduped ? requests - deduped : 0;
  metrics.batch.cache_hits = metrics.cache_hits;
  metrics.batch.coalesced = metrics.coalesced_evals;
}

}  // namespace apm

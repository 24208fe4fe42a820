#pragma once
// Fixed-size worker pool over a SyncQueue (Core Guidelines CP.41 idiom).
//
// Both parallel schemes of the paper use this: the shared-tree method adds
// `threadsafe_rollout` closures to the pool (Algorithm 2 line 4); the
// local-tree method dedicates the pool to `neural_network_simulate`
// requests (Algorithm 3 line 11). `pending()` exposes the in-flight count
// the local-tree master thread checks against the pool size (Algorithm 3
// line 12).

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "support/sync_queue.hpp"

namespace apm {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (>=1).
  explicit ThreadPool(std::size_t num_threads);

  // Joins all workers; pending tasks are still executed before shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw (per CP.22 they must also not
  // re-enter the pool's own mutex; submitting new tasks from a task is fine).
  void submit(std::function<void()> task);

  // Enqueues a callable and returns a future for its result.
  template <typename F>
  auto submit_with_result(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    submit([task]() { (*task)(); });
    return fut;
  }

  // Blocks until every submitted task has finished executing.
  void wait_idle();

  // Tasks submitted but not yet completed.
  std::size_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void worker_loop();

  SyncQueue<std::function<void()>> queue_;
  std::vector<std::jthread> workers_;
  std::atomic<std::size_t> pending_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

}  // namespace apm

#include "support/thread_pool.hpp"

#include "support/check.hpp"

namespace apm {

ThreadPool::ThreadPool(std::size_t num_threads) {
  APM_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  // Join in the destructor body, not via ~jthread: members destruct in
  // reverse declaration order, so idle_cv_/idle_mutex_ would be destroyed
  // before workers_ joins — racing a worker's final idle notification.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  APM_CHECK(task != nullptr);
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue_.push(std::move(task))) {
    // Pool already shut down; keep the counter consistent.
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    APM_CHECK_MSG(false, "submit() on a destroyed ThreadPool");
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(idle_mutex_);
  idle_cv_.wait(lock,
                [&] { return pending_.load(std::memory_order_acquire) == 0; });
}

void ThreadPool::worker_loop() {
  while (auto task = queue_.pop()) {
    (*task)();
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last in-flight task: wake waiters under the lock to avoid a lost
      // wakeup racing with wait_idle()'s predicate check.
      std::lock_guard lock(idle_mutex_);
      idle_cv_.notify_all();
    }
  }
}

}  // namespace apm

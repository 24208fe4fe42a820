#include "sim/engine.hpp"

namespace apm {

void SimEngine::schedule(SimTime delay, std::function<void()> fn) {
  APM_CHECK(delay >= 0.0);
  APM_CHECK(fn != nullptr);
  calendar_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
}

SimTime SimEngine::run() {
  while (!calendar_.empty()) {
    // priority_queue::top() is const; move out via const_cast-free copy of
    // the closure (events are small).
    Event ev = calendar_.top();
    calendar_.pop();
    APM_CHECK(ev.time + 1e-9 >= now_);
    now_ = ev.time;
    ++processed_;
    ev.fn();
  }
  return now_;
}

void SimResource::submit(SimTime service, std::function<void()> done) {
  APM_CHECK(service >= 0.0);
  Job job{service, std::move(done)};
  if (busy_ < servers_) {
    start(std::move(job));
  } else {
    waiting_.push(std::move(job));
  }
}

void SimResource::start(Job job) {
  ++busy_;
  busy_time_ += job.service;
  engine_.schedule(job.service, [this, done = std::move(job.done)] {
    --busy_;
    if (!waiting_.empty()) {
      Job next = std::move(waiting_.front());
      waiting_.pop();
      start(std::move(next));
    }
    done();
  });
}

}  // namespace apm

#pragma once
// Discrete-event simulation engine (virtual time, µs).
//
// Purpose (see DESIGN.md §1): the paper's performance figures were taken
// on a 64-core CPU + GPU; this repository's host has one core, where
// wall-clock parallel speedups cannot physically appear. The engine
// replays the *schedules* of the paper's parallel schemes — who waits on
// whom, where batches form, when the GPU is busy — in virtual time, using
// per-operation costs measured on the real implementation by the §4.2
// profiler. On a many-core host the same benches can run in wall-clock
// mode instead; the DES exists so the figure shapes are reproducible
// anywhere.
//
// The engine is a classic event calendar: schedule(delay, fn) enqueues a
// closure, run() drains events in time order (FIFO per timestamp).
// SimResource models a k-server FCFS station (CPU worker pool, the PCIe
// link, the GPU) — acquire/release with queued waiters.

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace apm {

using SimTime = double;  // microseconds of virtual time

class SimEngine {
 public:
  SimTime now() const { return now_; }

  // Runs `fn` at now() + delay (delay >= 0).
  void schedule(SimTime delay, std::function<void()> fn);

  // Processes events until the calendar is empty. Returns the final time.
  SimTime run();

  std::size_t events_processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> calendar_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

// k identical servers with a FIFO queue. submit() enqueues a job with a
// fixed service time; `done` fires when the job completes. Tracks busy
// time for utilisation reporting.
class SimResource {
 public:
  SimResource(SimEngine& engine, int servers, std::string name)
      : engine_(engine), servers_(servers), name_(std::move(name)) {
    APM_CHECK(servers >= 1);
  }

  void submit(SimTime service, std::function<void()> done);

  // Busy server-µs accumulated so far.
  SimTime busy_time() const { return busy_time_; }
  const std::string& name() const { return name_; }
  int servers() const { return servers_; }

 private:
  struct Job {
    SimTime service;
    std::function<void()> done;
  };

  void start(Job job);

  SimEngine& engine_;
  int servers_;
  std::string name_;
  int busy_ = 0;
  std::queue<Job> waiting_;
  SimTime busy_time_ = 0.0;
};

}  // namespace apm

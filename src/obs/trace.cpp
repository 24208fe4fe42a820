#include "obs/trace.hpp"

#include <chrono>
#include <cstring>
#include <mutex>
#include <set>

namespace apm::obs {
namespace {

std::chrono::steady_clock::time_point trace_epoch() {
  // Initialised on first use; all timestamps are relative to this point so
  // exported traces start near t=0 and double precision holds at µs grain.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;
constexpr std::size_t kMaxThreadName = 47;

// One thread's ring. Single writer (the owning thread); readers synchronise
// on `head` (release store / acquire load) plus writer quiescence for the
// slot payloads themselves.
struct ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity, int tid_)
      : ring(capacity), tid(tid_) {
    name[0] = '\0';
  }

  std::vector<TraceEvent> ring;
  std::atomic<std::uint64_t> head{0};  // total events ever written
  int tid = 0;
  char name[kMaxThreadName + 1];

  void push(const TraceEvent& ev) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    ring[static_cast<std::size_t>(h % ring.size())] = ev;
    head.store(h + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
};

Registry& registry() {
  static Registry* r = new Registry();  // immortal: threads may outlive main
  return *r;
}

std::atomic<std::size_t> g_capacity{kDefaultCapacity};
// Bumped by reset_trace(); a thread whose cached buffer predates the
// current generation re-registers on its next emit.
std::atomic<std::uint64_t> g_generation{0};

// Thread-local handle. The shared_ptr keeps the buffer alive while the
// thread runs; the registry's copy keeps the events alive after it exits.
struct TlsHandle {
  std::shared_ptr<ThreadBuffer> buffer;
  std::uint64_t generation = ~std::uint64_t{0};
};

ThreadBuffer* tls_buffer() {
  thread_local TlsHandle tls;
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (tls.buffer != nullptr && tls.generation == gen) {
    return tls.buffer.get();
  }
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  tls.buffer = std::make_shared<ThreadBuffer>(
      g_capacity.load(std::memory_order_relaxed), reg.next_tid++);
  tls.generation = gen;
  reg.buffers.push_back(tls.buffer);
  return tls.buffer.get();
}

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};

void emit(TraceEvent ev) { tls_buffer()->push(ev); }

}  // namespace detail

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

bool tracing_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_tracing(bool on) {
  // Touch the epoch before the gate opens so the first traced event does
  // not pay (or race) the static initialisation.
  (void)trace_epoch();
  detail::g_enabled.store(on, std::memory_order_release);
}

void set_trace_capacity(std::size_t events) {
  g_capacity.store(events < 64 ? 64 : events, std::memory_order_relaxed);
}

void set_thread_name(const char* name) {
  ThreadBuffer* tb = tls_buffer();
  std::strncpy(tb->name, name, kMaxThreadName);
  tb->name[kMaxThreadName] = '\0';
}

void reset_trace() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  reg.buffers.clear();
  reg.next_tid = 1;
  g_generation.fetch_add(1, std::memory_order_release);
}

const char* intern_label(const std::string& s) {
  // Process-lifetime pool: trace events borrow their string pointers, so a
  // dynamic label (a lane name) must outlive every buffer that may still
  // hold it — including buffers of exited threads retained for the
  // snapshot. std::set's node-based storage keeps c_str() stable across
  // inserts, and the pool is never pruned (labels are few: lane/model
  // names, not per-event data). Interning is a registration-time path
  // (table/lane construction), never a hot-path one.
  static std::mutex mu;
  static std::set<std::string>* pool = new std::set<std::string>();
  std::lock_guard lock(mu);
  return pool->insert(s).first->c_str();
}

TraceSnapshot snapshot_trace() {
  Registry& reg = registry();
  TraceSnapshot snap;
  std::lock_guard lock(reg.mu);
  snap.threads.reserve(reg.buffers.size());
  for (const std::shared_ptr<ThreadBuffer>& tb : reg.buffers) {
    const std::uint64_t head = tb->head.load(std::memory_order_acquire);
    const std::size_t cap = tb->ring.size();
    const std::uint64_t kept =
        head < static_cast<std::uint64_t>(cap) ? head
                                               : static_cast<std::uint64_t>(cap);
    ThreadTrace tt;
    tt.tid = tb->tid;
    tt.name = tb->name;
    tt.dropped = head - kept;
    tt.events.reserve(static_cast<std::size_t>(kept));
    for (std::uint64_t i = head - kept; i < head; ++i) {
      tt.events.push_back(tb->ring[static_cast<std::size_t>(i % cap)]);
    }
    snap.total_events += kept;
    snap.total_dropped += tt.dropped;
    snap.threads.push_back(std::move(tt));
  }
  return snap;
}

}  // namespace apm::obs

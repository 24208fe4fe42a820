#pragma once
// Low-overhead trace recorder — the event backbone of the unified
// observability plane (ISSUE 8; design note in src/obs/DESIGN_obs.md).
//
// The runtime re-decides parallelism from measured costs (Eq. 3–6,
// Algorithm 4), but means alone cannot show *why*: a retune fires because
// of a queueing timeline — request submitted → coalesced / cache-hit /
// TT-graft → batch formed → backend eval → completion — and that timeline
// is exactly what this recorder captures. Instrumentation is compiled in
// everywhere (queue, cache, TT, engine, service) and runtime-gated: with
// tracing off, every emit call is ONE relaxed atomic load and an early
// return — no clock read, no thread registration, no allocation (pinned by
// test_obs DisabledPathIsAllocationFree and bench/micro_obs).
//
// Write path (tracing on): each thread owns a private fixed-capacity ring
// of POD TraceEvent records, registered on first emit. A write is: one
// relaxed gate load, one steady-clock read (callers of span scopes already
// paid it), a struct store into the ring slot, and a release store of the
// head index — no locks, no CAS, no allocation after the ring exists. The
// ring overwrites its oldest events when full (head keeps counting, so the
// overwritten count is observable as dropped()); a tracing session sized
// by set_trace_capacity() before enabling never drops.
//
// Event strings (name / category / arg keys / string arg values) must be
// STATIC (string literals or otherwise immortal): events store the
// pointers, not copies — that is what keeps a record a fixed-size POD
// store. Up to kMaxArgs numeric args plus one static-string arg per event.
//
// Read path: snapshot_trace() copies every registered ring out under the
// registry mutex. Exact (torn-read-free) snapshots require the writers to
// be quiescent — call it after drain()/stop()/join, or after set_tracing
// (false) once in-flight spans have closed; the intended capture flow
// (examples/trace_capture) snapshots a drained service. Buffers of exited
// threads are retained by the registry so their events survive to the
// snapshot.
//
// Timestamps are steady-clock nanoseconds since the process trace epoch
// (first now_ns() call), shared with the latency histograms and the
// AggregateController's decision stamps so exported retune instants align
// with the span timeline in Perfetto.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace apm::obs {

// Nanoseconds on the process-wide monotonic trace clock.
std::uint64_t now_ns();

// The global gate. Reading is a single relaxed atomic load (hot paths);
// toggling is release so a freshly enabled session orders after setup.
bool tracing_enabled();
void set_tracing(bool on);

// Per-thread ring capacity (events) for buffers created AFTER the call.
// Call before set_tracing(true); existing buffers keep their size.
void set_trace_capacity(std::size_t events);

// Names the calling thread in trace exports (copied, bounded). Registers
// the thread's buffer as a side effect, so it may allocate — call it from
// thread setup, not from hot paths.
void set_thread_name(const char* name);

// Drops every registered buffer and re-arms lazy registration (buffers of
// live threads are re-created on their next emit). Test/bench support; do
// not call concurrently with emitting threads.
void reset_trace();

// Copies `s` into a process-lifetime pool and returns a stable pointer,
// satisfying the static-string contract for event names/args when the
// label is dynamic (e.g. an EvaluatorPool lane name). Deduplicating and
// never freed — intern registration-time labels, not per-event data.
const char* intern_label(const std::string& s);

enum class EventType : std::uint8_t {
  kSpan,     // exported as Chrome "X" (complete) events: ts + dur
  kInstant,  // "i"
  kCounter,  // "C"
};

inline constexpr int kMaxArgs = 3;

// Fixed-size POD record. Strings are borrowed static pointers (see the
// header note); numeric args are doubles, which covers every counter and
// (scheme, N, B)-style annotation the stack emits.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  EventType type = EventType::kInstant;
  std::uint8_t argc = 0;
  const char* akey[kMaxArgs] = {nullptr, nullptr, nullptr};
  double aval[kMaxArgs] = {0.0, 0.0, 0.0};
  const char* skey = nullptr;  // optional single string arg
  const char* sval = nullptr;  // static string value
};

// One numeric or static-string argument.
struct Arg {
  const char* key;
  double num = 0.0;
  const char* str = nullptr;
  constexpr Arg(const char* k, double v) : key(k), num(v) {}
  constexpr Arg(const char* k, int v) : key(k), num(v) {}
  constexpr Arg(const char* k, std::int64_t v)
      : key(k), num(static_cast<double>(v)) {}
  constexpr Arg(const char* k, std::uint64_t v)
      : key(k), num(static_cast<double>(v)) {}
  constexpr Arg(const char* k, const char* s) : key(k), str(s) {}
};

namespace detail {
extern std::atomic<bool> g_enabled;
// Slow path: stamps the event and appends it to the calling thread's ring
// (registering the buffer first if needed).
void emit(TraceEvent ev);
}  // namespace detail

// A completed span: started at `start_ns` (caller-sampled via now_ns()),
// ending now. Recorded as one event at span end.
inline void emit_span(const char* name, const char* cat,
                      std::uint64_t start_ns, std::uint64_t end_ns,
                      std::initializer_list<Arg> args = {}) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = EventType::kSpan;
  ev.ts_ns = start_ns;
  ev.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  for (const Arg& a : args) {
    if (a.str != nullptr) {
      ev.skey = a.key;
      ev.sval = a.str;
    } else if (ev.argc < kMaxArgs) {
      ev.akey[ev.argc] = a.key;
      ev.aval[ev.argc] = a.num;
      ++ev.argc;
    }
  }
  detail::emit(ev);
}

inline void emit_instant(const char* name, const char* cat,
                         std::initializer_list<Arg> args = {}) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = EventType::kInstant;
  ev.ts_ns = now_ns();
  for (const Arg& a : args) {
    if (a.str != nullptr) {
      ev.skey = a.key;
      ev.sval = a.str;
    } else if (ev.argc < kMaxArgs) {
      ev.akey[ev.argc] = a.key;
      ev.aval[ev.argc] = a.num;
      ++ev.argc;
    }
  }
  detail::emit(ev);
}

// Counter sample (exported as a Chrome "C" event: a stepped time series).
inline void emit_counter(const char* name, const char* cat, double value) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = EventType::kCounter;
  ev.ts_ns = now_ns();
  ev.akey[0] = "value";
  ev.aval[0] = value;
  ev.argc = 1;
  detail::emit(ev);
}

// RAII span. Construction samples the gate once; a disabled scope is inert
// (no clock read, no destructor work beyond a null check). Args attached
// via arg() are recorded with the span at scope exit.
class SpanScope {
 public:
  SpanScope(const char* name, const char* cat) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
      name_ = name;
      cat_ = cat;
      start_ = now_ns();
    }
  }
  ~SpanScope() {
    if (name_ == nullptr) return;
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.type = EventType::kSpan;
    ev.ts_ns = start_;
    const std::uint64_t end = now_ns();
    ev.dur_ns = end >= start_ ? end - start_ : 0;
    ev.argc = argc_;
    for (int i = 0; i < argc_; ++i) {
      ev.akey[i] = akey_[i];
      ev.aval[i] = aval_[i];
    }
    ev.skey = skey_;
    ev.sval = sval_;
    detail::emit(ev);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // True when the span is live (tracing was on at construction) — lets
  // callers skip arg computation entirely when disabled.
  bool active() const { return name_ != nullptr; }

  void arg(const char* key, double value) {
    if (name_ == nullptr || argc_ >= kMaxArgs) return;
    akey_[argc_] = key;
    aval_[argc_] = value;
    ++argc_;
  }
  void arg(const char* key, const char* value) {
    if (name_ == nullptr) return;
    skey_ = key;
    sval_ = value;
  }

 private:
  const char* name_ = nullptr;  // nullptr = inert scope
  const char* cat_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint8_t argc_ = 0;
  const char* akey_[kMaxArgs] = {nullptr, nullptr, nullptr};
  double aval_[kMaxArgs] = {0.0, 0.0, 0.0};
  const char* skey_ = nullptr;
  const char* sval_ = nullptr;
};

// --- snapshot (read side) -------------------------------------------------

// One thread's collected events, oldest first.
struct ThreadTrace {
  int tid = 0;
  std::string name;            // empty unless set_thread_name was called
  std::uint64_t dropped = 0;   // events overwritten by ring wrap
  std::vector<TraceEvent> events;
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;
  std::uint64_t total_events = 0;
  std::uint64_t total_dropped = 0;
};

// Copies every registered ring (including buffers of exited threads). See
// the header note on quiescence for exactness guarantees.
TraceSnapshot snapshot_trace();

}  // namespace apm::obs

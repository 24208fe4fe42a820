// Observability-plane tests (ISSUE 8): histogram quantiles against exact
// references, the lock-free recorder under concurrent hammer (this binary
// runs under ThreadSanitizer in CI), the disabled-path zero-allocation
// contract, Chrome trace-event JSON round-trip through an in-test parser,
// the bounded retune-decision ring, and the ServiceStats p50/p99 fields
// against their own exact-quantile source (the acceptance criterion).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/gpu_model.hpp"
#include "games/gomoku.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "serve/aggregate_controller.hpp"
#include "serve/match_service.hpp"
#include "json_test_util.hpp"

// --- global allocation counter (DisabledPathIsAllocationFree) --------------
// Counts every operator-new in the process. Replacing the global operator is
// the only way to observe allocations the plane might hide behind library
// calls; routed through malloc so it composes with sanitizers.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace apm {
namespace {

// ===========================================================================
// Histograms
// ===========================================================================

TEST(Histogram, BucketMathInvariants) {
  using namespace obs;
  // Exact region: values below the sub-bucket count get their own bucket.
  for (std::uint64_t v = 0; v < kHistSubCount; ++v) {
    EXPECT_EQ(hist_bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(hist_bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(hist_bucket_width(static_cast<int>(v)), 1u);
  }
  // General region: lower(idx(v)) <= v < lower(idx(v)) + width(idx(v)),
  // indices are monotone in v, and bucket width is <= lower/8 (the 12.5%
  // relative-error bound).
  std::mt19937_64 rng(11);
  int prev_idx = -1;
  for (std::uint64_t v = 1; v != 0; v <<= 1) {
    for (std::uint64_t probe :
         {v, v + 1, v + (v >> 1), v + (v - 1) / 2, 2 * v - 1}) {
      if (probe < v) continue;  // overflow at the top octave
      const int idx = hist_bucket_index(probe);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, kHistBuckets);
      const std::uint64_t lo = hist_bucket_lower(idx);
      const std::uint64_t w = hist_bucket_width(idx);
      EXPECT_LE(lo, probe);
      EXPECT_LT(probe - lo, w);
      if (probe >= kHistSubCount) {
        EXPECT_LE(w, lo / kHistSubCount + 1);  // width <= ~lower/8
      }
    }
    const int idx = hist_bucket_index(v);
    EXPECT_GT(idx, prev_idx);
    prev_idx = idx;
  }
}

// Exact nearest-rank reference quantile over the recorded values.
std::uint64_t exact_quantile(std::vector<std::uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(std::llround(rank))];
}

void check_quantiles(const std::vector<std::uint64_t>& values,
                     const char* label) {
  obs::LatencyHistogram hist;
  for (std::uint64_t v : values) hist.record(v);
  const obs::HistogramSnapshot snap = hist.snapshot();
  ASSERT_EQ(snap.count, values.size());

  std::uint64_t exact_sum = 0, exact_min = ~std::uint64_t{0}, exact_max = 0;
  for (std::uint64_t v : values) {
    exact_sum += v;
    exact_min = std::min(exact_min, v);
    exact_max = std::max(exact_max, v);
  }
  EXPECT_EQ(snap.sum, exact_sum) << label;
  EXPECT_EQ(snap.min, exact_min) << label;  // min/max are exact, not rounded
  EXPECT_EQ(snap.max, exact_max) << label;
  EXPECT_EQ(snap.quantile(0.0), static_cast<double>(exact_min)) << label;
  EXPECT_EQ(snap.quantile(1.0), static_cast<double>(exact_max)) << label;

  // Bucket construction bounds the relative error at 12.5%; allow a hair
  // more for interpolation + the nearest-rank reference's own granularity.
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    const double exact = static_cast<double>(exact_quantile(values, q));
    const double est = snap.quantile(q);
    EXPECT_NEAR(est, exact, std::max(1.0, 0.13 * exact))
        << label << " q=" << q;
  }
}

TEST(Histogram, QuantilesMatchExactReferenceAcrossDistributions) {
  std::mt19937_64 rng(42);

  // Uniform over 4 decades — every octave in play.
  std::vector<std::uint64_t> uniform(20000);
  std::uniform_int_distribution<std::uint64_t> u(100, 1'000'000);
  for (auto& v : uniform) v = u(rng);
  check_quantiles(uniform, "uniform");

  // Log-normal-ish latencies (the realistic shape: tight body, long tail).
  std::vector<std::uint64_t> lognorm(20000);
  std::lognormal_distribution<double> ln(12.0, 1.0);  // ~e^12 ns ≈ 160 µs
  for (auto& v : lognorm) v = static_cast<std::uint64_t>(ln(rng)) + 1;
  check_quantiles(lognorm, "lognormal");

  // Bimodal: cache hits vs backend round trips.
  std::vector<std::uint64_t> bimodal;
  std::uniform_int_distribution<std::uint64_t> fast(200, 400);
  std::uniform_int_distribution<std::uint64_t> slow(2'000'000, 4'000'000);
  for (int i = 0; i < 9000; ++i) bimodal.push_back(fast(rng));
  for (int i = 0; i < 1000; ++i) bimodal.push_back(slow(rng));
  check_quantiles(bimodal, "bimodal");

  // Constant: every quantile is the value itself, exactly.
  obs::LatencyHistogram hist;
  for (int i = 0; i < 1000; ++i) hist.record(777777);
  const obs::HistogramSnapshot snap = hist.snapshot();
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.quantile(q), 777777.0);  // clamped to exact [min, max]
  }
}

TEST(Histogram, EmptyAndSingleValue) {
  obs::LatencyHistogram hist;
  obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);

  hist.record(12345);
  snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.quantile(0.5), 12345.0);
  EXPECT_EQ(snap.mean(), 12345.0);
}

TEST(Histogram, MergeEqualsRecordingIntoOne) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> u(1, 1'000'000);
  obs::LatencyHistogram a, b, combined;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t va = u(rng), vb = u(rng);
    a.record(va);
    b.record(vb);
    combined.record(va);
    combined.record(vb);
  }
  obs::HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const obs::HistogramSnapshot expect = combined.snapshot();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_EQ(merged.sum, expect.sum);
  EXPECT_EQ(merged.min, expect.min);
  EXPECT_EQ(merged.max, expect.max);
  for (int i = 0; i < obs::kHistBuckets; ++i) {
    EXPECT_EQ(merged.buckets[i], expect.buckets[i]) << "bucket " << i;
  }
}

TEST(Histogram, DeltaWindowsBetweenSnapshots) {
  obs::LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.record(1000);
  const obs::HistogramSnapshot base = hist.snapshot();
  for (int i = 0; i < 50; ++i) hist.record(1'000'000);
  const obs::HistogramSnapshot now = hist.snapshot();

  const obs::HistogramSnapshot window = now.delta(base);
  EXPECT_EQ(window.count, 50u);
  EXPECT_EQ(window.sum, 50u * 1'000'000u);
  // Window extremes come from occupied bucket bounds: within 12.5% of the
  // true window min (1e6), not the pre-window 1000.
  EXPECT_GE(window.min, 875'000u);
  EXPECT_LE(window.min, 1'000'000u);
  EXPECT_NEAR(window.quantile(0.5), 1e6, 0.13e6);
}

TEST(Histogram, ConcurrentRecordIsLossless) {
  obs::LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<std::uint64_t>(t + 1) * 1000);
      }
    });
  }
  for (auto& th : threads) th.join();
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, 50'000u * (1000u + 2000u + 3000u + 4000u));
  EXPECT_EQ(snap.min, 1000u);
  EXPECT_EQ(snap.max, 4000u);
}

// ===========================================================================
// Trace recorder
// ===========================================================================

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::reset_trace();
    obs::set_trace_capacity(std::size_t{1} << 14);
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::reset_trace();
    obs::set_trace_capacity(std::size_t{1} << 14);
  }
};

TEST_F(TraceTest, ClockIsMonotonic) {
  std::uint64_t prev = obs::now_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = obs::now_ns();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST_F(TraceTest, DisabledPathIsAllocationFree) {
  ASSERT_FALSE(obs::tracing_enabled());
  // Warm nothing: the whole point is that the disabled path never touches
  // a buffer, so there is nothing to warm.
  {
    obs::SpanScope probe("off.span", "test");
    EXPECT_FALSE(probe.active());
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100'000; ++i) {
    obs::emit_instant("off", "test", {{"i", i}, {"mode", "off"}});
    obs::emit_counter("off.counter", "test", static_cast<double>(i));
    obs::SpanScope span("off.span", "test");
    span.arg("k", 1.0);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
  // And nothing was recorded.
  EXPECT_EQ(obs::snapshot_trace().total_events, 0u);
}

TEST_F(TraceTest, SpanScopeRecordsArgsWhenEnabled) {
  obs::set_tracing(true);
  obs::set_thread_name("test-main");
  {
    obs::SpanScope span("work", "test");
    ASSERT_TRUE(span.active());
    span.arg("n", 64.0);
    span.arg("scheme", "serial");
  }
  obs::emit_instant("tick", "test", {{"seq", 3}});
  obs::set_tracing(false);

  const obs::TraceSnapshot snap = obs::snapshot_trace();
  ASSERT_EQ(snap.threads.size(), 1u);
  EXPECT_EQ(snap.threads[0].name, "test-main");
  EXPECT_EQ(snap.threads[0].dropped, 0u);
  ASSERT_EQ(snap.threads[0].events.size(), 2u);

  const obs::TraceEvent& span_ev = snap.threads[0].events[0];
  EXPECT_STREQ(span_ev.name, "work");
  EXPECT_EQ(span_ev.type, obs::EventType::kSpan);
  ASSERT_EQ(span_ev.argc, 1);
  EXPECT_STREQ(span_ev.akey[0], "n");
  EXPECT_EQ(span_ev.aval[0], 64.0);
  EXPECT_STREQ(span_ev.skey, "scheme");
  EXPECT_STREQ(span_ev.sval, "serial");

  const obs::TraceEvent& inst = snap.threads[0].events[1];
  EXPECT_EQ(inst.type, obs::EventType::kInstant);
  EXPECT_GE(inst.ts_ns, span_ev.ts_ns + span_ev.dur_ns);  // ordered
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDropped) {
  obs::set_trace_capacity(64);
  obs::set_tracing(true);
  for (int i = 0; i < 200; ++i) {
    obs::emit_instant("wrap", "test", {{"seq", i}});
  }
  obs::set_tracing(false);

  const obs::TraceSnapshot snap = obs::snapshot_trace();
  ASSERT_EQ(snap.threads.size(), 1u);
  const obs::ThreadTrace& tt = snap.threads[0];
  EXPECT_EQ(tt.events.size(), 64u);
  EXPECT_EQ(tt.dropped, 200u - 64u);
  EXPECT_EQ(snap.total_dropped, 200u - 64u);
  // The survivors are the NEWEST 64, oldest first.
  for (std::size_t i = 0; i < tt.events.size(); ++i) {
    EXPECT_EQ(tt.events[i].aval[0], static_cast<double>(136 + i));
  }
}

// The TSan target of this binary: concurrent writers on private rings plus
// a post-join snapshot must be race-free AND lossless (every event present,
// none torn — payload pairs stay consistent).
TEST_F(TraceTest, ConcurrentRecorderHammerIsLossless) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  obs::set_trace_capacity(std::size_t{1} << 15);  // > kPerThread: no drops
  obs::set_tracing(true);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        if ((i & 7) == 0) {
          obs::SpanScope span("hammer.span", "test");
          span.arg("tid", static_cast<double>(t));
          span.arg("seq", static_cast<double>(i));
        } else {
          obs::emit_instant("hammer", "test",
                            {{"tid", t}, {"seq", i}, {"double_tid", 2 * t}});
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::set_tracing(false);

  const obs::TraceSnapshot snap = obs::snapshot_trace();
  EXPECT_EQ(snap.total_events,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.total_dropped, 0u);
  ASSERT_EQ(snap.threads.size(), static_cast<std::size_t>(kThreads));

  std::vector<bool> seen_logical(kThreads, false);
  for (const obs::ThreadTrace& tt : snap.threads) {
    ASSERT_EQ(tt.events.size(), static_cast<std::size_t>(kPerThread));
    const int tid = static_cast<int>(tt.events[0].aval[0]);
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, kThreads);
    EXPECT_FALSE(seen_logical[tid]) << "two rings claim logical thread";
    seen_logical[tid] = true;
    std::uint64_t prev_ts = 0;
    for (int i = 0; i < kPerThread; ++i) {
      const obs::TraceEvent& ev = tt.events[i];
      // Untorn: both payload fields agree with the writer's loop state.
      EXPECT_EQ(ev.aval[0], static_cast<double>(tid));
      EXPECT_EQ(ev.aval[1], static_cast<double>(i));
      if ((i & 7) == 0) {
        EXPECT_EQ(ev.type, obs::EventType::kSpan);
        EXPECT_STREQ(ev.name, "hammer.span");
      } else {
        EXPECT_EQ(ev.type, obs::EventType::kInstant);
        EXPECT_EQ(ev.aval[2], static_cast<double>(2 * tid));
      }
      EXPECT_GE(ev.ts_ns, prev_ts);  // per-thread order preserved
      prev_ts = ev.ts_ns;
    }
  }
}

TEST_F(TraceTest, ResetRearmsLazyRegistration) {
  obs::set_tracing(true);
  obs::emit_instant("before", "test");
  EXPECT_EQ(obs::snapshot_trace().total_events, 1u);
  obs::reset_trace();
  EXPECT_EQ(obs::snapshot_trace().total_events, 0u);
  obs::emit_instant("after", "test");  // re-registers this thread's ring
  const obs::TraceSnapshot snap = obs::snapshot_trace();
  ASSERT_EQ(snap.total_events, 1u);
  EXPECT_STREQ(snap.threads[0].events[0].name, "after");
}

// ===========================================================================
// Chrome trace-event JSON round trip
// ===========================================================================

// The in-test JSON parser now lives in tests/json_test_util.hpp, shared
// with test_telemetry's dump-bundle round-trip.
using testutil::Json;
using testutil::JsonParser;

TEST_F(TraceTest, ExporterJsonRoundTrip) {
  obs::set_tracing(true);
  obs::set_thread_name("exporter \"quoted\"\n");  // escaping exercised
  const std::uint64_t t0 = obs::now_ns();
  obs::emit_span("span.ev", "cat.a", t0, t0 + 1'234'567,
                 {{"n", 96}, {"frac", 0.25}, {"scheme", "local_tree"}});
  obs::emit_instant("instant.ev", "cat.b", {{"seq", 7}});
  obs::emit_counter("counter.ev", "cat.c", 42.5);
  obs::set_tracing(false);

  std::ostringstream out;
  obs::write_chrome_trace(out, obs::snapshot_trace());

  Json doc;
  ASSERT_TRUE(JsonParser(out.str()).parse(&doc)) << out.str();
  ASSERT_EQ(doc.kind, Json::kObject);
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::kArray);
  EXPECT_EQ(doc.at("otherData").at("total_dropped").num, 0.0);

  std::map<std::string, const Json*> by_name;
  int metadata = 0;
  for (const Json& ev : events.arr) {
    ASSERT_EQ(ev.kind, Json::kObject);
    ASSERT_EQ(ev.at("name").kind, Json::kString);
    ASSERT_EQ(ev.at("ph").kind, Json::kString);
    if (ev.at("ph").str == "M") {
      ++metadata;
      continue;
    }
    EXPECT_EQ(ev.at("pid").num, 1.0);
    by_name[ev.at("name").str] = &ev;
  }
  EXPECT_EQ(metadata, 2);  // process_name + the one named thread
  ASSERT_EQ(by_name.size(), 3u);

  const Json& span = *by_name.at("span.ev");
  EXPECT_EQ(span.at("ph").str, "X");
  EXPECT_EQ(span.at("cat").str, "cat.a");
  EXPECT_NEAR(span.at("dur").num, 1'234'567 / 1000.0, 1e-6);  // ns → µs
  EXPECT_NEAR(span.at("ts").num, static_cast<double>(t0) / 1000.0, 1e-3);
  EXPECT_EQ(span.at("args").at("n").num, 96.0);
  EXPECT_EQ(span.at("args").at("frac").num, 0.25);
  EXPECT_EQ(span.at("args").at("scheme").str, "local_tree");

  const Json& inst = *by_name.at("instant.ev");
  EXPECT_EQ(inst.at("ph").str, "i");
  EXPECT_EQ(inst.at("s").str, "t");
  EXPECT_EQ(inst.at("args").at("seq").num, 7.0);

  const Json& counter = *by_name.at("counter.ev");
  EXPECT_EQ(counter.at("ph").str, "C");
  EXPECT_EQ(counter.at("args").at("value").num, 42.5);

  // The thread_name metadata round-trips its escaped characters.
  bool found_thread_name = false;
  for (const Json& ev : events.arr) {
    if (ev.at("ph").str == "M" && ev.at("name").str == "thread_name") {
      EXPECT_EQ(ev.at("args").at("name").str, "exporter \"quoted\"\n");
      found_thread_name = true;
    }
  }
  EXPECT_TRUE(found_thread_name);
}

// ===========================================================================
// Metrics registry
// ===========================================================================

TEST(MetricsRegistry, PublishAndRender) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset();

  reg.counter("obs_test.count").add(3);
  reg.gauge("obs_test.rate").set(0.5);
  obs::LatencyHistogram& live = reg.histogram("obs_test.live_ns");
  for (int i = 0; i < 100; ++i) live.record(50'000);
  obs::LatencyHistogram src;
  src.record(123);
  reg.set_histogram("obs_test.published", src.snapshot());

  // Handles are stable: the same name returns the same object.
  EXPECT_EQ(&reg.counter("obs_test.count"), &reg.counter("obs_test.count"));
  EXPECT_EQ(reg.counter("obs_test.count").value(), 3u);

  // The original human-readable dump survives behind the format flag.
  const std::string text = reg.render_text(obs::TextFormat::kHuman);
  EXPECT_NE(text.find("counter obs_test.count 3"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge obs_test.rate 0.5"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram obs_test.live_ns count=100"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("histogram obs_test.published count=1"),
            std::string::npos)
      << text;

  reg.reset();
  EXPECT_EQ(reg.counter("obs_test.count").value(), 0u);
  EXPECT_TRUE(reg.histogram("obs_test.live_ns").snapshot().empty());
}

TEST(MetricsRegistry, PrometheusExposition) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset();

  reg.counter("obs_test.count").add(3);
  reg.gauge("obs_test.rate").set(0.5);
  obs::LatencyHistogram& live = reg.histogram("obs_test.live_ns");
  for (int i = 0; i < 100; ++i) live.record(50'000);
  live.record(7);

  const std::string text = reg.render_text();  // kPrometheus is the default

  // Dotted names are sanitized to legal Prometheus identifiers with TYPE
  // declarations.
  EXPECT_NE(text.find("# TYPE obs_test_count counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_count 3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE obs_test_rate gauge"), std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_rate 0.5"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE obs_test_live_ns histogram"), std::string::npos)
      << text;

  // The bucket series is CUMULATIVE: the value-7 record occupies its exact
  // low bucket (le="7"), and the 50k records accumulate on top of it at
  // their octave bound; +Inf carries the total with matching _count/_sum.
  EXPECT_NE(text.find("obs_test_live_ns_bucket{le=\"7\"} 1"),
            std::string::npos)
      << text;
  const int idx = obs::hist_bucket_index(50'000);
  const std::uint64_t le =
      obs::hist_bucket_lower(idx) + obs::hist_bucket_width(idx) - 1;
  EXPECT_NE(text.find("obs_test_live_ns_bucket{le=\"" + std::to_string(le) +
                      "\"} 101"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_live_ns_bucket{le=\"+Inf\"} 101"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_live_ns_count 101"), std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_live_ns_sum 5000007"), std::string::npos)
      << text;

  // A published snapshot under the same name REPLACES the live series in
  // the exposition (one uniform source, no duplicate metric families).
  obs::LatencyHistogram src;
  src.record(123);
  reg.set_histogram("obs_test.live_ns", src.snapshot());
  const std::string pub = reg.render_text();
  EXPECT_NE(pub.find("obs_test_live_ns_count 1"), std::string::npos) << pub;
  EXPECT_EQ(pub.find("obs_test_live_ns_count 101"), std::string::npos) << pub;

  reg.reset();
}

// ===========================================================================
// Bounded retune-decision ring (AggregateController)
// ===========================================================================

TEST(AggregateControllerLog, RingBoundsMemoryAndKeepsOrderedSeqs) {
  AggregateControllerConfig cfg;
  cfg.log_capacity = 8;
  cfg.retune_every_moves = 1;
  AggregateController ctrl(cfg, /*lanes=*/2);

  LaneObservation obs_window;
  obs_window.live_games = 4;
  obs_window.inflight = 1.0;
  obs_window.window_slot_arrivals = 400;
  obs_window.window_seconds = 0.01;
  obs_window.stale_flush_us = 1000.0;
  const auto backend_us = [](int b) { return 100.0 + 12.0 * b; };

  constexpr int kDecisions = 30;
  std::uint64_t prev_ts = 0;
  for (int i = 0; i < kDecisions; ++i) {
    const ThresholdDecision d =
        ctrl.observe(i % 2, 0.01 * i, obs_window, backend_us,
                     /*current_threshold=*/4);
    // Stamps are assigned at decision time, in order.
    EXPECT_EQ(d.seq, static_cast<std::uint64_t>(i));
    EXPECT_GE(d.ts_ns, prev_ts);
    prev_ts = d.ts_ns;
  }

  EXPECT_EQ(ctrl.decisions(), static_cast<std::uint64_t>(kDecisions));
  EXPECT_EQ(ctrl.log_dropped(), static_cast<std::uint64_t>(kDecisions - 8));

  const std::vector<ThresholdDecision> log = ctrl.log();
  ASSERT_EQ(log.size(), 8u);  // bounded: the newest window only
  for (std::size_t i = 0; i < log.size(); ++i) {
    // Oldest-first, consecutive seqs ending at the last decision — so a
    // consumer can detect exactly which decisions the ring dropped.
    EXPECT_EQ(log[i].seq, static_cast<std::uint64_t>(kDecisions - 8 + i));
    EXPECT_EQ(log[i].model_id, static_cast<int>(log[i].seq % 2));
    if (i > 0) EXPECT_GE(log[i].ts_ns, log[i - 1].ts_ns);
  }

  // Below capacity: nothing dropped, everything kept.
  AggregateController small(cfg, 1);
  for (int i = 0; i < 5; ++i) {
    small.observe(0, 0.01 * i, obs_window, backend_us, 4);
  }
  EXPECT_EQ(small.log().size(), 5u);
  EXPECT_EQ(small.log_dropped(), 0u);
}

// ===========================================================================
// ServiceStats p50/p99 (the acceptance criterion)
// ===========================================================================

TEST(ServiceLatency, PercentilesMatchExactQuantilesOfTheirDistributions) {
  const Gomoku game = make_tictactoe();
  SyntheticEvaluator eval(game.action_count(), game.encode_size(),
                          /*latency_us=*/50.0);
  SimGpuBackend backend(eval, GpuTimingModel{});
  EvaluatorPool pool;
  ModelSpec spec;
  spec.name = "net";
  spec.backend = &backend;
  spec.batch_threshold = 2;
  spec.num_streams = 2;
  spec.stale_flush_us = 300.0;
  spec.cache = false;
  pool.add_model(spec);

  ServiceConfig sc;
  sc.workers = 2;
  sc.aggregate.enabled = false;  // threshold pinned at 2
  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "net";
  w.slots = 4;
  w.engine.mcts.num_playouts = 24;
  w.engine.scheme = Scheme::kSerial;
  w.engine.adapt = false;
  MatchService service(sc, pool, {w});
  service.enqueue(6);
  service.start();
  service.drain();

  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.games_completed, 6);

  // The scalar fields are exactly the advertised quantiles of the exported
  // distributions (move: ns → ms; request: ns → µs).
  ASSERT_GT(stats.move_latency_ns.count, 0u);
  ASSERT_GT(stats.request_latency_ns.count, 0u);
  EXPECT_DOUBLE_EQ(stats.move_latency_p50_ms,
                   stats.move_latency_ns.quantile(0.5) * 1e-6);
  EXPECT_DOUBLE_EQ(stats.move_latency_p99_ms,
                   stats.move_latency_ns.quantile(0.99) * 1e-6);
  EXPECT_DOUBLE_EQ(stats.request_latency_p50_us,
                   stats.request_latency_ns.quantile(0.5) * 1e-3);
  EXPECT_DOUBLE_EQ(stats.request_latency_p99_us,
                   stats.request_latency_ns.quantile(0.99) * 1e-3);

  // The distributions are coherent: one move sample per committed move,
  // ordered quantiles, extremes bracketing them, and the mean inside.
  EXPECT_EQ(stats.move_latency_ns.count,
            static_cast<std::uint64_t>(stats.moves));
  for (const obs::HistogramSnapshot* snap :
       {&stats.move_latency_ns, &stats.request_latency_ns,
        &stats.batch_wait_ns, &stats.backend_eval_ns}) {
    if (snap->empty()) continue;
    const double p50 = snap->quantile(0.5), p99 = snap->quantile(0.99);
    EXPECT_LE(p50, p99);
    EXPECT_LE(static_cast<double>(snap->min), p50 + 1.0);
    EXPECT_GE(static_cast<double>(snap->max) * 1.0001, p99);
    EXPECT_GE(snap->mean(), static_cast<double>(snap->min));
    EXPECT_LE(snap->mean(), static_cast<double>(snap->max));
  }
  // Every queue request latency covers its batch wait (wait is a prefix of
  // the request's life), so the means must be ordered.
  EXPECT_GE(stats.request_latency_ns.mean(), stats.batch_wait_ns.mean());

  // stats() is era-windowed per service: a second service on the SAME pool
  // must not inherit this one's request-latency history.
  service.stop();
  MatchService fresh(sc, pool, {w});
  EXPECT_EQ(fresh.stats().request_latency_ns.count, 0u);
  ASSERT_EQ(fresh.stats().lanes.size(), 1u);
  EXPECT_EQ(fresh.stats().lanes[0].request_latency_ns.count, 0u);
}

}  // namespace
}  // namespace apm

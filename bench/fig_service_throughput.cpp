// Service throughput bench (ISSUE 3, cache column ISSUE 4): aggregate
// evals/s, moves/s, and the shared-queue batch fill as the number of
// concurrent games grows at a FIXED service worker pool — demonstrating
// that cross-game batch formation beats the starved single-game producer at
// the same threshold, and (since ISSUE 4) that the eval cache in front of
// the queue removes duplicate inference across those games on top of it.
//
// Setup: K ∈ {1, 2, 4, 8} serial-engine games share one evaluation lane
// (threshold 4) in front of a simulated-GPU backend that busy-waits its
// modelled latency, so wall-clock throughput reflects the A6000 timing
// model. Each serial game has exactly one leaf evaluation in flight:
//   K = 1  → every batch is a stale-flushed singleton (the paper's
//            starvation case: one tree cannot supply a batch);
//   K >= 4 → the games' single requests coalesce into threshold-sized
//            batches, amortizing the per-batch launch + transfer cost.
// Every K point runs twice — cache off (the ISSUE-3 baseline numbers keep
// their original JSON names) and with a 16k-entry EvalCache attached
// (`*_cached` entries): the dedupe win shows as served evals/s rising above
// the cache-off line while the backend does strictly less work.
//
// Since ISSUE 5 the rows run through the ROUTED path — a one-model
// EvaluatorPool lane and a single-workload MatchService, with the
// aggregate controller disabled so the threshold stays pinned at 4 exactly
// like the historical rows: same JSON names, directly comparable numbers,
// and any routing overhead would show as a regression here.
//
// Writes a JSON baseline (default BENCH_service.json, or argv[1]).

// A final mixed-precision row (ISSUE 6) replaces the sim-GPU with two REAL
// CPU lanes over one tiny net — fp32 and its int8 snapshot — served side
// by side from one MatchService; the per-lane measured backend cost is the
// serving-plane evidence that a quantized lane is cheaper per eval at
// identical routing.
//
// Tracing-overhead rows (ISSUE 8): the K=8 cached configuration run with
// the obs tracing plane disabled (the default — every instrumentation site
// is one relaxed atomic load) and with a live tracing session; the
// `service_tracing_overhead_frac` entry is the measured cost of carrying
// the instrumentation, and `service_tracing_off_evals_per_s` is directly
// comparable to `service_evals_per_s_k8_cached` across PRs (the ≤2%
// disabled-cost contract).
//
// Sampler-overhead rows (ISSUE 10): the same configuration run with a live
// TelemetrySampler publishing the service and snapshotting the registry at
// the production default period (100 ms). The
// `service_sampler_overhead_frac` entry pins the ambient cost of always-on
// telemetry at ≤2% — the price of running the sampler in production, not
// just during capture sessions.

#include <algorithm>
#include <cstdio>
#include <string>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "nn/quantize.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/match_service.hpp"
#include "support/table.hpp"

namespace {

using namespace apm;

struct JsonWriter {
  std::FILE* f;
  bool first = true;

  void entry(const std::string& name, double value, const char* unit) {
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"value\": %.4f, \"unit\": \"%s\"}",
                 first ? "" : ",", name.c_str(), value, unit);
    first = false;
  }
};

struct RunResult {
  ServiceStats stats;
};

// Plays 2·K games on K slots over a fresh one-model pool lane; the worker
// pool is fixed at 8 threads for every K, so only the game concurrency
// varies. `cached` puts a 16k-entry per-net EvalCache in front of the lane.
// `sampled` runs a live TelemetrySampler at the default 100 ms period
// (publishing the service's metrics each frame) for the duration — the
// ISSUE-10 ambient-cost mode.
RunResult run_service(const Game& game, int concurrent_games, bool cached,
                      bool sampled = false) {
  SyntheticEvaluator eval(game.action_count(), game.encode_size());
  SimGpuBackend backend(eval, GpuTimingModel{}, /*emulate_wall_time=*/true);
  EvaluatorPool pool;
  pool.add_model({.name = "gomoku-net",
                  .backend = &backend,
                  .batch_threshold = 4,
                  .num_streams = 2,
                  .stale_flush_us = 1500.0,
                  .cache = cached,
                  .cache_cfg = {.capacity = 1 << 14, .shards = 8,
                                .ways = 4}});

  ServiceConfig sc;
  sc.workers = 8;  // fixed thread pool; slots bound the real concurrency
  sc.aggregate.enabled = false;  // pinned threshold: the historical rows

  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "gomoku-net";
  w.slots = concurrent_games;
  w.engine.mcts.num_playouts = 64;
  w.engine.scheme = Scheme::kSerial;
  w.engine.adapt = false;

  MatchService service(sc, pool, {std::move(w)});
  obs::TelemetrySamplerConfig scfg;  // default 100 ms period
  scfg.ring_capacity = 256;
  obs::TelemetrySampler sampler(scfg);
  if (sampled) {
    sampler.add_source([&service] { service.publish_metrics(); });
    sampler.start();
  }
  service.enqueue(2 * concurrent_games);
  service.start();
  service.drain();
  RunResult r;
  r.stats = service.stats();
  if (sampled) sampler.stop();
  service.stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_service.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "[");
  JsonWriter json{f};

  std::printf(
      "=== service throughput: cross-game batch formation ===\n"
      "shared AsyncBatchEvaluator, threshold 4, 2 streams, sim-GPU backend\n"
      "(wall-emulated A6000 timing model); serial engines, 8 service "
      "threads fixed, K slots;\neach K run cache-off and with a 16k-entry "
      "eval cache\n\n");

  const Gomoku game(5, 4);
  Table table({"K games", "cache", "mean fill", "full batches", "cache hits",
               "coalesced", "hit rate", "evals/s", "moves/s"});

  double fill_single = 0.0;
  double fill_cross4 = 0.0;
  double hit_rate_k4 = 0.0;
  for (const int k : {1, 2, 4, 8}) {
    for (const bool cached : {false, true}) {
      const RunResult r = run_service(game, k, cached);
      const ServiceStats& s = r.stats;
      if (!cached && k == 1) fill_single = s.mean_batch_fill;
      if (!cached && k == 4) fill_cross4 = s.mean_batch_fill;
      if (cached && k == 4) hit_rate_k4 = s.cache_hit_rate;
      table.add_row({std::to_string(k), cached ? "on" : "off",
                     Table::fmt(s.mean_batch_fill, 2),
                     std::to_string(s.batch.full_batches),
                     std::to_string(s.cache_hits),
                     std::to_string(s.coalesced_evals),
                     Table::fmt(s.cache_hit_rate, 3),
                     Table::fmt(s.evals_per_second, 0),
                     Table::fmt(s.moves_per_second, 1)});
      // Cache-off keeps the original ISSUE-3 entry names so the baseline
      // stays comparable across PRs; cache-on adds the `_cached` line.
      const std::string suffix =
          "_k" + std::to_string(k) + (cached ? "_cached" : "");
      json.entry("service_mean_batch_fill" + suffix, s.mean_batch_fill,
                 "requests/batch");
      json.entry("service_evals_per_s" + suffix, s.evals_per_second,
                 "evals/s");
      json.entry("service_moves_per_s" + suffix, s.moves_per_second,
                 "moves/s");
      json.entry("service_stale_flush_share" + suffix,
                 s.batch.batches > 0
                     ? static_cast<double>(s.batch.stale_flushes) /
                           static_cast<double>(s.batch.batches)
                     : 0.0,
                 "fraction");
      if (cached) {
        json.entry("service_cache_hit_rate" + suffix, s.cache_hit_rate,
                   "fraction");
        json.entry("service_evals_saved" + suffix,
                   static_cast<double>(s.cache_hits + s.coalesced_evals),
                   "evals");
      }
    }
  }
  table.print("aggregate service throughput vs concurrent games");

  json.entry("service_fill_uplift_k4_vs_k1",
             fill_single > 0.0 ? fill_cross4 / fill_single : 0.0, "x");

  // --- mixed-precision lanes (ISSUE 6) -------------------------------------
  // One real net served twice from the same service: an fp32 lane and its
  // int8-quantized snapshot, 4 slots each. Lane telemetry measures the
  // REAL per-eval backend cost (modelled_backend_us is CpuBackend's
  // measured wall clock), so the int8 row is the serving-plane version of
  // the kernel-level gemm_q8 uplift. The net keeps the paper's trunk
  // widths (32/64/128) on a 9x9 board: int8 wins on GEMM size, so a
  // tiny-trunk net would only measure quantization overhead.
  {
    NetConfig cfg;  // default trunks; 9x9 board keeps the bench fast
    cfg.height = 9;
    cfg.width = 9;
    PolicyValueNet net(cfg, 7);
    const QuantizedPolicyValueNet qnet(net);
    NetEvaluator fp32_eval(net);
    NetEvaluator int8_eval(qnet);
    CpuBackend fp32_backend(fp32_eval);
    CpuBackend int8_backend(int8_eval);
    EvaluatorPool pool;
    pool.add_model({.name = "net-fp32",
                    .backend = &fp32_backend,
                    .batch_threshold = 4,
                    .stale_flush_us = 1500.0});
    pool.add_model({.name = "net-int8",
                    .backend = &int8_backend,
                    .batch_threshold = 4,
                    .stale_flush_us = 1500.0,
                    .precision = Precision::kInt8});

    ServiceConfig sc;
    sc.workers = 8;
    sc.aggregate.enabled = false;

    const Gomoku board9(9, 5);
    ServiceWorkload wf;
    wf.proto = std::shared_ptr<const Game>(board9.clone());
    wf.model = "net-fp32";
    wf.slots = 4;
    wf.engine.mcts.num_playouts = 32;
    wf.engine.scheme = Scheme::kSerial;
    wf.engine.adapt = false;
    ServiceWorkload wq = wf;
    wq.model = "net-int8";

    MatchService service(sc, pool, {wf, wq});
    service.enqueue(8);
    service.start();
    service.drain();
    const ServiceStats s = service.stats();
    service.stop();

    double us_fp32 = 0.0, us_int8 = 0.0;
    for (const ServiceLaneStats& lane : s.lanes) {
      const double us_per =
          lane.batch.submitted > 0
              ? lane.batch.modelled_backend_us /
                    static_cast<double>(lane.batch.submitted)
              : 0.0;
      if (lane.precision == Precision::kInt8) {
        us_int8 = us_per;
      } else {
        us_fp32 = us_per;
      }
      std::printf("mixed-precision lane %-8s (%s): %8llu evals  %6.1f "
                  "us/eval (measured backend)\n",
                  lane.model.c_str(), precision_name(lane.precision),
                  static_cast<unsigned long long>(lane.batch.submitted),
                  us_per);
    }
    json.entry("service_mixed_fp32_eval_us", us_fp32, "us");
    json.entry("service_mixed_int8_eval_us", us_int8, "us");
    json.entry("service_mixed_int8_speedup",
               us_int8 > 0.0 ? us_fp32 / us_int8 : 0.0, "x");
    std::printf("mixed-precision: int8 lane %.2fx cheaper per eval\n",
                us_int8 > 0.0 ? us_fp32 / us_int8 : 0.0);
  }

  // --- tracing overhead (ISSUE 8) ------------------------------------------
  // Same K=8 cached configuration as the service_*_k8_cached rows, best of
  // 3 reps per mode (one core; the max tames scheduler noise). Off mode is
  // the shipping default: instrumentation compiled in, gate closed. On mode
  // carries a live recorder session (64k-event rings, wrap allowed) — the
  // cost a capture pays, NOT a cost production pays.
  {
    const Gomoku board(5, 4);
    const auto best_evals_per_s = [&board](bool traced) {
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        if (traced) {
          obs::set_trace_capacity(std::size_t{1} << 16);
          obs::set_tracing(true);
        }
        const RunResult r = run_service(board, 8, /*cached=*/true);
        obs::set_tracing(false);
        // The service (and its lane stream threads) is fully torn down
        // inside run_service, so the recorder can be reset between reps.
        obs::reset_trace();
        best = std::max(best, r.stats.evals_per_second);
      }
      return best;
    };
    const double off = best_evals_per_s(false);
    const double on = best_evals_per_s(true);
    const double overhead = off > 0.0 ? 1.0 - on / off : 0.0;
    std::printf("\ntracing overhead (K=8 cached): off %.0f evals/s, "
                "on %.0f evals/s (%.1f%% session cost)\n",
                off, on, 100.0 * overhead);
    json.entry("service_tracing_off_evals_per_s", off, "evals/s");
    json.entry("service_tracing_on_evals_per_s", on, "evals/s");
    json.entry("service_tracing_overhead_frac", overhead, "fraction");
  }

  // --- telemetry sampler overhead (ISSUE 10) -------------------------------
  // Same K=8 cached configuration with the sampler at its production
  // default (100 ms frames). Each frame runs publish_metrics — the
  // service-lock stats merge plus the per-lane SLO windows — and a full
  // registry snapshot into the ring, so the row prices the whole always-on
  // pipeline, not just the ring push. Best of 5 per mode with the modes
  // INTERLEAVED (off,on,off,on,...): on a single-core box the machine
  // drifts over the bench's minutes-long run by more than the 2% contract,
  // and back-to-back pairs see the same conditions where sequential
  // blocks would bake the drift into the ratio.
  double sampler_overhead = 0.0;
  {
    const Gomoku board(5, 4);
    double off = 0.0, on = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      off = std::max(
          off, run_service(board, 8, /*cached=*/true, /*sampled=*/false)
                   .stats.evals_per_second);
      on = std::max(
          on, run_service(board, 8, /*cached=*/true, /*sampled=*/true)
                  .stats.evals_per_second);
    }
    sampler_overhead = off > 0.0 ? 1.0 - on / off : 0.0;
    std::printf("\nsampler overhead (K=8 cached, 100 ms frames): off %.0f "
                "evals/s, on %.0f evals/s (%.1f%% ambient cost)\n",
                off, on, 100.0 * sampler_overhead);
    json.entry("service_sampler_off_evals_per_s", off, "evals/s");
    json.entry("service_sampler_on_evals_per_s", on, "evals/s");
    json.entry("service_sampler_overhead_frac", sampler_overhead, "fraction");
  }

  std::fprintf(f, "\n]\n");
  std::fclose(f);

  std::printf(
      "\ncheck: K=1 fill ~1.0 (starved single-game producer; every batch a "
      "stale singleton);\nK>=4 fill approaches the threshold — cross-game "
      "batches amortize launch+PCIe per sample.\nWith the cache on, hits + "
      "coalesces shrink backend work at the same served demand\n(K=4 hit "
      "rate %.3f).\nbaseline written to %s\n",
      hit_rate_k4, out_path);
  // The ≤2% ambient-telemetry contract is an exit gate, not just a row.
  return fill_cross4 > fill_single && hit_rate_k4 > 0.0 &&
                 sampler_overhead <= 0.02
             ? 0
             : 1;
}

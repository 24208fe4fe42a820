// Served workloads: closed-loop self-play games through MatchService over
// EvaluatorPool lanes on the real NetEvaluator (CpuBackend).
//
//   g15-selfplay — Gomoku 15x15, paper-shape fp32 net, one lane with 2
//                  streams, K=8 slots on 2 service workers: inference and
//                  the batch queue do the work (the headline number).
//   o6-book      — Othello 6x6, paper-width net served in two lanes (fp32 +
//                  cache; int8 snapshot + cache + lane-shared TT), no root
//                  noise and 2 temperature moves: book-opening play where
//                  most leaves repeat, so cache reads and TT grafts work.
//
// A run plays rounds. Each round derives a fresh net and fresh game seeds
// from the run seed, so the run averages over several random nets. One
// repetition of a round builds everything (net, snapshot, pool, service,
// warm-up: timed as set-up), plays the round's games to the end, and tears
// down. An untraced run plays every round twice and a traced run replays
// the rounds its untraced half played, so every game's result digest is
// compared with a second repetition of the same inputs.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "bench.hpp"
#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "games/othello.hpp"
#include "nn/quantize.hpp"
#include "probes.hpp"
#include "serve/match_service.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

struct LaneSpec {
  std::string name;
  bool int8 = false;
  bool tt = false;
  int slots = 1;
  int streams = 1;
};

struct ServedSpec {
  std::function<std::unique_ptr<apm::Game>()> make_game;
  apm::NetConfig net;
  std::vector<LaneSpec> lanes;
  int workers = 2;
  int playouts = 32;
  bool root_noise = false;
  int temperature_moves = 8;
  // Ply cap per game (0 = play to the end). Keeps every game of a
  // repetition live for the whole repetition, so batches form at the
  // workload's concurrency instead of draining through a ragged tail.
  int max_moves = 0;
  int games_per_slot = 1;
  // Wall time of one repetition on the reference host (see NOTES.md).
  double rep_seconds = 1.0;
  // Whether visits reused from the previous move count toward the playout
  // budget (the engine default). Off, every move runs all its playouts, so
  // the work per move does not depend on how sharp a seed's random net is.
  bool count_reused_visits = true;
};

ServedSpec spec_for(const std::string& workload) {
  ServedSpec s;
  if (workload == "g15-selfplay") {
    s.make_game = [] { return std::make_unique<apm::Gomoku>(15, 5); };
    s.net = apm::NetConfig{};  // 4->32->64->128 on 15x15
    s.lanes = {{"g15", false, false, 8, 2}};
    s.root_noise = true;
    s.max_moves = 16;
    s.games_per_slot = 1;
    s.count_reused_visits = false;
    s.rep_seconds = 3.6;
  } else {
    s.make_game = [] { return std::make_unique<apm::Othello>(6); };
    s.net = apm::NetConfig{};
    s.net.height = 6;
    s.net.width = 6;
    s.lanes = {{"o6-fp32", false, false, 4, 1}, {"o6-int8", true, true, 4, 1}};
    s.root_noise = false;
    s.temperature_moves = 2;
    // Many short games per lane: the 2 sampled plies open few distinct
    // lines, so most games replay a line another game already searched.
    s.max_moves = 12;
    s.games_per_slot = 8;
    s.rep_seconds = 1.9;
  }
  return s;
}

// Sums over a repetition's moves of the program's per-move search records.
struct MoveTotals {
  double search_s = 0, eval_s = 0, select_s = 0, expand_s = 0, backup_s = 0,
         playouts = 0, collisions = 0, reused = 0, grafts = 0, requests = 0,
         pending = 0;

  void add(const apm::SearchMetrics& x) {
    search_s += x.move_seconds;
    eval_s += x.eval_seconds;
    select_s += x.select_seconds;
    expand_s += x.expand_seconds;
    backup_s += x.backup_seconds;
    playouts += x.playouts;
    collisions += static_cast<double>(x.expansion_collisions);
    reused += static_cast<double>(x.reused_visits);
    grafts += static_cast<double>(x.tt_grafts);
    requests += static_cast<double>(x.eval_requests);
    pending += static_cast<double>(x.tt_pending);
  }
};

struct Rep {
  int round = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double moves = 0.0;
  apm::ServiceStats stats;  // kept for traced repetitions only
  std::vector<apm::GameRecord> records;  // dropped once checked
  std::vector<double> move_ms;           // per-move search wall
  MoveTotals totals;
  std::vector<Span> spans;
};

Rep run_rep(const ServedSpec& s, std::uint64_t seed, int round,
            bool traced) {
  Rep out;
  out.round = round;
  SpanLog log;  // outlives the service (the traced prototype points at it)
  const std::uint64_t t0 = now_ns();
  std::uint64_t mix = seed;
  const apm::PolicyValueNet net(s.net, apm::splitmix64(mix));
  std::optional<apm::QuantizedPolicyValueNet> qnet;
  const bool any_int8 = std::any_of(s.lanes.begin(), s.lanes.end(),
                                    [](const LaneSpec& l) { return l.int8; });
  if (any_int8) qnet.emplace(net);

  std::vector<std::unique_ptr<apm::NetEvaluator>> evals;
  std::vector<std::unique_ptr<apm::CpuBackend>> backends;
  std::vector<std::unique_ptr<TimedBackend>> probes;
  apm::EvaluatorPool pool;
  for (const LaneSpec& lane : s.lanes) {
    evals.push_back(lane.int8 ? std::make_unique<apm::NetEvaluator>(*qnet)
                              : std::make_unique<apm::NetEvaluator>(net));
    backends.push_back(std::make_unique<apm::CpuBackend>(*evals.back()));
    apm::InferenceBackend* backend = backends.back().get();
    if (traced) {
      probes.push_back(std::make_unique<TimedBackend>(*backend, &log));
      backend = probes.back().get();
    }
    apm::ModelSpec ms;
    ms.name = lane.name;
    ms.backend = backend;
    ms.num_streams = lane.streams;
    ms.precision = lane.int8 ? apm::Precision::kInt8 : apm::Precision::kFp32;
    ms.tt.enabled = lane.tt;
    pool.add_model(ms);
  }

  // Warm-up: uncached requests through every lane, so each stream thread
  // has built its workspace before the clock starts.
  {
    const std::unique_ptr<apm::Game> g = s.make_game();
    std::vector<float> planes(g->encode_size());
    g->encode(planes.data());
    for (int id = 0; id < pool.model_count(); ++id) {
      std::vector<std::future<apm::EvalOutput>> futs;
      for (int i = 0; i < 16; ++i) {
        futs.push_back(pool.queue(id).submit_future(planes.data()));
      }
      pool.queue(id).flush();
      for (auto& f : futs) f.get();
    }
  }

  std::vector<apm::ServiceWorkload> workloads;
  for (const LaneSpec& lane : s.lanes) {
    apm::ServiceWorkload w;
    std::unique_ptr<apm::Game> proto = s.make_game();
    if (traced) proto = std::make_unique<TimedGame>(std::move(proto), &log);
    w.proto = std::shared_ptr<const apm::Game>(std::move(proto));
    w.model = lane.name;
    w.slots = lane.slots;
    w.engine.mcts.num_playouts = s.playouts;
    w.engine.mcts.root_noise = s.root_noise;
    w.engine.mcts.seed = apm::splitmix64(mix);
    w.engine.scheme = apm::Scheme::kSerial;
    w.engine.adapt = false;
    w.engine.count_reused_visits = s.count_reused_visits;
    w.self_play.temperature_moves = s.temperature_moves;
    w.self_play.max_moves = s.max_moves;
    w.self_play.seed = apm::splitmix64(mix);
    workloads.push_back(std::move(w));
  }
  apm::ServiceConfig sc;
  sc.workers = s.workers;
  apm::MatchService service(sc, pool, std::move(workloads));
  out.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  log.enable(traced);
  for (std::size_t w = 0; w < s.lanes.size(); ++w) {
    service.enqueue_workload(static_cast<int>(w),
                             s.lanes[w].slots * s.games_per_slot);
  }
  const std::uint64_t t1 = now_ns();
  service.start();
  service.drain();
  out.wall_s = static_cast<double>(now_ns() - t1) * 1e-9;
  out.stats = service.stats();
  service.stop();
  log.enable(false);
  out.records = service.take_completed();
  out.spans = log.collect();
  return out;
}

// Per-game result digests keyed by (round, workload, game id).
using Digests = std::map<std::tuple<int, int, int>, std::uint64_t>;

struct Phase {
  std::vector<Rep> reps;
  double moves = 0.0;
  double wall_s = 0.0;
  int rounds = 0;
  double moves_per_s() const { return wall_s > 0.0 ? moves / wall_s : 0.0; }
};

// Plays rounds 0 .. rounds-1, each `plays_per_round` times in a row. Every
// game is checked, and its digest must equal any earlier digest of the same
// round and game.
Phase run_phase(const ServedSpec& s, std::uint64_t seed, bool traced,
                int rounds, int plays_per_round, Report& r,
                Digests& digests) {
  Phase ph;
  ph.rounds = rounds;
  for (int i = 0; i < rounds * plays_per_round; ++i) {
    const int round = i / plays_per_round;
    Rep rep = run_rep(s, round_seed(seed, round), round, traced);
    release_freed_memory();
    int expected = 0;
    for (const LaneSpec& l : s.lanes) expected += l.slots * s.games_per_slot;
    r.attempted += expected;
    if (static_cast<int>(rep.records.size()) != expected) {
      r.fail("expected " + std::to_string(expected) + " game records, got " +
             std::to_string(rep.records.size()));
    }
    const std::unique_ptr<apm::Game> proto = s.make_game();
    for (const apm::GameRecord& g : rep.records) {
      const std::string who = "workload " + std::to_string(g.workload) +
                              " game " + std::to_string(g.game_id);
      if (!g.completed) {
        ++r.failed;
        r.fail(who + " did not complete");
        continue;
      }
      if (static_cast<int>(g.samples.size()) != g.stats.moves) {
        ++r.failed;
        r.fail(who + ": samples != moves");
        continue;
      }
      std::vector<RecordedMove> moves;
      for (const apm::TrainSample& t : g.samples) {
        moves.push_back({&t.state, &t.pi, t.z});
      }
      std::uint64_t digest = 0;
      const std::string err =
          check_game(*proto, moves, g.stats.winner, s.max_moves, digest);
      if (!err.empty()) {
        ++r.failed;
        r.fail(who + ": " + err);
        continue;
      }
      const auto key = std::make_tuple(rep.round, g.workload, g.game_id);
      const auto [it, fresh] = digests.emplace(key, digest);
      if (!fresh && it->second != digest) {
        ++r.failed;
        r.fail(who + ": result digest differs between repetitions" +
               std::string(traced ? " (traced vs untraced)" : ""));
        continue;
      }
      ++r.completed;
    }
    for (const apm::GameRecord& g : rep.records) {
      for (const apm::EngineMoveStats& m : g.stats.per_move) {
        rep.move_ms.push_back(m.metrics.move_seconds * 1e3);
        rep.totals.add(m.metrics);
      }
    }
    // Keeping only these summaries makes the run's peak RSS independent of
    // how many repetitions fit in it.
    std::vector<apm::GameRecord>().swap(rep.records);
    rep.moves = rep.stats.moves;
    if (!traced) rep.stats = apm::ServiceStats{};
    ph.moves += rep.moves;
    ph.wall_s += rep.wall_s;
    ph.reps.push_back(std::move(rep));
  }
  return ph;
}

void add_e2e(Report& r, const Phase& ph) {
  std::vector<std::vector<double>> move_ms;
  std::vector<double> setup, rate;
  for (const Rep& rep : ph.reps) {
    setup.push_back(rep.setup_s);
    rate.push_back(rep.moves / rep.wall_s);
    move_ms.push_back(rep.move_ms);
  }
  const std::string reps = std::to_string(ph.reps.size()) +
                           " repetitions of " + std::to_string(ph.rounds) +
                           (ph.rounds == 1 ? " round" : " rounds");
  r.add("moves_per_s", median(rate), "1/s",
        "median over " + reps + " of committed moves / benchmark-timed "
        "wall (pooled: " + std::to_string(ph.moves_per_s()) +
            ", quartile spread: " + std::to_string(quartile_spread(rate)) +
            ")");
  add_move_latency(r, move_ms,
                   "search wall from the per-move records (program-reported)");
  r.add("setup_s", median(setup), "s",
        "median over " + reps +
            " of net build + quantize + pool/service construction + warm-up");
}

std::string int_str(double v) {
  return std::to_string(static_cast<long long>(v));
}

void add_layers(Report& r, const ServedSpec& s, const Phase& traced,
                const Phase& plain, std::uint64_t seed) {
  double moves = 0, wall = 0, search_s = 0, eval_s = 0, sel = 0, exp = 0,
         back = 0, playouts = 0, collisions = 0, reused = 0, grafts = 0,
         requests = 0, pending = 0, move_lat_ns = 0, retunes = 0,
         thresh = 0, worker_s = 0;
  double submitted = 0, batches = 0, stale = 0, hits = 0, coalesced = 0,
         inserts = 0, evictions = 0;
  std::vector<std::size_t> fill;
  apm::obs::HistogramSnapshot wait;
  std::vector<Span> spans;
  int streams = 0;
  for (const LaneSpec& l : s.lanes) streams += l.streams;
  for (const Rep& rep : traced.reps) {
    const apm::ServiceStats& st = rep.stats;
    moves += st.moves;
    wall += rep.wall_s;
    worker_s += st.search_seconds;
    move_lat_ns += static_cast<double>(st.move_latency_ns.sum);
    retunes += st.threshold_retunes;
    for (const apm::ServiceLaneStats& l : st.lanes) {
      thresh += static_cast<double>(l.threshold) /
                static_cast<double>(st.lanes.size() * traced.reps.size());
    }
    submitted += st.batch.submitted;
    batches += st.batch.batches;
    stale += st.batch.stale_flushes;
    hits += st.batch.cache_hits;
    coalesced += st.batch.coalesced;
    inserts += st.cache.inserts;
    evictions += st.cache.evictions;
    if (fill.size() < st.batch.fill_histogram.size()) {
      fill.resize(st.batch.fill_histogram.size(), 0);
    }
    for (std::size_t i = 0; i < st.batch.fill_histogram.size(); ++i) {
      fill[i] += st.batch.fill_histogram[i];
    }
    wait.merge(st.batch_wait_ns);
    const MoveTotals& x = rep.totals;
    search_s += x.search_s;
    eval_s += x.eval_s;
    sel += x.select_s;
    exp += x.expand_s;
    back += x.backup_s;
    playouts += x.playouts;
    collisions += x.collisions;
    reused += x.reused;
    grafts += x.grafts;
    requests += x.requests;
    pending += x.pending;
    spans.insert(spans.end(), rep.spans.begin(), rep.spans.end());
  }
  if (moves <= 0) return;
  const std::string mv = int_str(moves) + " traced moves";
  const std::string prog = " (program-reported)";

  // serve
  r.add("serve.worker_busy_frac", worker_s / (s.workers * wall), "ratio",
        "sum of per-move search wall / (" + std::to_string(s.workers) +
            " workers x traced wall)" + prog);
  r.add("serve.retunes", retunes / traced.reps.size(), "count",
        "aggregate-controller retunes per repetition" + prog);
  r.add("serve.threshold_final", thresh, "positions",
        "lane batch threshold at the end of a repetition, mean over lanes" +
            prog);

  // eval
  r.add("eval.mean_fill", batches > 0 ? submitted / batches : 0.0,
        "positions", int_str(batches) + " dispatched batches" + prog);
  r.add("eval.stale_flush_frac", batches > 0 ? stale / batches : 0.0,
        "ratio", "stale-timer dispatches / " + int_str(batches) +
                     " batches" + prog);
  r.add("eval.queue_wait_p50_us", wait.quantile(0.5) * 1e-3, "us",
        std::to_string(wait.count) + " slot waits" + prog);
  r.add("eval.queue_wait_p90_us", wait.quantile(0.9) * 1e-3, "us",
        std::to_string(wait.count) + " slot waits" + prog);
  const KindTotals all = totals(spans);
  const double backend_ns = all.ns_of(SpanKind::kBackend);
  const double positions =
      static_cast<double>(all.items[static_cast<int>(SpanKind::kBackend)]);
  r.add("eval.backend_busy_frac", backend_ns / (streams * wall * 1e9),
        "ratio", "backend probe time / (" + std::to_string(streams) +
                     " streams x traced wall)");
  r.add("eval.backend_us_per_position",
        positions > 0 ? backend_ns * 1e-3 / positions : 0.0, "us",
        int_str(positions) + " positions through the backend probe");
  const double demand = submitted + hits + coalesced;
  r.add("eval.cache_hit_frac", demand > 0 ? (hits + coalesced) / demand : 0.0,
        "ratio", "(hits + coalesced) / " + int_str(demand) +
                     " queue requests" + prog);
  r.add("eval.cache_inserts", inserts / moves, "1/move",
        "cache inserts per move over " + mv + prog);
  r.add("eval.cache_evictions", evictions / moves, "1/move",
        "cache evictions per move over " + mv + prog);

  // mcts: in-search game time = the playout copies' calls (depth >= 2) plus
  // the clones that made them (depth 1). Encode runs inside the search's
  // eval timer, clone before its phase timers start.
  const KindTotals copies = totals(spans, 2, 255);
  const KindTotals board = totals(spans, 1, 1);
  const double clone_ns = board.ns_of(SpanKind::kClone);
  const double g2_ns = copies.game_ns() + clone_ns;
  const double e2_ns = copies.ns_of(SpanKind::kEncode);
  const double eval_block_ns = eval_s * 1e9 - e2_ns;
  r.add("mcts.search_self_ms_per_move",
        (search_s * 1e9 - eval_block_ns - g2_ns) * 1e-6 / moves, "ms",
        "search wall - eval wait - in-search game probe time, over " + mv);
  r.add("mcts.select_us_per_playout", sel * 1e6 / playouts, "us",
        int_str(playouts) + " playouts" + prog);
  r.add("mcts.expand_us_per_playout", exp * 1e6 / playouts, "us",
        int_str(playouts) + " playouts" + prog);
  r.add("mcts.backup_us_per_playout", back * 1e6 / playouts, "us",
        int_str(playouts) + " playouts" + prog);
  r.add("mcts.expansion_collisions_per_move", collisions / moves, "1/move",
        mv + prog);
  r.add("mcts.reused_visit_frac", reused / (reused + playouts), "ratio",
        "reused root visits / (reused + " + int_str(playouts) +
            " playouts)" + prog);
  r.add("mcts.tt_graft_frac",
        grafts + requests > 0 ? grafts / (grafts + requests) : 0.0, "ratio",
        "grafts / (grafts + " + int_str(requests) + " leaf requests)" + prog);
  r.add("mcts.tt_pending", pending / moves, "1/move",
        "TT probes that found the position in flight, per move" + prog);
  r.add("perfmodel.serial_move_frac", 1.0, "ratio",
        mv + ", serial engines with adaptation off");

  add_game_metrics(r, all, moves);

  // Budget per move on the worker's timeline. Service move latency = serve
  // (outside the search) + the search's eval wait, split into the backend
  // time of the batches its requests rode in (nn) and the rest (queue) +
  // games + mcts phases + unattributed (search time outside the phase
  // timers). Every backend request belongs to some traced move.
  double backend_req_ns = 0.0;
  for (const Span& sp : spans) {
    if (sp.kind == SpanKind::kBackend) {
      backend_req_ns += static_cast<double>(sp.dur) * sp.items;
    }
  }
  const double w_ms = move_lat_ns * 1e-6 / moves;
  const double search_ms = search_s * 1e3 / moves;
  const double eval_ms = eval_block_ns * 1e-6 / moves;
  const double nn_ms = std::min(eval_ms, backend_req_ns * 1e-6 / moves);
  const double phased_game_ms = (g2_ns - e2_ns - clone_ns) * 1e-6 / moves;
  add_budget(r,
             {{"serve", w_ms - search_ms},
              {"eval (queue, cache)", eval_ms - nn_ms},
              {"nn+tensor (backend)", nn_ms},
              {"games", g2_ns * 1e-6 / moves},
              {"mcts", (sel + exp + back) * 1e3 / moves - phased_game_ms}},
             w_ms, "the service move-latency histogram (program-reported)",
             moves, traced.moves_per_s(), plain.moves_per_s());

  // Median dispatched batch (weighted by batch count) for the nn rows.
  std::size_t total = 0, seen = 0;
  for (const std::size_t c : fill) total += c;
  int bmed = 1;
  for (std::size_t i = 1; i < fill.size(); ++i) {
    seen += fill[i];
    if (seen * 2 >= total) {
      bmed = static_cast<int>(i);
      break;
    }
  }
  const apm::PolicyValueNet net(s.net, net_seed(round_seed(seed, 0)));
  add_layer_metrics(r, net, bmed, seed);
}

}  // namespace

Report run_served(const Options& opt) {
  const ServedSpec s = spec_for(opt.workload);
  Report r;
  r.busy_threads = s.workers;
  for (const LaneSpec& l : s.lanes) r.busy_threads += l.streams;
  Digests digests;
  if (!opt.trace) {
    const int rounds = reps_for(opt.seconds, 2 * s.rep_seconds);
    const Phase ph = run_phase(s, opt.seed, false, rounds, 2, r, digests);
    add_e2e(r, ph);
  } else {
    // Half the time untraced, half replaying the same rounds traced.
    const int rounds = reps_for(opt.seconds * 0.5, s.rep_seconds);
    const Phase plain = run_phase(s, opt.seed, false, rounds, 1, r, digests);
    const Phase traced = run_phase(s, opt.seed, true, rounds, 1, r, digests);
    add_layers(r, s, traced, plain, opt.seed);
  }
  for (const auto& [key, digest] : digests) {
    std::printf("digest round %d workload %d game %d %016llx\n",
                std::get<0>(key), std::get<1>(key), std::get<2>(key),
                static_cast<unsigned long long>(digest));
  }
  return r;
}

}  // namespace perfbench

// g15-adaptive: one Gomoku 15x15 game at a time on a SearchEngine driven
// directly with a CPU Evaluator (no batch queue, no cache): the paper's
// CPU-only platform, where the AdaptiveController picks between Eq. 3
// (shared tree) and Eq. 5 (local tree) at N in {1, 2, 3} every move. The
// tiny net costs about 140 us per evaluation, the paper's CPU-inference
// ratio, so the mcts search schemes and the perfmodel decide the speed.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "mcts/engine.hpp"
#include "perfmodel/perf_model.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

constexpr int kPlayouts = 800;
constexpr int kMaxMoves = 20;  // plies per game: equal work per game
constexpr int kTemperatureMoves = 2;
// Each repetition builds a fresh engine, whose controller starts cold at
// serial/1 for one move, and plays games until it has this many moves: ten
// samples beyond its p90, and cold moves near 1% of all moves.
constexpr int kRepMoves = 100;
// Wall time of one such repetition on the reference host (see NOTES.md).
constexpr double kRepSeconds = 6.0;

struct MoveTiming {
  std::uint64_t start = 0;        // search begins
  std::uint64_t search_end = 0;
  std::uint64_t advance_start = 0;
  std::uint64_t end = 0;          // advance returns
  int game = 0;
};

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  int moves = 0;
  std::vector<MoveTiming> timing;
  std::vector<apm::EngineMoveStats> log;
  std::vector<Span> spans;
  apm::ProfiledCosts costs;
  apm::HardwareSpec hw;
};

struct Config {
  bool adapt = true;
  apm::Scheme scheme = apm::Scheme::kSerial;
  int workers = 1;
  int min_moves = kRepMoves;  // 0: one game
};

apm::EngineConfig engine_config(const Config& c, std::uint64_t seed) {
  apm::EngineConfig ec;
  ec.mcts.num_playouts = kPlayouts;
  ec.mcts.seed = seed;
  ec.scheme = c.scheme;
  ec.workers = c.workers;
  ec.reuse_tree = true;
  ec.adapt = c.adapt;
  ec.adaptive.gpu = false;
  ec.adaptive.worker_candidates = {1, 2, 3};
  ec.hw.cpu_threads = host_cpus();
  return ec;
}

Rep run_rep(const Config& c, std::uint64_t seed, bool traced, Report& r) {
  Rep out;
  SpanLog log;
  const std::uint64_t t0 = now_ns();
  std::uint64_t mix = seed;
  const apm::PolicyValueNet net(apm::NetConfig::tiny(15),
                                apm::splitmix64(mix));
  apm::NetEvaluator plain(net);
  TimedEvaluator timed(plain, &log);
  apm::Evaluator& eval = traced ? static_cast<apm::Evaluator&>(timed) : plain;
  const apm::EngineConfig ec = engine_config(c, apm::splitmix64(mix));
  apm::SearchEngine engine(ec, {.evaluator = &eval});
  {
    // Warm-up: the main thread's workspace and the first-touch pages.
    const apm::Gomoku g(15, 5);
    std::vector<float> planes(g.encode_size());
    g.encode(planes.data());
    apm::EvalOutput o;
    for (int i = 0; i < 64; ++i) plain.evaluate(planes.data(), o);
  }
  out.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.hw = ec.hw;

  log.enable(traced);
  apm::Rng rng(apm::splitmix64(mix));
  std::vector<int> legal;
  for (int game = 0; game == 0 || out.moves < c.min_moves; ++game) {
    r.attempted += 1;
    engine.reset_game();
    const std::size_t log_begin = engine.move_log().size();
    std::unique_ptr<apm::Game> env = std::make_unique<apm::Gomoku>(15, 5);
    if (traced) env = std::make_unique<TimedGame>(std::move(env), &log);
    apm::Gomoku shadow(15, 5);  // undecorated copy for the output checks
    std::vector<int> players;
    std::string err;
    const std::uint64_t g0 = now_ns();
    while (!shadow.is_terminal() &&
           static_cast<int>(players.size()) < kMaxMoves) {
      MoveTiming mt;
      mt.game = game;
      mt.start = now_ns();
      const apm::SearchResult res = engine.search(*env);
      mt.search_end = now_ns();
      int action = res.best_action;
      if (static_cast<int>(players.size()) < kTemperatureMoves) {
        const std::vector<float> pi = res.prior_with_temperature(1.0f);
        double u = rng.uniform(), acc = 0.0;
        for (std::size_t a = 0; a < pi.size(); ++a) {
          acc += pi[a];
          if (pi[a] > 0.0f && u < acc) {
            action = static_cast<int>(a);
            break;
          }
        }
      }
      env->apply(action);
      mt.advance_start = now_ns();
      engine.advance(action);
      mt.end = now_ns();
      out.timing.push_back(mt);

      // Output checks, outside the timed move.
      shadow.legal_actions(legal);
      double sum = 0.0;
      for (std::size_t a = 0; a < res.action_prior.size(); ++a) {
        const float p = res.action_prior[a];
        if (!(p >= 0.0f) || (p > 0.0f && !shadow.is_legal(static_cast<int>(a)))) {
          err = "pi is not a distribution over legal actions";
        }
        sum += p;
      }
      if (std::fabs(sum - 1.0) > 1e-4) err = "pi does not sum to 1";
      if (!shadow.is_legal(action)) err = "illegal action played";
      players.push_back(shadow.current_player());
      shadow.apply(action);
    }
    out.wall_s += static_cast<double>(now_ns() - g0) * 1e-9;
    // This path produces no z: the caller owns move selection and outcomes.
    if (engine.move_log().size() - log_begin != players.size()) {
      err = "samples != moves";
    }
    if (!shadow.is_terminal() && static_cast<int>(players.size()) < kMaxMoves) {
      err = "game did not complete";
    }
    if (err.empty()) {
      ++r.completed;
    } else {
      ++r.failed;
      r.fail("game " + std::to_string(game) + ": " + err);
    }
    out.moves += static_cast<int>(players.size());
    out.log.insert(out.log.end(), engine.move_log().begin() +
                                      static_cast<std::ptrdiff_t>(log_begin),
                   engine.move_log().end());
  }
  log.enable(false);
  out.spans = log.collect();
  out.costs = engine.controller().costs();
  return out;
}

struct Phase {
  std::vector<Rep> reps;
  double moves = 0.0;
  double wall_s = 0.0;
  double moves_per_s() const { return wall_s > 0.0 ? moves / wall_s : 0.0; }
};

// Runs `reps` repetitions; repetition i plays round i's inputs (a fresh
// net, engine seed and opening sampler).
Phase run_phase(const Config& c, std::uint64_t seed, bool traced, int reps,
                Report& r) {
  Phase ph;
  for (int round = 0; round < reps; ++round) {
    Rep rep = run_rep(c, round_seed(seed, round), traced, r);
    release_freed_memory();
    ph.moves += rep.moves;
    ph.wall_s += rep.wall_s;
    ph.reps.push_back(std::move(rep));
  }
  return ph;
}

int busy_threads(const std::vector<apm::EngineMoveStats>& log) {
  int most = 1;
  for (const apm::EngineMoveStats& m : log) {
    // Local tree runs a master thread beside its N evaluation workers.
    most = std::max(most, m.workers + (m.scheme == apm::Scheme::kLocalTree));
  }
  return most;
}

void add_e2e(Report& r, const Phase& ph) {
  std::vector<std::vector<double>> move_ms;
  std::vector<double> setup, rate;
  for (const Rep& rep : ph.reps) {
    setup.push_back(rep.setup_s);
    rate.push_back(rep.moves / rep.wall_s);
    move_ms.emplace_back();
    for (const MoveTiming& t : rep.timing) {
      move_ms.back().push_back(static_cast<double>(t.end - t.start) * 1e-6);
    }
  }
  const std::string reps = std::to_string(ph.reps.size()) + " repetitions";
  r.add("moves_per_s", median(rate), "1/s",
        "median over " + reps + " of moves / benchmark-timed game wall "
        "(pooled: " + std::to_string(ph.moves_per_s()) +
            ", quartile spread: " + std::to_string(quartile_spread(rate)) +
            ")");
  add_move_latency(r, move_ms,
                   "benchmark timer around SearchEngine::search + advance");
  r.add("setup_s", median(setup), "s",
        "median over " + reps + " of net build + engine construction + "
        "warm-up");
}

// Moves per second of round 0's first game: the input every configuration
// of a traced run plays.
double game0_rate(const Phase& ph) {
  double moves = 0, ns = 0;
  for (const MoveTiming& t : ph.reps.front().timing) {
    if (t.game != 0) continue;
    moves += 1;
    ns += static_cast<double>(t.end - t.start);
  }
  return ns > 0 ? moves / (ns * 1e-9) : 0.0;
}

void add_layers(Report& r, const Phase& traced, const Phase& plain,
                const std::vector<std::pair<std::string, Phase>>& fixed,
                std::uint64_t seed) {
  double moves = 0, sel = 0, exp = 0, back = 0, playouts = 0, collisions = 0,
         reused = 0, switched = 0, worker_wall_ns = 0;
  double scheme_moves[3] = {0, 0, 0};
  std::vector<double> pred_err, queue_wait_us;
  double wall_ns = 0, eval_ns = 0, game_ns = 0, mcts_ns = 0;
  std::vector<Span> all_spans;
  for (const Rep& rep : traced.reps) {
    std::vector<Span> spans = rep.spans;
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    for (std::size_t i = 0; i < rep.timing.size(); ++i) {
      const MoveTiming& t = rep.timing[i];
      const apm::EngineMoveStats& m = rep.log[i];
      std::vector<Interval> kids;
      double apply_ns = 0;
      auto it = std::lower_bound(
          spans.begin(), spans.end(), t.start,
          [](const Span& s, std::uint64_t v) { return s.start < v; });
      // Local tree's master encodes each leaf (on a playout copy, depth
      // >= 1) and queues it for a FIFO pool of eval workers, so the k-th
      // such encode feeds the k-th evaluation after the first one: the gap
      // is the request's wait in that queue. The root is evaluated inline.
      std::vector<std::uint64_t> encoded, started;
      for (; it != spans.end() && it->start < t.end; ++it) {
        const std::uint64_t e = it->start + it->dur;
        if (it->start >= t.search_end) {
          if (it->kind <= SpanKind::kGameOther) apply_ns += it->dur;
          continue;
        }
        kids.push_back({it->start, e, it->kind == SpanKind::kEval ? 0 : 1});
        if (it->kind == SpanKind::kEncode && it->depth >= 1) {
          encoded.push_back(e);
        }
        if (it->kind == SpanKind::kEval) started.push_back(it->start);
      }
      if (m.scheme == apm::Scheme::kLocalTree && !encoded.empty()) {
        std::sort(encoded.begin(), encoded.end());
        const auto first = std::lower_bound(started.begin(), started.end(),
                                            encoded.front());
        for (std::size_t k = 0;
             k < encoded.size() && first + static_cast<std::ptrdiff_t>(k) !=
                                       started.end();
             ++k) {
          const std::uint64_t s0 = *(first + static_cast<std::ptrdiff_t>(k));
          queue_wait_us.push_back(
              s0 > encoded[k] ? static_cast<double>(s0 - encoded[k]) * 1e-3
                              : 0.0);
        }
      }
      const Attribution a = attribute(t.start, t.search_end, kids, 2);
      wall_ns += static_cast<double>(t.end - t.start);
      eval_ns += a.covered_ns[0];
      game_ns += a.covered_ns[1] + apply_ns;
      mcts_ns += a.self_ns + static_cast<double>(t.end - t.advance_start);
      worker_wall_ns +=
          static_cast<double>(t.search_end - t.start) * m.metrics.workers;
      moves += 1;
      sel += m.metrics.select_seconds;
      exp += m.metrics.expand_seconds;
      back += m.metrics.backup_seconds;
      playouts += m.metrics.playouts;
      collisions += static_cast<double>(m.metrics.expansion_collisions);
      reused += static_cast<double>(m.metrics.reused_visits);
      switched += m.switched ? 1 : 0;
      const int s = m.scheme == apm::Scheme::kSerial       ? 0
                    : m.scheme == apm::Scheme::kSharedTree ? 1
                                                           : 2;
      scheme_moves[s] += 1;
      if (i + 1 < rep.timing.size() && rep.timing[i + 1].game == t.game) {
        const double pred = m.switched ? m.predicted_us : m.current_predicted_us;
        const double meas = rep.log[i + 1].metrics.amortized_iteration_us();
        if (pred > 0 && meas > 0) pred_err.push_back(std::fabs(pred - meas) / meas);
      }
    }
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  if (moves <= 0) return;
  const std::string mv =
      std::to_string(static_cast<long long>(moves)) + " traced moves";
  const std::string prog = " (program-reported)";
  const KindTotals tot = totals(all_spans);
  const double evals =
      static_cast<double>(tot.items[static_cast<int>(SpanKind::kEval)]);

  r.add("eval.backend_us_per_position",
        evals > 0 ? tot.ns_of(SpanKind::kEval) * 1e-3 / evals : 0.0, "us",
        std::to_string(static_cast<long long>(evals)) +
            " evaluations through the Evaluator probe");
  const std::string waits =
      std::to_string(queue_wait_us.size()) +
      " local-tree requests: master encode end to eval-worker start";
  r.add("eval.queue_wait_p50_us", quantile(queue_wait_us, 0.5), "us", waits);
  r.add("eval.queue_wait_p90_us", quantile(queue_wait_us, 0.9), "us", waits);
  r.add("mcts.search_self_ms_per_move", mcts_ns * 1e-6 / moves, "ms",
        "search span minus the union of evaluator and game spans, plus "
        "advance, over " + mv);
  r.add("mcts.select_us_per_playout", sel * 1e6 / playouts, "us",
        "summed over workers, " +
            std::to_string(static_cast<long long>(playouts)) + " playouts" +
            prog);
  r.add("mcts.expand_us_per_playout", exp * 1e6 / playouts, "us",
        "summed over workers" + prog);
  r.add("mcts.backup_us_per_playout", back * 1e6 / playouts, "us",
        "summed over workers" + prog);
  r.add("mcts.eval_worker_busy_frac", tot.ns_of(SpanKind::kEval) / worker_wall_ns,
        "ratio", "Evaluator probe time / (workers x search wall), " + mv);
  r.add("mcts.expansion_collisions_per_move", collisions / moves, "1/move",
        mv + prog);
  r.add("mcts.reused_visit_frac", reused / (reused + playouts), "ratio",
        "reused root visits / (reused + playouts)" + prog);
  r.add("perfmodel.switches_per_move", switched / moves, "1/move", mv + prog);
  r.add("perfmodel.serial_move_frac", scheme_moves[0] / moves, "ratio", mv + prog);
  r.add("perfmodel.shared_tree_move_frac", scheme_moves[1] / moves, "ratio",
        mv + prog);
  r.add("perfmodel.local_tree_move_frac", scheme_moves[2] / moves, "ratio",
        mv + prog);
  r.add("perfmodel.predict_err", median(pred_err), "ratio",
        "median |predicted - measured| / measured us per iteration over " +
            std::to_string(pred_err.size()) + " move pairs" + prog);

  double best = 0.0;
  std::string best_name;
  for (const auto& [name, ph] : fixed) {
    if (game0_rate(ph) > best) {
      best = game0_rate(ph);
      best_name = name;
    }
  }
  const double adaptive = game0_rate(plain);
  r.add("perfmodel.best_fixed_moves_per_s", best, "1/s",
        "best of serial/1, shared_tree/3, local_tree/3 on round 0 game 0 (" +
            best_name + ")");
  r.add("perfmodel.adaptive_regret", best > 0 ? 1.0 - adaptive / best : 0.0,
        "ratio", "1 - adaptive/best fixed on round 0 game 0 (" +
                     std::to_string(adaptive) + " vs " +
                     std::to_string(best) + " moves/s)");

  add_game_metrics(r, tot, moves);
  add_budget(r,
             {{"nn (Evaluator calls)", eval_ns * 1e-6 / moves},
              {"games", game_ns * 1e-6 / moves},
              {"mcts (search self)", mcts_ns * 1e-6 / moves}},
             wall_ns * 1e-6 / moves,
             "the benchmark's timer around search + advance (wall-clock "
             "union of spans; eval > games > mcts where they overlap)",
             moves, traced.moves_per_s(), plain.moves_per_s());

  // Eq. 3-6 predicted per-stage costs beside the measured ones.
  const Rep& last = traced.reps.back();
  const apm::ProfiledCosts& c = last.costs;
  const double dnn_meas =
      evals > 0 ? tot.ns_of(SpanKind::kEval) * 1e-3 / evals : 0.0;
  std::printf("perfmodel live costs (AdaptiveController::costs) vs measured, "
              "us:\n");
  std::printf("  %-22s %10s %10s\n", "stage", "model", "measured");
  std::printf("  %-22s %10.3f %10.3f\n", "select / playout", c.t_select_us,
              sel * 1e6 / playouts);
  std::printf("  %-22s %10.3f %10.3f\n", "expand / playout", c.t_expand_us,
              exp * 1e6 / playouts);
  std::printf("  %-22s %10.3f %10.3f\n", "backup / playout", c.t_backup_us,
              back * 1e6 / playouts);
  std::printf("  %-22s %10.3f %10.3f\n", "dnn / eval", c.t_dnn_cpu_us,
              dnn_meas);
  std::printf("  %-22s %10.3f %10s\n", "shared access", c.t_shared_access_us,
              "-");
  const apm::PerfModel model(last.hw, c);
  std::printf("Eq. 3/5 predicted us/iteration vs fixed-scheme measured "
              "(round 0 game 0):\n");
  for (const auto& [name, ph] : fixed) {
    double ns = 0, iters = 0;
    for (const Rep& rep : ph.reps) {
      for (const apm::EngineMoveStats& m : rep.log) {
        ns += m.metrics.move_seconds * 1e9;
        iters += m.metrics.playouts;
      }
    }
    double pred = 0.0;
    if (name == "serial/1") pred = model.shared_cpu_us(1);
    if (name == "shared_tree/3") pred = model.shared_cpu_us(3);
    if (name == "local_tree/3") pred = model.local_cpu_us(3);
    std::printf("  %-14s predicted %9.3f  measured %9.3f  moves/s %8.3f\n",
                name.c_str(), pred, iters > 0 ? ns * 1e-3 / iters : 0.0,
                game0_rate(ph));
  }
  std::printf("  %-14s predicted %9.3f  measured %9.3f  moves/s %8.3f\n",
              "adaptive", last.log.empty() ? 0.0 : last.log.back().predicted_us,
              dnn_meas > 0 ? wall_ns * 1e-3 / playouts : 0.0, adaptive);

  add_layer_metrics(r,
                    apm::PolicyValueNet(apm::NetConfig::tiny(15),
                                        net_seed(round_seed(seed, 0))),
                    1, seed);
}

}  // namespace

Report run_adaptive(const Options& opt) {
  Report r;
  const Config adaptive;
  std::vector<apm::EngineMoveStats> all_log;
  if (!opt.trace) {
    const Phase ph = run_phase(adaptive, opt.seed, false,
                               reps_for(opt.seconds, kRepSeconds), r);
    add_e2e(r, ph);
    for (const Rep& rep : ph.reps) {
      all_log.insert(all_log.end(), rep.log.begin(), rep.log.end());
    }
  } else {
    // 30% of the time untraced, 30% replaying the same rounds traced, the
    // rest for the fixed-scheme references and the layer timings.
    const int reps = reps_for(opt.seconds * 0.3, kRepSeconds);
    const Phase plain = run_phase(adaptive, opt.seed, false, reps, r);
    const Phase traced = run_phase(adaptive, opt.seed, true, reps, r);
    std::vector<std::pair<std::string, Phase>> fixed;
    for (const auto& [name, scheme, n] :
         {std::tuple{"serial/1", apm::Scheme::kSerial, 1},
          std::tuple{"shared_tree/3", apm::Scheme::kSharedTree, 3},
          std::tuple{"local_tree/3", apm::Scheme::kLocalTree, 3}}) {
      Config f;
      f.adapt = false;
      f.scheme = scheme;
      f.workers = n;
      f.min_moves = 0;
      fixed.emplace_back(name, run_phase(f, opt.seed, false, 1, r));
    }
    add_layers(r, traced, plain, fixed, opt.seed);
    for (const Phase* ph : {&plain, &traced}) {
      for (const Rep& rep : ph->reps) {
        all_log.insert(all_log.end(), rep.log.begin(), rep.log.end());
      }
    }
    for (const auto& f : fixed) {
      for (const Rep& rep : f.second.reps) {
        all_log.insert(all_log.end(), rep.log.begin(), rep.log.end());
      }
    }
  }
  r.busy_threads = busy_threads(all_log);
  return r;
}

}  // namespace perfbench

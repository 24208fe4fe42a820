// Figure 7 — DNN loss over time under the optimal parallel configuration
// for N ∈ {4, 16, 64} workers (§5.5).
//
// This bench trains for real: self-play on a reduced Gomoku board with the
// real network, SGD included, using the parallel local/shared scheme the
// adaptive layer picks for each N. Two time axes are reported:
//   wall     — measured on this host (all N share one core here, so wall
//              time does NOT separate the configs);
//   virtual  — samples × the DES per-sample latency of that N's optimal
//              config on the paper-calibrated platform, which is the axis
//              Figure 7 uses.
//
// Expected shape (paper): all worker counts converge to a similar loss
// (parallelism does not hurt the converged loss); higher N converges
// faster in (virtual) time.

#include <cstdio>

#include "bench_common.hpp"
#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "perfmodel/batch_search.hpp"
#include "games/gomoku.hpp"
#include "mcts/factory.hpp"
#include "sim/throughput.hpp"
#include "support/table.hpp"
#include "train/trainer.hpp"

using namespace apm;

int main() {
  bench::print_banner("Figure 7: DNN loss over time, optimal configs");
  const ProfiledCosts costs = bench::paper_costs();
  const HardwareSpec hw = bench::paper_hardware();
  PerfModel model(hw, costs);

  constexpr int kBoard = 5;
  constexpr int kPlayouts = 48;
  constexpr int kEpisodes = 10;
  const Gomoku game(kBoard, 4);

  Table table({"N", "scheme", "episode", "samples", "wall (s)",
               "virtual (s)", "loss", "value", "policy"});
  Table final_losses({"N", "final loss", "virtual time to finish (s)"});

  for (int n : {4, 16, 64}) {
    // Pick the scheme and B empirically via DES test runs at the paper's
    // full 1600-playout move size (as Figures 5/6 do), then scale the
    // virtual per-move cost down to this bench's reduced playout count:
    // per-iteration latency × playouts-per-move.
    SimParams sp;
    sp.playouts = 1600;
    sp.costs = costs;
    sp.hw = hw;
    sp.workers = n;
    const double shared_us = simulate_shared_gpu(sp).move_us;
    const BatchSearchResult found = find_min_batch(n, [&](int b) {
      SimParams pb = sp;
      pb.batch = b;
      return simulate_local_gpu(pb).move_us;
    });
    AdaptiveDecision d;
    d.workers = n;
    if (found.best_latency_us <= shared_us) {
      d.scheme = Scheme::kLocalTree;
      d.batch_size = found.best_batch;
    } else {
      d.scheme = Scheme::kSharedTree;
      d.batch_size = n;
    }
    const double virtual_us_per_sample =
        std::min(shared_us, found.best_latency_us) * kPlayouts / 1600.0;

    PolicyValueNet net(NetConfig::tiny(kBoard), /*seed=*/29);  // same init ∀N
    NetEvaluator evaluator(net);

    TrainerConfig tc;
    tc.sgd_iters_per_move = 3;
    tc.batch_size = 24;
    tc.sgd.lr = 5e-3f;
    Trainer trainer(net, tc, 50000);

    // Episodes run through the match service (two concurrent games per
    // wave on one uncached lane over the net, threshold 1), each game on its
    // own engine frozen to this N's DES-chosen scheme — the
    // adaptive-vs-frozen comparison keeps the config fixed.
    CpuBackend backend(evaluator);
    EvaluatorPool pool;
    ModelSpec spec;
    spec.name = "net";
    spec.backend = &backend;
    spec.batch_threshold = 1;
    spec.num_streams = 2;
    spec.cache = false;
    pool.add_model(spec);

    ServiceWorkload w;
    w.proto = std::shared_ptr<const Game>(game.clone());
    w.model = "net";
    w.slots = 2;
    w.engine.mcts.num_playouts = kPlayouts;
    w.engine.mcts.root_noise = true;
    w.engine.mcts.seed = 100 + static_cast<std::uint64_t>(n);
    w.engine.scheme = d.scheme;
    w.engine.workers = n;
    w.engine.adapt = false;
    w.self_play.temperature_moves = 6;
    w.self_play.augment = true;
    w.self_play.seed = 1000;  // identical openings across N
    ServiceConfig sc;
    sc.workers = 2;
    sc.aggregate.enabled = false;  // threshold pinned at 1
    MatchService service(sc, pool, {std::move(w)});

    int episode = 0;
    double virtual_s = 0.0;
    int prev_samples = 0;
    float last_loss = 0.0f;
    trainer.run(service, kEpisodes,
                [&](const LossPoint& p) {
                  virtual_s += (p.samples_seen - prev_samples) *
                               virtual_us_per_sample * 1e-6 / 8.0;
                  // /8: augmentation multiplies samples; search ran once
                  // per original move.
                  prev_samples = p.samples_seen;
                  last_loss = p.loss;
                  table.add_row({std::to_string(n), to_string(d.scheme),
                                 std::to_string(++episode),
                                 std::to_string(p.samples_seen),
                                 Table::fmt(p.wall_seconds, 1),
                                 Table::fmt(virtual_s, 3),
                                 Table::fmt(p.loss, 3),
                                 Table::fmt(p.value_loss, 3),
                                 Table::fmt(p.policy_loss, 3)});
                });
    final_losses.add_row({std::to_string(n), Table::fmt(last_loss, 3),
                          Table::fmt(virtual_s, 3)});
  }

  table.print("Fig.7: loss curves (real training, virtual time axis)");
  final_losses.print(
      "Fig.7 summary: converged loss similar across N; higher N finishes "
      "the same training in less virtual time");
  return 0;
}

// Full Algorithm-1 training loop on a small board, routed through the
// concurrent match service: self-play episodes run `slots` games at a time,
// each game on its own adaptive SearchEngine (cross-move tree reuse +
// runtime scheme switching), all sharing one lane over the NetEvaluator so
// concurrent games keep it busy; SGD updates run between waves; loss
// reporting and a checkpoint at the end.
//
// Usage: selfplay_train [episodes] [board] [playouts] [workers] [slots]

#include <cstdio>
#include <cstdlib>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "nn/serialize.hpp"
#include "train/trainer.hpp"

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 6;
  const int board = argc > 2 ? std::atoi(argv[2]) : 5;
  const int playouts = argc > 3 ? std::atoi(argv[3]) : 64;
  const int workers = argc > 4 ? std::atoi(argv[4]) : 4;
  const int slots = argc > 5 ? std::atoi(argv[5]) : 3;

  const apm::Gomoku game(board, board >= 5 ? 4 : 3);
  apm::PolicyValueNet net(apm::NetConfig::tiny(board), /*seed=*/3);
  apm::NetEvaluator evaluator(net);

  // Service path: one engine per concurrent game. Each engine starts on the
  // local-tree scheme and may re-decide (scheme, N) — and with it the
  // virtual-loss constant — per move from live costs; `slots` games share
  // the net's lane (threshold 1, one stream per game, no cache: weights
  // change every wave) so the pipeline never idles on a single game's tail.
  apm::CpuBackend backend(evaluator);
  apm::EvaluatorPool pool;
  apm::ModelSpec spec;
  spec.name = "net";
  spec.backend = &backend;
  spec.batch_threshold = 1;
  spec.num_streams = slots;
  spec.cache = false;
  pool.add_model(spec);

  apm::ServiceWorkload w;
  w.proto = std::shared_ptr<const apm::Game>(game.clone());
  w.model = "net";
  w.slots = slots;
  w.engine.mcts.num_playouts = playouts;
  w.engine.mcts.root_noise = true;  // exploration during self-play
  w.engine.scheme = apm::Scheme::kLocalTree;
  w.engine.workers = workers;
  w.engine.adaptive.worker_candidates = {1, 2, workers};
  w.self_play.temperature_moves = board;  // explore the opening
  w.self_play.augment = true;
  apm::ServiceConfig sc;
  sc.workers = slots;  // one service thread per concurrent game
  sc.aggregate.enabled = false;  // threshold pinned at 1
  apm::MatchService service(sc, pool, {std::move(w)});

  apm::TrainerConfig tc;
  tc.sgd_iters_per_move = 4;
  tc.batch_size = 32;
  tc.sgd.lr = 5e-3f;
  apm::Trainer trainer(net, tc, /*buffer_capacity=*/20000);

  std::printf("training %dx%d gomoku: %d episodes, %d playouts/move, "
              "%d workers (adaptive engines), %d concurrent games\n",
              board, board, episodes, playouts, workers, slots);
  std::printf("%-8s %-10s %-8s %-8s %-8s %-8s\n", "episode", "samples",
              "loss", "value", "policy", "entropy");
  int episode = 0;
  trainer.run(service, episodes,
              [&episode](const apm::LossPoint& p) {
                std::printf("%-8d %-10d %-8.3f %-8.3f %-8.3f %-8.3f\n",
                            ++episode, p.samples_seen, p.loss, p.value_loss,
                            p.policy_loss, p.entropy);
                std::fflush(stdout);
              });

  const apm::ServiceStats ss = service.stats();
  std::printf("service: %d games, %.1f moves/s aggregate, %d scheme "
              "switches across engines\n",
              ss.games_completed, ss.moves_per_second, ss.scheme_switches);
  std::printf("throughput: %.2f samples/s (search+train, §5.4 metric)\n",
              trainer.samples_per_second());
  apm::save_net_file(net, "gomoku_net.ckpt");
  std::printf("checkpoint written to gomoku_net.ckpt\n");
  return 0;
}

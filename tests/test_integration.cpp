// Integration tests across the whole stack: the Algorithm-1 pipeline
// (self-play → replay → SGD) with a real network and real parallel
// searches, plus the adaptive workflow feeding a scheme choice.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "mcts/factory.hpp"
#include "nn/serialize.hpp"
#include "perfmodel/workflow.hpp"
#include "train/self_play.hpp"
#include "train/trainer.hpp"

namespace apm {
namespace {

MctsConfig small_search(int playouts) {
  MctsConfig cfg;
  cfg.num_playouts = playouts;
  cfg.root_noise = true;
  cfg.seed = 5;
  return cfg;
}

// A one-lane pool ("net") over `eval`: threshold 1, two streams, no cache,
// so every leaf request dispatches as soon as it arrives (services over it
// disable the aggregate controller to keep it so).
struct NetLane {
  explicit NetLane(Evaluator& eval) : backend(eval) {
    ModelSpec spec;
    spec.name = "net";
    spec.backend = &backend;
    spec.batch_threshold = 1;
    spec.num_streams = 2;
    spec.cache = false;
    pool.add_model(spec);
  }

  CpuBackend backend;
  EvaluatorPool pool;
};

// `slots` concurrent games of `game` on lane "net", adaptation off.
ServiceWorkload net_games(const Game& game, MctsConfig mcts, Scheme scheme,
                          int slots) {
  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "net";
  w.slots = slots;
  w.engine.mcts = mcts;
  w.engine.scheme = scheme;
  w.engine.adapt = false;
  return w;
}

TEST(SelfPlay, EpisodeLabelsFollowOutcome) {
  Gomoku g = make_tictactoe();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  SerialMcts search(small_search(50), eval);
  ReplayBuffer buffer(256);
  SelfPlayConfig sp;
  sp.temperature_moves = 2;
  const EpisodeStats stats = run_self_play_episode(g, search, buffer, sp);

  EXPECT_GT(stats.moves, 4);        // a TicTacToe game lasts ≥ 5 moves
  EXPECT_EQ(stats.samples, stats.moves);
  ASSERT_EQ(buffer.size(), static_cast<std::size_t>(stats.samples));
  if (stats.winner == 0) {
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      EXPECT_FLOAT_EQ(buffer.at(i).z, 0.0f);
    }
  } else {
    // Alternating players → z alternates sign move by move.
    for (std::size_t i = 1; i < buffer.size(); ++i) {
      EXPECT_FLOAT_EQ(buffer.at(i).z, -buffer.at(i - 1).z);
    }
  }
}

TEST(SelfPlay, AugmentMultipliesSamplesEightfold) {
  Gomoku g = make_tictactoe();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  SerialMcts search(small_search(30), eval);
  ReplayBuffer buffer(1024);
  SelfPlayConfig sp;
  sp.augment = true;
  const EpisodeStats stats = run_self_play_episode(g, search, buffer, sp);
  EXPECT_EQ(stats.samples, stats.moves * 8);
}

TEST(SelfPlay, MaxMovesTruncatesEpisode) {
  Gomoku g(9, 5);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  SerialMcts search(small_search(20), eval);
  ReplayBuffer buffer(256);
  SelfPlayConfig sp;
  sp.max_moves = 4;
  const EpisodeStats stats = run_self_play_episode(g, search, buffer, sp);
  EXPECT_EQ(stats.moves, 4);
}

TEST(Trainer, LossDecreasesOverPipelineRun) {
  const Gomoku game = make_tictactoe();
  PolicyValueNet net(NetConfig::tiny(3), 7);
  NetEvaluator eval(net);

  TrainerConfig tc;
  tc.sgd_iters_per_move = 4;
  tc.batch_size = 16;
  tc.sgd.lr = 0.01f;
  Trainer trainer(net, tc, 4096);

  // Trainer::run generates episodes through the concurrent match service
  // (two serial-engine games at a time over the net's lane).
  NetLane lane(eval);
  ServiceConfig sc;
  sc.workers = 2;
  sc.aggregate.enabled = false;
  ServiceWorkload w = net_games(game, small_search(40), Scheme::kSerial, 2);
  w.self_play.temperature_moves = 3;
  w.self_play.augment = true;
  MatchService service(sc, lane.pool, {std::move(w)});
  const auto curve = trainer.run(service, /*episodes=*/8);
  ASSERT_EQ(curve.size(), 8u);
  for (const auto& point : curve) {
    EXPECT_TRUE(std::isfinite(point.loss));
    EXPECT_GT(point.samples_seen, 0);
  }
  // Non-divergence over a short run (a real decrease needs more episodes
  // than a unit test affords; the Figure-7 bench demonstrates that).
  const double early = (curve[0].loss + curve[1].loss) / 2;
  const double late = (curve[6].loss + curve[7].loss) / 2;
  EXPECT_LT(late, early * 1.25);
  EXPECT_GT(trainer.samples_per_second(), 0.0);
}

TEST(Trainer, ParallelSearchFeedsSamePipeline) {
  const Gomoku game = make_tictactoe();
  PolicyValueNet net(NetConfig::tiny(3), 7);
  NetEvaluator eval(net);

  TrainerConfig tc;
  tc.sgd_iters_per_move = 2;
  tc.batch_size = 8;
  Trainer trainer(net, tc, 1024);

  NetLane lane(eval);
  ServiceConfig sc;
  sc.workers = 2;
  sc.aggregate.enabled = false;
  ServiceWorkload w =
      net_games(game, small_search(32), Scheme::kLocalTree, 2);
  w.engine.workers = 4;
  MatchService service(sc, lane.pool, {std::move(w)});
  const auto curve = trainer.run(service, 2);
  EXPECT_EQ(curve.size(), 2u);
  EXPECT_GT(trainer.buffer().size(), 0u);
}

TEST(Adaptive, WorkflowDrivesSchemeConstruction) {
  // End-to-end §3.2: profile, decide, construct the chosen scheme through
  // the factory, and run a real search with it.
  WorkflowConfig wf;
  wf.algo.fanout = 25;
  wf.algo.depth = 12;
  wf.algo.num_playouts = 128;
  wf.worker_counts = {4};
  SyntheticEvaluator dnn(25, 4 * 5 * 5, 50.0);
  const WorkflowResult result = run_config_workflow(wf, dnn);
  const AdaptiveDecision& d = result.decision(false, 4);

  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size(), 50.0);
  auto search =
      make_search(d.scheme, small_search(128), d.workers, {.evaluator = &eval});
  const SearchResult r = search->search(g);
  EXPECT_GE(r.best_action, 0);
  EXPECT_EQ(r.metrics.playouts, 128);
}

TEST(Adaptive, DecisionsAgreeWithManualModelQuery) {
  ProfiledCosts costs;
  costs.t_select_us = 3;
  costs.t_expand_us = 1;
  costs.t_backup_us = 1;
  costs.t_dnn_cpu_us = 500;
  costs.mean_depth = 4;
  costs.t_shared_access_us = 0.5;
  costs.tree_bytes = 1 << 20;
  WorkflowConfig wf;
  wf.worker_counts = {8, 64};
  const WorkflowResult result = run_config_workflow_with_costs(wf, costs);
  PerfModel model(wf.hw, costs);
  EXPECT_EQ(result.cpu_decisions[0].scheme, model.decide_cpu(8).scheme);
  EXPECT_EQ(result.gpu_decisions[1].batch_size,
            model.decide_gpu(64).batch_size);
}

TEST(Checkpointing, TrainedNetSurvivesSaveLoadWithSameSearchBehaviour) {
  const Gomoku game = make_tictactoe();
  PolicyValueNet net(NetConfig::tiny(3), 7);
  {
    NetEvaluator eval(net);
    TrainerConfig tc;
    tc.sgd_iters_per_move = 2;
    tc.batch_size = 8;
    Trainer trainer(net, tc, 512);
    NetLane lane(eval);
    ServiceConfig sc;
    sc.workers = 2;
    sc.aggregate.enabled = false;
    MatchService service(sc, lane.pool,
                         {net_games(game, small_search(24), Scheme::kSerial,
                                    2)});
    trainer.run(service, 2);
  }

  std::stringstream stream;
  save_net(net, stream);
  PolicyValueNet restored(NetConfig::tiny(3), 99);
  load_net(restored, stream);

  NetEvaluator e1(net), e2(restored);
  MctsConfig cfg = small_search(64);
  cfg.root_noise = false;
  SerialMcts s1(cfg, e1), s2(cfg, e2);
  EXPECT_EQ(s1.search(game).action_prior, s2.search(game).action_prior);
}

}  // namespace
}  // namespace apm

// Scheme-level search tests: tactical correctness (winning/blocking moves
// on TicTacToe), cross-scheme agreement, visit conservation, virtual-loss
// cleanliness, single-worker equivalence with the serial reference.

#include <gtest/gtest.h>

#include <tuple>

#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "mcts/engine.hpp"
#include "mcts/factory.hpp"

namespace apm {
namespace {

MctsConfig quick_config(int playouts) {
  MctsConfig cfg;
  cfg.num_playouts = playouts;
  cfg.c_puct = 3.0f;
  cfg.seed = 77;
  return cfg;
}

// Position where X (to move) wins immediately at action 2.
Gomoku x_wins_at_2() {
  Gomoku g = make_tictactoe();
  g.apply(0);  // X
  g.apply(3);  // O
  g.apply(1);  // X
  g.apply(4);  // O  → X completes the top row with 2
  return g;
}

// Position where O (to move) must block X at action 2.
Gomoku o_blocks_at_2() {
  Gomoku g = make_tictactoe();
  g.apply(0);  // X
  g.apply(3);  // O
  g.apply(1);  // X  → X threatens 0-1-2; O to move must take 2
  return g;
}

class SchemeWorkerMatrix
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(SchemeWorkerMatrix, FindsImmediateWin) {
  const auto [scheme, workers] = GetParam();
  const Gomoku g = x_wins_at_2();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search = make_search(scheme, quick_config(300), workers,
                            {.evaluator = &eval});
  const SearchResult r = search->search(g);
  EXPECT_EQ(r.best_action, 2) << to_string(scheme) << " N=" << workers;
}

TEST_P(SchemeWorkerMatrix, BlocksOpponentWin) {
  const auto [scheme, workers] = GetParam();
  const Gomoku g = o_blocks_at_2();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search = make_search(scheme, quick_config(600), workers,
                            {.evaluator = &eval});
  const SearchResult r = search->search(g);
  EXPECT_EQ(r.best_action, 2) << to_string(scheme) << " N=" << workers;
}

TEST_P(SchemeWorkerMatrix, ActionPriorIsDistributionOverLegalMoves) {
  const auto [scheme, workers] = GetParam();
  Gomoku g(5, 4);
  g.apply(12);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search = make_search(scheme, quick_config(200), workers,
                            {.evaluator = &eval});
  const SearchResult r = search->search(g);
  float total = 0.0f;
  for (std::size_t a = 0; a < r.action_prior.size(); ++a) {
    ASSERT_GE(r.action_prior[a], 0.0f);
    total += r.action_prior[a];
  }
  EXPECT_NEAR(total, 1.0f, 1e-4f);
  EXPECT_EQ(r.action_prior[12], 0.0f);  // occupied cell never visited
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeWorkerMatrix,
    ::testing::Values(std::tuple{Scheme::kSerial, 1},
                      std::tuple{Scheme::kSharedTree, 2},
                      std::tuple{Scheme::kSharedTree, 8},
                      std::tuple{Scheme::kLocalTree, 2},
                      std::tuple{Scheme::kLocalTree, 8},
                      std::tuple{Scheme::kLeafParallel, 4},
                      std::tuple{Scheme::kRootParallel, 4}),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(SerialMcts, DeterministicAcrossRuns) {
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  SerialMcts s1(quick_config(200), eval);
  SerialMcts s2(quick_config(200), eval);
  const SearchResult r1 = s1.search(g);
  const SearchResult r2 = s2.search(g);
  EXPECT_EQ(r1.best_action, r2.best_action);
  EXPECT_EQ(r1.action_prior, r2.action_prior);
}

// `eval` behind a threshold-1 batch queue with the stale-flush timer on. A
// driver must search exactly the same tree over the queue as over the bare
// evaluator: the EvalPort changes where an evaluation runs, not its result.
struct QueuedEvaluator {
  explicit QueuedEvaluator(Evaluator& eval) : backend(eval, GpuTimingModel{}) {}
  SimGpuBackend backend;
  AsyncBatchEvaluator batch{backend, /*batch_threshold=*/1, /*num_streams=*/1,
                            /*stale_flush_us=*/300.0};
};

TEST(SharedTreeMcts, OneWorkerMatchesSerial) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  SerialMcts serial(quick_config(200), eval);
  const std::vector<float> expected = serial.search(g).action_prior;
  SharedTreeMcts shared(quick_config(200), 1, eval);
  EXPECT_EQ(expected, shared.search(g).action_prior);
  QueuedEvaluator queued(eval);
  SharedTreeMcts shared_queued(quick_config(200), 1, queued.batch);
  EXPECT_EQ(expected, shared_queued.search(g).action_prior);
}

TEST(LocalTreeMcts, OneWorkerMatchesSerial) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  SerialMcts serial(quick_config(200), eval);
  const std::vector<float> expected = serial.search(g).action_prior;
  LocalTreeMcts local(quick_config(200), 1, eval);
  EXPECT_EQ(expected, local.search(g).action_prior);
  QueuedEvaluator queued(eval);
  LocalTreeMcts local_queued(quick_config(200), 1, queued.batch);
  EXPECT_EQ(expected, local_queued.search(g).action_prior);
}

TEST(SharedTreeMcts, BatchQueueNeedsStaleFlushTimer) {
  // 163 leaves over a threshold-8 queue end the move on a partial batch.
  // Every worker blocks on its own request and a leaf never flushes, so
  // without the timer nothing would ever dispatch it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  SimGpuBackend backend(eval, GpuTimingModel{});
  EXPECT_DEATH(
      {
        AsyncBatchEvaluator batch(backend, /*batch_threshold=*/8,
                                  /*num_streams=*/1, /*stale_flush_us=*/0.0);
        SharedTreeMcts search(quick_config(163), 8, batch);
        search.search(g);
      },
      "needs the stale-flush timer");
}

class ParallelInvariants
    : public ::testing::TestWithParam<std::tuple<Scheme, int, LockMode>> {};

TEST_P(ParallelInvariants, VisitConservationAndCleanVirtualLoss) {
  const auto [scheme, workers, lock_mode] = GetParam();
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size(),
                          /*latency_us=*/20.0);
  MctsConfig cfg = quick_config(240);
  cfg.lock_mode = lock_mode;
  auto search = make_search(scheme, cfg, workers, {.evaluator = &eval});
  const SearchResult r = search->search(g);

  // Every playout backs up exactly one visit through the root.
  float visit_mass = 0.0f;
  for (float p : r.action_prior) visit_mass += p;
  EXPECT_NEAR(visit_mass, 1.0f, 1e-4f);
  EXPECT_EQ(r.metrics.playouts, 240);
  // Root value is a mean of values in [−1, 1].
  EXPECT_GE(r.root_value, -1.0f);
  EXPECT_LE(r.root_value, 1.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelInvariants,
    ::testing::Values(
        std::tuple{Scheme::kSharedTree, 4, LockMode::kPerNode},
        std::tuple{Scheme::kSharedTree, 4, LockMode::kCoarse},
        std::tuple{Scheme::kSharedTree, 16, LockMode::kPerNode},
        std::tuple{Scheme::kLocalTree, 4, LockMode::kPerNode},
        std::tuple{Scheme::kLocalTree, 16, LockMode::kPerNode}),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      name += std::get<2>(param_info.param) == LockMode::kCoarse
                  ? "_coarse"
                  : "_pernode";
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(SearchMetrics, PhaseTimesAndCountsPopulated) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size(), 5.0);
  SerialMcts search(quick_config(100), eval);
  const SearchResult r = search.search(g);
  EXPECT_GT(r.metrics.move_seconds, 0.0);
  EXPECT_GT(r.metrics.select_seconds, 0.0);
  EXPECT_GT(r.metrics.eval_seconds, 0.0);
  EXPECT_GT(r.metrics.nodes, 1u);
  EXPECT_GT(r.metrics.amortized_iteration_us(), 0.0);
  EXPECT_EQ(r.metrics.eval_requests + r.metrics.terminal_rollouts, 100u);
}

TEST(SearchOnTerminalHeavyPosition, TerminalRolloutsCounted) {
  // Nearly-finished board: most rollouts end at terminal states.
  Gomoku g = make_tictactoe();
  for (int m : {0, 3, 1, 4}) g.apply(m);  // X one move from winning
  UniformEvaluator eval(g.action_count(), g.encode_size());
  SerialMcts search(quick_config(200), eval);
  const SearchResult r = search.search(g);
  EXPECT_GT(r.metrics.terminal_rollouts, 0u);
  EXPECT_EQ(r.best_action, 2);
}

TEST(GpuBatchedSearch, SharedTreeWithFullBatchQueue) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator batch(backend, /*threshold=*/8, /*streams=*/1,
                            /*stale_flush_us=*/300.0);
  SharedTreeMcts search(quick_config(160), 8, batch);
  const SearchResult r = search.search(g);
  EXPECT_GE(r.metrics.batch.batches, 1u);
  // +1: the root evaluation also flows through the queue.
  EXPECT_EQ(r.metrics.batch.submitted, r.metrics.eval_requests + 1u);
  EXPECT_LE(r.metrics.batch.max_batch, 8u);
  float mass = 0;
  for (float p : r.action_prior) mass += p;
  EXPECT_NEAR(mass, 1.0f, 1e-4f);
}

TEST(GpuBatchedSearch, LocalTreeSubBatching) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator batch(backend, /*threshold=*/4, /*streams=*/2,
                            /*stale_flush_us=*/300.0);
  LocalTreeMcts search(quick_config(160), 16, batch);
  const SearchResult r = search.search(g);
  EXPECT_GE(r.metrics.batch.batches, 160u / 16);
  EXPECT_LE(r.metrics.batch.max_batch, 4u);
}

TEST(NetBackedSearch, RealNetworkOnSmallBoard) {
  Gomoku g(5, 4);
  PolicyValueNet net(NetConfig::tiny(5), 3);
  NetEvaluator eval(net);
  SerialMcts search(quick_config(60), eval);
  const SearchResult r = search.search(g);
  EXPECT_GE(r.best_action, 0);
  EXPECT_LT(r.best_action, 25);
  EXPECT_GT(r.metrics.eval_requests, 0u);
}

// --- cross-move tree reuse ---------------------------------------------------

TEST(TreeReuse, ReusedSerialSearchIsDeterministic) {
  // Two independent arenas driven through the same search → advance_root →
  // reused-search sequence must produce identical results at every move:
  // the reused search is a pure function of (config, position, kept tree),
  // not of instance state.
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto play = [&](std::vector<SearchResult>& out) {
    SearchTree arena;
    SerialMcts search(quick_config(200), eval, &arena);
    auto env = g.clone();
    for (int move = 0; move < 3; ++move) {
      const SearchResult r = search.search(*env);
      out.push_back(r);
      env->apply(r.best_action);
      arena.advance_root(r.best_action);
      search.set_reuse_next(true);
    }
  };
  std::vector<SearchResult> a, b;
  play(a);
  play(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].best_action, b[i].best_action) << "move " << i;
    EXPECT_EQ(a[i].action_prior, b[i].action_prior) << "move " << i;
  }
  // Moves after the first actually reused a subtree.
  EXPECT_GT(a[1].metrics.reused_nodes, 0u);
  EXPECT_GT(a[1].metrics.reused_visits, 0);
}

TEST(TreeReuse, FewerExpansionsThanFreshTreeAtEqualBudget) {
  // Equal per-move playout target (root visit mass): the reuse engine
  // credits the carried subtree's visits against the budget, so it runs
  // measurably fewer expansions per move than the fresh-tree engine while
  // ending at the same root visit total.
  Gomoku g(5, 4);
  // Value-bearing evaluator + low exploration so visits concentrate on the
  // principal variation — the subtree a real (trained-net) search carries.
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig cfg = quick_config(300);
  cfg.c_puct = 1.0f;

  // Fixed trajectory so both engines search identical positions.
  std::vector<int> trajectory;
  {
    SerialMcts scout(cfg, eval);
    auto env = g.clone();
    for (int move = 0; move < 4; ++move) {
      const SearchResult r = scout.search(*env);
      trajectory.push_back(r.best_action);
      env->apply(r.best_action);
    }
  }

  auto run = [&](bool reuse) {
    EngineConfig ec;
    ec.mcts = cfg;
    ec.scheme = Scheme::kSerial;
    ec.workers = 1;
    ec.reuse_tree = reuse;
    ec.adapt = false;
    SearchEngine engine(ec, {.evaluator = &eval});
    auto env = g.clone();
    std::size_t expansions = 0;
    for (const int action : trajectory) {
      const SearchResult r = engine.search(*env);
      expansions += r.metrics.expansions;
      env->apply(action);
      engine.advance(action);
    }
    return expansions;
  };

  const std::size_t fresh = run(false);
  const std::size_t reused = run(true);
  EXPECT_LT(reused, fresh);
  // The saving is the reused visit mass, minus terminal rollouts — demand a
  // real margin, not an off-by-one.
  EXPECT_LT(reused, fresh - fresh / 10);
}

TEST(TreeReuse, SharedArenaSurvivesSchemeSwitch) {
  // A scheme switch hands the reused tree to the new driver: search with
  // local-tree, advance, then search the next position with shared-tree
  // over the same arena — the second search starts from the kept subtree.
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  SearchTree arena;
  MctsConfig cfg = quick_config(240);

  LocalTreeMcts local(cfg, 2, eval, &arena);
  auto env = g.clone();
  const SearchResult r1 = local.search(*env);
  env->apply(r1.best_action);
  ASSERT_TRUE(arena.advance_root(r1.best_action));
  const std::int64_t carried = arena.root_visit_total();
  ASSERT_GT(carried, 0);

  SharedTreeMcts shared(cfg, 2, eval, &arena);
  shared.set_reuse_next(true);
  const SearchResult r2 = shared.search(*env);
  EXPECT_EQ(r2.metrics.reused_visits, carried);
  EXPECT_GT(r2.metrics.reused_nodes, 0u);
  // Visit conservation still holds on the merged tree.
  float mass = 0.0f;
  for (float p : r2.action_prior) mass += p;
  EXPECT_NEAR(mass, 1.0f, 1e-4f);
}

TEST(RootNoise, ChangesExplorationButKeepsDistribution) {
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig with_noise = quick_config(200);
  with_noise.root_noise = true;
  with_noise.noise_fraction = 0.5f;
  SerialMcts search(with_noise, eval);
  const SearchResult r = search.search(g);
  float mass = 0;
  for (float p : r.action_prior) mass += p;
  EXPECT_NEAR(mass, 1.0f, 1e-4f);
}

}  // namespace
}  // namespace apm

// Adaptive engine tests: the AdaptiveController's crossover switching and
// hysteresis (synthetic cost feeds), the runtime batch-threshold re-tune,
// and a SearchEngine-driven self-play episode that logs a live scheme
// switch through EpisodeStats.

#include <gtest/gtest.h>

#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "mcts/engine.hpp"
#include "perfmodel/adaptive.hpp"
#include "train/self_play.hpp"

namespace apm {
namespace {

// Hardware with no cache-residency adjustment, so the fed in-tree costs are
// exactly what the Eq. 3–6 models consume.
HardwareSpec flat_hardware() {
  HardwareSpec hw;
  hw.ddr_access_us = 0.0;
  hw.llc_access_us = 0.0;
  return hw;
}

ProfiledCosts make_costs(double select_us, double dnn_us,
                         double shared_access_us) {
  ProfiledCosts c;
  c.t_select_us = select_us;
  c.t_expand_us = 0.5;
  c.t_backup_us = 0.5;
  c.t_dnn_cpu_us = dnn_us;
  c.t_shared_access_us = shared_access_us;
  c.mean_depth = 4.0;
  c.tree_bytes = 1 << 20;
  return c;
}

AdaptiveConfig trusting_config(std::vector<int> candidates) {
  AdaptiveConfig cfg;
  cfg.ewma_alpha = 1.0;  // trust the latest sample outright
  cfg.hysteresis = 0.10;
  cfg.dwell_moves = 0;
  cfg.warmup_moves = 1;
  cfg.gpu = false;
  cfg.worker_candidates = std::move(candidates);
  return cfg;
}

TEST(AdaptiveController, SwitchesAtPerfModelCrossoverAndBack) {
  const HardwareSpec hw = flat_hardware();
  // Eval-bound regime: Eq. 5 (local) beats Eq. 3 (shared) at N=8.
  const ProfiledCosts eval_bound = make_costs(5.0, 800.0, 2.0);
  // In-tree-bound regime: the serialised local master (Eq. 5's N·T_in-tree
  // term) loses decisively to the shared tree.
  const ProfiledCosts intree_bound = make_costs(60.0, 100.0, 2.0);
  // Shared-access-heavy regime: Eq. 3's N·T_access term dominates → local.
  const ProfiledCosts access_bound = make_costs(5.0, 800.0, 20.0);

  AdaptiveController ctl(hw, eval_bound, trusting_config({8}),
                         Scheme::kLocalTree, 8);

  ctl.observe_costs(eval_bound);
  AdaptivePlan plan = ctl.plan();
  EXPECT_FALSE(plan.switched);
  EXPECT_EQ(ctl.scheme(), Scheme::kLocalTree);

  ctl.observe_costs(intree_bound);
  plan = ctl.plan();
  EXPECT_TRUE(plan.switched);
  EXPECT_EQ(ctl.scheme(), Scheme::kSharedTree);
  EXPECT_LT(plan.predicted_us, plan.current_predicted_us);

  ctl.observe_costs(access_bound);
  plan = ctl.plan();
  EXPECT_TRUE(plan.switched);
  EXPECT_EQ(ctl.scheme(), Scheme::kLocalTree);
  EXPECT_EQ(ctl.switches(), 2);
}

TEST(AdaptiveController, PicksGlobalBestWorkerCount) {
  const HardwareSpec hw = flat_hardware();
  const ProfiledCosts costs = make_costs(5.0, 150.0, 2.0);
  const std::vector<int> candidates = {1, 2, 4, 8, 16, 32, 64};

  // Expected winner straight from the perf model.
  const PerfModel model(hw, costs);
  Scheme best_scheme = Scheme::kSerial;
  int best_n = 1;
  double best_us = 0.0;
  bool first = true;
  for (const int n : candidates) {
    const AdaptiveDecision d = model.decide_cpu(n);
    const double us = std::min(d.predicted_shared_us, d.predicted_local_us);
    if (first || us < best_us) {
      best_scheme = d.scheme;
      best_n = d.workers;
      best_us = us;
      first = false;
    }
  }

  AdaptiveController ctl(hw, costs, trusting_config(candidates),
                         Scheme::kSerial, 1);
  ctl.observe_costs(costs);
  const AdaptivePlan plan = ctl.plan();
  EXPECT_TRUE(plan.switched);
  EXPECT_EQ(ctl.scheme(), best_scheme);
  EXPECT_EQ(ctl.workers(), best_n);
  EXPECT_NE(best_n, 1);  // the model must actually prefer parallelism here
}

TEST(AdaptiveController, CacheHitRateLowersEffectiveEvalCost) {
  // ISSUE 4 acceptance: a forced high hit rate must measurably lower the
  // effective eval cost the controller feeds into Eq. 3–6. Identical
  // metrics except for cache_hits: the hot controller's predicted latency
  // for the same configuration must be lower, by the miss-rate scaling of
  // the DNN term.
  const HardwareSpec hw = flat_hardware();
  const ProfiledCosts seed = make_costs(5.0, 400.0, 2.0);

  SearchMetrics metrics;
  metrics.playouts = 100;
  metrics.workers = 1;
  metrics.select_seconds = 100 * 5e-6;
  metrics.expand_seconds = 100 * 0.5e-6;
  metrics.backup_seconds = 100 * 0.5e-6;
  metrics.expansions = 100;
  metrics.eval_requests = 100;
  metrics.eval_seconds = 100 * 400e-6;
  metrics.nodes = 100;

  SearchMetrics hot = metrics;
  hot.cache_hits = 90;
  // The 10 misses carried all of the blocking time.
  hot.eval_seconds = 10 * 400e-6;

  const AdaptiveConfig cfg = trusting_config({1});
  AdaptiveController cold(hw, seed, cfg, Scheme::kSerial, 1);
  AdaptiveController warm(hw, seed, cfg, Scheme::kSerial, 1);
  cold.observe(metrics);
  warm.observe(hot);

  // The hit rate lands in the live costs...
  EXPECT_NEAR(cold.costs().cache_hit_rate, 0.0, 1e-9);
  EXPECT_NEAR(warm.costs().cache_hit_rate, 0.9, 1e-9);
  // ...and the per-waited-request eval cost stays the hardware quantity
  // (~400us) in both, instead of being dragged down by free hits.
  EXPECT_NEAR(warm.costs().t_dnn_cpu_us, cold.costs().t_dnn_cpu_us, 40.0);

  const AdaptivePlan cold_plan = cold.plan();
  const AdaptivePlan warm_plan = warm.plan();
  EXPECT_LT(warm_plan.current_predicted_us,
            0.5 * cold_plan.current_predicted_us);

  // The same scaling applies inside the PerfModel directly (Eq. 3/5).
  ProfiledCosts hot_costs = seed;
  hot_costs.cache_hit_rate = 0.9;
  const PerfModel cold_model(hw, seed);
  const PerfModel warm_model(hw, hot_costs);
  EXPECT_DOUBLE_EQ(warm_model.eval_miss_rate(), 0.1);
  EXPECT_LT(warm_model.shared_cpu_wave_us(1), cold_model.shared_cpu_wave_us(1));
  EXPECT_LT(warm_model.local_cpu_wave_us(4), cold_model.local_cpu_wave_us(4));
  EXPECT_LT(warm_model.shared_gpu_wave_us(8), cold_model.shared_gpu_wave_us(8));
}

TEST(AdaptiveController, ZeroSeedTakesFirstSampleVerbatim) {
  // A controller seeded with the all-zero ProfiledCosts{} has no estimate
  // to blend with: after one observation its costs are the sample itself,
  // not alpha x sample. Hit and graft rates keep their EWMA.
  AdaptiveConfig cfg = trusting_config({1, 2, 3});
  cfg.ewma_alpha = 0.3;
  AdaptiveController ctl(flat_hardware(), ProfiledCosts{}, cfg,
                         Scheme::kSerial, 1);
  ProfiledCosts sample = make_costs(5.0, 70.0, 0.5);
  sample.t_handoff_us = 30.0;
  sample.cache_hit_rate = 0.5;
  sample.tt_graft_rate = 0.2;
  ctl.observe_costs(sample);
  const ProfiledCosts& c = ctl.costs();
  EXPECT_DOUBLE_EQ(c.t_select_us, sample.t_select_us);
  EXPECT_DOUBLE_EQ(c.t_expand_us, sample.t_expand_us);
  EXPECT_DOUBLE_EQ(c.t_backup_us, sample.t_backup_us);
  EXPECT_DOUBLE_EQ(c.t_dnn_cpu_us, sample.t_dnn_cpu_us);
  EXPECT_DOUBLE_EQ(c.t_shared_access_us, sample.t_shared_access_us);
  EXPECT_DOUBLE_EQ(c.t_handoff_us, sample.t_handoff_us);
  EXPECT_DOUBLE_EQ(c.mean_depth, sample.mean_depth);
  EXPECT_EQ(c.tree_bytes, sample.tree_bytes);
  EXPECT_DOUBLE_EQ(c.cache_hit_rate, 0.3 * 0.5);
  EXPECT_DOUBLE_EQ(c.tt_graft_rate, 0.3 * 0.2);

  // From the second observation on, every cost blends.
  ctl.observe_costs(make_costs(5.0, 170.0, 0.5));
  EXPECT_DOUBLE_EQ(ctl.costs().t_dnn_cpu_us, 0.7 * 70.0 + 0.3 * 170.0);
}

TEST(AdaptiveController, HandoffSurvivesSharedTreeMoves) {
  // Only a local-tree move over the CPU pool measures the hand-off. The
  // shared-tree moves that follow carry no hand-off sample, and must not
  // fold a 0 into it: otherwise the controller forgets why it left local
  // tree and switches straight back.
  AdaptiveConfig cfg = trusting_config({3});
  cfg.ewma_alpha = 0.3;
  // No margin: without the hand-off, local tree (70 us / 3) would beat
  // shared tree ((7 + 70) us / 3) and the controller would switch back.
  cfg.hysteresis = 0.0;
  AdaptiveController ctl(flat_hardware(), ProfiledCosts{}, cfg,
                         Scheme::kLocalTree, 3);
  SearchMetrics local;
  local.playouts = 800;
  local.workers = 3;
  local.select_seconds = 800 * 5e-6;
  local.expand_seconds = 800 * 1.5e-6;
  local.backup_seconds = 800 * 0.5e-6;
  local.expansions = 800;
  local.eval_requests = 800;
  local.eval_seconds = 800 * 70e-6;
  local.handoff_seconds = 800 * 30e-6;
  local.handoff_requests = 800;
  local.sum_depth = 800 * 4.0;
  ctl.observe(local);
  EXPECT_NEAR(ctl.costs().t_handoff_us, 30.0, 1e-9);
  EXPECT_TRUE(ctl.plan().switched);
  EXPECT_EQ(ctl.scheme(), Scheme::kSharedTree);

  SearchMetrics shared = local;
  shared.handoff_seconds = 0.0;
  shared.handoff_requests = 0;
  for (int move = 0; move < 5; ++move) {
    ctl.observe(shared);
    EXPECT_FALSE(ctl.plan().switched) << "move " << move;
    EXPECT_NEAR(ctl.costs().t_handoff_us, 30.0, 1e-9) << "move " << move;
  }
  EXPECT_EQ(ctl.scheme(), Scheme::kSharedTree);
}

TEST(AdaptiveController, HysteresisPreventsFlappingOnNoisyCosts) {
  const HardwareSpec hw = flat_hardware();
  // Near the N=8 crossover: local wave 8·(I+1) ≈ shared wave 8·A + I+1 + D
  // with I = select+expand+backup, A = 1, D = 700.
  const double base_select = 100.2;  // I ≈ 101.2 → both waves ≈ 809.5 µs
  const ProfiledCosts base = make_costs(base_select, 700.0, 1.0);

  AdaptiveController ctl(hw, base, trusting_config({8}), Scheme::kLocalTree,
                         8);
  // ±5% oscillation around the crossover: predicted gains stay inside the
  // 10% hysteresis margin, so the controller must not flap.
  for (int move = 0; move < 20; ++move) {
    const double wiggle = move % 2 == 0 ? 1.05 : 0.95;
    ctl.observe_costs(make_costs(base_select * wiggle, 700.0, 1.0));
    ctl.plan();
  }
  EXPECT_EQ(ctl.switches(), 0);
  EXPECT_EQ(ctl.scheme(), Scheme::kLocalTree);

  // A decisive shift still gets through immediately.
  ctl.observe_costs(make_costs(base_select * 4.0, 700.0, 1.0));
  const AdaptivePlan plan = ctl.plan();
  EXPECT_TRUE(plan.switched);
  EXPECT_EQ(ctl.scheme(), Scheme::kSharedTree);
}

TEST(AdaptiveController, DwellBlocksBackToBackSwitches) {
  const HardwareSpec hw = flat_hardware();
  const ProfiledCosts local_best = make_costs(5.0, 800.0, 2.0);
  const ProfiledCosts shared_best = make_costs(60.0, 100.0, 2.0);
  AdaptiveConfig cfg = trusting_config({8});
  cfg.dwell_moves = 3;
  AdaptiveController ctl(hw, local_best, cfg, Scheme::kLocalTree, 8);

  ctl.observe_costs(shared_best);
  EXPECT_FALSE(ctl.plan().switched);  // dwell not yet satisfied
  ctl.observe_costs(shared_best);
  EXPECT_FALSE(ctl.plan().switched);
  ctl.observe_costs(shared_best);
  EXPECT_FALSE(ctl.plan().switched);
  ctl.observe_costs(shared_best);
  EXPECT_TRUE(ctl.plan().switched);  // 4th move clears dwell_moves = 3
  EXPECT_EQ(ctl.scheme(), Scheme::kSharedTree);
}

TEST(AdaptiveController, VirtualLossTracksInflightParallelism) {
  // WU-UCT follow-up: the VL constant scales with the in-flight rollouts of
  // the candidate configuration, floored at min_virtual_loss and capped at
  // the base constant; at in-flight <= 1 the unbiased visit-tracking
  // flavour is recommended.
  AdaptiveConfig cfg = trusting_config({8});
  cfg.base_virtual_loss = 4.0f;
  AdaptiveController ctl(flat_hardware(), make_costs(5.0, 800.0, 2.0), cfg,
                         Scheme::kLocalTree, 8);  // base in-flight = 8
  EXPECT_FLOAT_EQ(ctl.planned_virtual_loss(Scheme::kLocalTree, 8, 1), 4.0f);
  EXPECT_FLOAT_EQ(ctl.planned_virtual_loss(Scheme::kSharedTree, 4, 4), 2.0f);
  EXPECT_FLOAT_EQ(ctl.planned_virtual_loss(Scheme::kSerial, 1, 1), 0.5f);
  EXPECT_EQ(ctl.planned_vl_mode(Scheme::kSerial, 1, 1),
            VirtualLossMode::kVisitTracking);
  EXPECT_EQ(ctl.planned_vl_mode(Scheme::kSharedTree, 8, 8),
            VirtualLossMode::kConstant);
}

TEST(AdaptiveController, GpuVirtualLossShrinksWithBatchSize) {
  // On the accelerator platform the local-tree in-flight window is
  // dispatch-granular: min(N, B). Shrinking B at fixed N shrinks VL.
  AdaptiveConfig cfg = trusting_config({8});
  cfg.gpu = true;
  cfg.base_virtual_loss = 4.0f;
  AdaptiveController ctl(flat_hardware(), make_costs(5.0, 800.0, 2.0), cfg,
                         Scheme::kLocalTree, 8, /*batch_size=*/8);
  EXPECT_FLOAT_EQ(ctl.planned_virtual_loss(Scheme::kLocalTree, 8, 8), 4.0f);
  EXPECT_FLOAT_EQ(ctl.planned_virtual_loss(Scheme::kLocalTree, 8, 4), 2.0f);
  EXPECT_FLOAT_EQ(ctl.planned_virtual_loss(Scheme::kLocalTree, 8, 2), 1.0f);
  // plan() reports the VL of whatever configuration it committed.
  ctl.observe_costs(make_costs(5.0, 800.0, 2.0));
  const AdaptivePlan plan = ctl.plan();
  EXPECT_FLOAT_EQ(plan.virtual_loss,
                  ctl.planned_virtual_loss(ctl.scheme(), ctl.workers(),
                                           ctl.batch_size()));
  EXPECT_EQ(plan.vl_mode, ctl.planned_vl_mode(ctl.scheme(), ctl.workers(),
                                              ctl.batch_size()));
}

TEST(SearchEngine, AppliesVirtualLossFloorForSerialDriver) {
  // A serial driver has one rollout in flight; when the configured VL
  // constant was tuned for a larger in-flight reference (base_inflight, the
  // MatchService template case: serial per-game engines whose template came
  // from a parallel tuning), the engine installs the floored constant and
  // the unbiased visit-tracking flavour at construction.
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());

  EngineConfig ec;
  ec.mcts.num_playouts = 20;
  ec.mcts.virtual_loss = 4.0f;  // seeds adaptive.base_virtual_loss
  ec.scheme = Scheme::kSerial;
  ec.adaptive.base_inflight = 8;  // the constant was tuned for 8 in flight
  ec.adaptive.worker_candidates = {1};
  SearchEngine engine(ec, {.evaluator = &eval});
  EXPECT_FLOAT_EQ(engine.virtual_loss(), 0.5f);  // 4.0 × 1/8
  EXPECT_EQ(engine.vl_mode(), VirtualLossMode::kVisitTracking);
}

TEST(SearchEngine, GpuSwitchToTunedBatchShrinksVirtualLoss) {
  // The paper-shaped GPU-platform switch: shared-tree at N=64 (batch = N)
  // loses to local-tree with the Algorithm-4 tuned B* < N once in-tree
  // costs are cheap — and the re-tune must shrink VL along with the
  // dispatch granularity (in-flight = min(N, B*)).
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator batch(backend, /*threshold=*/1, /*streams=*/1,
                            /*stale_flush_us=*/300.0);

  EngineConfig ec;
  ec.mcts.num_playouts = 64;
  ec.mcts.virtual_loss = 4.0f;
  ec.scheme = Scheme::kSharedTree;
  ec.workers = 64;
  ec.batch_threshold = 64;
  ec.hw = flat_hardware();
  ec.seed_costs = make_costs(3.0, 800.0, 2.0);
  ec.adaptive = trusting_config({64});
  ec.adaptive.gpu = true;
  SearchEngine engine(ec, {.batch = &batch});
  EXPECT_FLOAT_EQ(engine.virtual_loss(), 4.0f);  // shared(64) = the base

  engine.set_cost_feed([](int) { return make_costs(3.0, 800.0, 2.0); });
  engine.search(g);
  ASSERT_EQ(engine.switch_count(), 1);
  ASSERT_EQ(engine.scheme(), Scheme::kLocalTree);
  const EngineMoveStats& ms = engine.move_log().back();
  EXPECT_LT(ms.next_batch_threshold, 64);  // Algorithm 4 picked B* < N
  EXPECT_LT(engine.virtual_loss(), 4.0f);  // and VL shrank with it
  EXPECT_FLOAT_EQ(engine.virtual_loss(),
                  std::max(0.5f, 4.0f * ms.next_batch_threshold / 64.0f));
  EXPECT_FLOAT_EQ(ms.virtual_loss, 4.0f);
  EXPECT_FLOAT_EQ(ms.next_virtual_loss, engine.virtual_loss());
}

TEST(AsyncBatchThreshold, RuntimeRetuneFlushesAndApplies) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator batch(backend, /*threshold=*/4, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  std::vector<float> input(g.encode_size(), 0.0f);

  // Two requests sit below the threshold of 4...
  auto f1 = batch.submit_future(input.data());
  auto f2 = batch.submit_future(input.data());
  // ...until the re-tune dispatches the partial batch and lowers B.
  batch.set_batch_threshold(2);
  f1.get();
  f2.get();
  EXPECT_EQ(batch.batch_threshold(), 2);

  // New batches dispatch at the new threshold without a flush.
  auto f3 = batch.submit_future(input.data());
  auto f4 = batch.submit_future(input.data());
  f3.get();
  f4.get();
  const BatchQueueStats stats = batch.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_GE(stats.threshold_dispatches, 1u);
  batch.drain();
}

TEST(SearchEngine, AppliesSharedTreeBatchConvention) {
  // §3.3: shared-tree batch threshold is always N — the engine re-tunes the
  // queue to the worker count when it installs a shared-tree driver.
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator batch(backend, /*threshold=*/1, /*streams=*/1,
                            /*stale_flush_us=*/300.0);

  EngineConfig ec;
  ec.mcts.num_playouts = 40;
  ec.scheme = Scheme::kSharedTree;
  ec.workers = 8;
  ec.adapt = false;
  SearchEngine engine(ec, {.batch = &batch});
  EXPECT_EQ(engine.batch_threshold(), 8);
}

TEST(SearchEngine, EpisodeLogsRuntimeSwitchFromSyntheticCostFeed) {
  // Acceptance path: a self-play episode through the engine, with a
  // synthetic cost feed standing in for the measured per-move metrics,
  // must log a runtime scheme switch and surface it via EpisodeStats.
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());

  EngineConfig ec;
  ec.mcts.num_playouts = 80;
  ec.scheme = Scheme::kLocalTree;
  ec.workers = 8;  // the Eq. 3/5 crossover needs enough parallelism to bite
  ec.hw = flat_hardware();
  ec.seed_costs = make_costs(5.0, 800.0, 2.0);
  ec.adaptive = trusting_config({8});
  SearchEngine engine(ec, {.evaluator = &eval});
  // Moves 0–1 look eval-bound (local-tree correct); from move 2 the live
  // costs turn in-tree-bound, which Eq. 3 vs Eq. 5 resolves to shared-tree.
  engine.set_cost_feed([](int move) {
    return move < 2 ? make_costs(5.0, 800.0, 2.0)
                    : make_costs(60.0, 100.0, 2.0);
  });

  ReplayBuffer buffer(4096);
  SelfPlayConfig sp;
  sp.max_moves = 6;
  sp.temperature_moves = 0;  // deterministic argmax play
  const EpisodeStats stats = run_self_play_episode(g, engine, buffer, sp);

  EXPECT_GE(stats.scheme_switches, 1);
  ASSERT_EQ(stats.per_move.size(), static_cast<std::size_t>(stats.moves));
  bool saw_switch_to_shared = false;
  for (const EngineMoveStats& m : stats.per_move) {
    if (m.switched && m.next_scheme == Scheme::kSharedTree) {
      saw_switch_to_shared = true;
    }
  }
  EXPECT_TRUE(saw_switch_to_shared);
  EXPECT_EQ(engine.scheme(), Scheme::kSharedTree);

  // Tree reuse ran alongside adaptation: every move after the first starts
  // from the played move's subtree, including across the scheme switch.
  EXPECT_EQ(stats.reused_moves, stats.moves - 1);
  EXPECT_GT(stats.reused_visits, 0);
}

TEST(SearchEngine, ReuseDisabledMatchesBareDriver) {
  // With reuse and adaptation off, the engine is a thin wrapper: identical
  // results to a standalone serial search on the same positions.
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig cfg;
  cfg.num_playouts = 150;
  cfg.seed = 9;

  EngineConfig ec;
  ec.mcts = cfg;
  ec.scheme = Scheme::kSerial;
  ec.reuse_tree = false;
  ec.adapt = false;
  SearchEngine engine(ec, {.evaluator = &eval});
  SerialMcts bare(cfg, eval);

  auto env = g.clone();
  for (int move = 0; move < 3; ++move) {
    const SearchResult re = engine.search(*env);
    const SearchResult rb = bare.search(*env);
    ASSERT_EQ(re.action_prior, rb.action_prior) << "move " << move;
    env->apply(rb.best_action);
    engine.advance(rb.best_action);
  }
}

}  // namespace
}  // namespace apm

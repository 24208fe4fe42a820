// Performance-model tests: Eq. 3–6 structural properties, the adaptive
// decision rule, Algorithm 4 on randomly generated V-sequences
// (property-based, parameterized), and the design-time profiler.

#include <gtest/gtest.h>

#include <cmath>

#include "perfmodel/batch_search.hpp"
#include "perfmodel/perf_model.hpp"
#include "perfmodel/profiler.hpp"
#include "perfmodel/workflow.hpp"

namespace apm {
namespace {

ProfiledCosts paper_like_costs() {
  ProfiledCosts c;
  c.t_select_us = 3.0;
  c.t_expand_us = 1.5;
  c.t_backup_us = 0.5;
  c.t_dnn_cpu_us = 600.0;
  c.mean_depth = 4.0;
  c.t_shared_access_us = 0.12 * 4.0;
  c.tree_bytes = 9 << 20;  // fits a 256 MB LLC
  return c;
}

TEST(PerfModel, SharedCpuWaveGrowsLinearlyInN) {
  PerfModel m(HardwareSpec{}, paper_like_costs());
  // Eq. 3: the only N-dependence is the access term.
  const double d1 = m.shared_cpu_wave_us(2) - m.shared_cpu_wave_us(1);
  const double d2 = m.shared_cpu_wave_us(64) - m.shared_cpu_wave_us(63);
  EXPECT_NEAR(d1, d2, 1e-9);
  EXPECT_NEAR(d1, paper_like_costs().t_shared_access_us, 1e-9);
}

TEST(PerfModel, LocalCpuWaveIsMaxOfIntreeAndDnn) {
  const ProfiledCosts c = paper_like_costs();
  PerfModel m(HardwareSpec{}, c);
  // Small N: DNN dominates; the wave is flat.
  EXPECT_NEAR(m.local_cpu_wave_us(1), c.t_dnn_cpu_us, 1.0);
  EXPECT_NEAR(m.local_cpu_wave_us(2), c.t_dnn_cpu_us, 1.0);
  // Large N: the serial in-tree term dominates and grows with N.
  EXPECT_GT(m.local_cpu_wave_us(512), m.local_cpu_wave_us(256) * 1.5);
}

TEST(PerfModel, LocalCpuWaveIncludesHandoff) {
  // A CPU net at ~70 us per evaluation and 7 us of in-tree work per
  // iteration. Each local-tree request also pays ~30 us of thread hand-offs
  // (pool submit -> worker wake, completion push -> master wake), and with
  // N requests in flight that sits on every slot's cycle: local tree then
  // loses to shared tree at N = 3. Without the hand-off term Eq. 5 picks
  // local tree.
  HardwareSpec hw;
  hw.ddr_access_us = 0.0;
  hw.llc_access_us = 0.0;
  ProfiledCosts c;
  c.t_select_us = 5.0;
  c.t_expand_us = 1.5;
  c.t_backup_us = 0.5;
  c.t_dnn_cpu_us = 70.0;
  c.mean_depth = 4.0;
  c.t_shared_access_us = 0.2;
  c.t_handoff_us = 30.0;
  const PerfModel with_handoff(hw, c);
  EXPECT_NEAR(with_handoff.local_cpu_wave_us(3), 100.0, 1e-9);
  EXPECT_EQ(with_handoff.decide_cpu(3).scheme, Scheme::kSharedTree);

  c.t_handoff_us = 0.0;
  const PerfModel without(hw, c);
  EXPECT_NEAR(without.local_cpu_wave_us(3), 70.0, 1e-9);
  EXPECT_EQ(without.decide_cpu(3).scheme, Scheme::kLocalTree);
}

TEST(PerfModel, AmortizedSharedCpuDecreasesThenSaturates) {
  PerfModel m(HardwareSpec{}, paper_like_costs());
  EXPECT_GT(m.shared_cpu_us(1), m.shared_cpu_us(16));
  EXPECT_GT(m.shared_cpu_us(16), m.shared_cpu_us(64));
}

TEST(PerfModel, DecideCpuPicksTheMinimum) {
  PerfModel m(HardwareSpec{}, paper_like_costs());
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    const AdaptiveDecision d = m.decide_cpu(n);
    const double chosen = d.scheme == Scheme::kLocalTree
                              ? d.predicted_local_us
                              : d.predicted_shared_us;
    EXPECT_LE(chosen,
              std::min(d.predicted_local_us, d.predicted_shared_us) + 1e-9);
    EXPECT_GE(d.speedup_vs_worst, 1.0);
  }
}

TEST(PerfModel, LocalIntreeCheaperWhenCacheResident) {
  HardwareSpec hw;
  ProfiledCosts c = paper_like_costs();
  PerfModel fits(hw, c);
  EXPECT_LT(fits.local_intree_us(), fits.shared_intree_us());
  // A tree larger than LLC loses the advantage.
  c.tree_bytes = hw.llc_bytes * 2;
  PerfModel spills(hw, c);
  EXPECT_NEAR(spills.local_intree_us(), spills.shared_intree_us(), 1e-9);
}

TEST(PerfModel, Eq6TermsShapeTheVSequence) {
  PerfModel m(HardwareSpec{}, paper_like_costs());
  const int n = 64;
  // Endpoint behaviour of the V: B=1 is dominated by per-batch overhead,
  // B=n by batched compute; the interior minimum beats both.
  const BatchSearchResult found =
      find_min_batch(n, [&](int b) { return m.local_gpu_us(n, b); });
  EXPECT_LT(found.best_latency_us, m.local_gpu_us(n, 1));
  EXPECT_LE(found.best_latency_us, m.local_gpu_us(n, n));
  EXPECT_GT(found.best_batch, 1);
}

TEST(PerfModel, DecideGpuChoosesSharedAtModerateNAndLocalBeyond) {
  // With paper-like cost ratios the published crossover structure holds:
  // shared-tree (full batch) wins at N=16, tuned local-tree wins at 32/64.
  PerfModel m(HardwareSpec{}, paper_like_costs());
  const AdaptiveDecision d16 = m.decide_gpu(16);
  const AdaptiveDecision d64 = m.decide_gpu(64);
  EXPECT_LE(
      std::min(d16.predicted_shared_us, d16.predicted_local_us),
      d16.scheme == Scheme::kLocalTree ? d16.predicted_local_us
                                       : d16.predicted_shared_us);
  // The decision must always take the smaller predicted latency.
  for (int n : {4, 8, 16, 32, 64}) {
    const AdaptiveDecision d = m.decide_gpu(n);
    const double chosen = d.scheme == Scheme::kLocalTree
                              ? d.predicted_local_us
                              : d.predicted_shared_us;
    EXPECT_LE(chosen, d.predicted_shared_us + 1e-9);
    EXPECT_LE(chosen, d.predicted_local_us + 1e-9);
    if (d.scheme == Scheme::kSharedTree) {
      EXPECT_EQ(d.batch_size, n);
    }
  }
  (void)d64;
}

// --- Algorithm 4 property tests ---------------------------------------------

struct VSequenceCase {
  int n;
  std::uint64_t seed;
};

class FindMinProperty : public ::testing::TestWithParam<VSequenceCase> {};

TEST_P(FindMinProperty, MatchesExhaustiveScanOnRandomVSequences) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  // Build a strict V-sequence: descend to a random pivot, then ascend.
  const int pivot = 1 + static_cast<int>(rng.below(n));
  std::vector<double> t(static_cast<std::size_t>(n) + 1);
  double v = 1000.0 + rng.uniform() * 100;
  for (int b = 1; b <= n; ++b) {
    if (b <= pivot) {
      v -= 1.0 + rng.uniform() * 20.0;
    } else {
      v += 1.0 + rng.uniform() * 20.0;
    }
    t[b] = v;
  }
  auto probe = [&t](int b) { return t[b]; };

  const BatchSearchResult fast = find_min_batch(n, probe);
  const BatchSearchResult full = scan_all_batches(n, probe);
  EXPECT_EQ(fast.best_batch, full.best_batch) << "pivot=" << pivot;
  EXPECT_DOUBLE_EQ(fast.best_latency_us, full.best_latency_us);
  // O(log N) probes: the search runs at most ceil(log2 n) rounds of 2.
  const int bound = 2 * (1 + static_cast<int>(std::ceil(std::log2(n)))) + 2;
  EXPECT_LE(fast.probes, bound);
}

INSTANTIATE_TEST_SUITE_P(
    RandomVSequences, FindMinProperty,
    ::testing::Values(VSequenceCase{2, 1}, VSequenceCase{3, 2},
                      VSequenceCase{8, 3}, VSequenceCase{16, 4},
                      VSequenceCase{16, 5}, VSequenceCase{64, 6},
                      VSequenceCase{64, 7}, VSequenceCase{64, 8},
                      VSequenceCase{128, 9}, VSequenceCase{1024, 10}),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_s";
      name += std::to_string(param_info.param.seed);
      return name;
    });

TEST(FindMin, HandlesMonotonicSequences) {
  // Purely decreasing → min at n; purely increasing → min at 1.
  auto decreasing = [](int b) { return 100.0 - b; };
  auto increasing = [](int b) { return 100.0 + b; };
  EXPECT_EQ(find_min_batch(32, decreasing).best_batch, 32);
  EXPECT_EQ(find_min_batch(32, increasing).best_batch, 1);
}

TEST(FindMin, SingleElementDomain) {
  EXPECT_EQ(find_min_batch(1, [](int) { return 5.0; }).best_batch, 1);
}

// --- profiler -----------------------------------------------------------------

TEST(Profiler, ReturnsPositiveCosts) {
  AlgoSpec algo;
  algo.fanout = 25;
  algo.depth = 10;
  algo.num_playouts = 200;
  const ProfiledCosts costs = profile_intree_costs(algo, HardwareSpec{}, 200);
  EXPECT_GT(costs.t_select_us, 0.0);
  EXPECT_GT(costs.t_backup_us, 0.0);
  EXPECT_GT(costs.t_expand_us, 0.0);
  EXPECT_GT(costs.mean_depth, 0.0);
  EXPECT_GT(costs.tree_bytes, 0u);
}

TEST(Profiler, DnnLatencyTracksEvaluatorCost) {
  AlgoSpec algo;
  algo.fanout = 25;
  SyntheticEvaluator cheap(25, 4 * 15 * 15, 0.0);
  SyntheticEvaluator pricey(25, 4 * 15 * 15, 300.0);
  const double cheap_us = profile_dnn_us(cheap, algo, 8);
  const double pricey_us = profile_dnn_us(pricey, algo, 8);
  EXPECT_GT(pricey_us, cheap_us + 200.0);
}

TEST(Workflow, EndToEndProducesConsistentDecisions) {
  WorkflowConfig cfg;
  cfg.algo.fanout = 25;
  cfg.algo.depth = 10;
  cfg.algo.num_playouts = 200;
  cfg.worker_counts = {1, 4, 16, 64};
  SyntheticEvaluator dnn(25, 4 * 15 * 15, 100.0);
  const WorkflowResult result = run_config_workflow(cfg, dnn);
  ASSERT_EQ(result.cpu_decisions.size(), 4u);
  ASSERT_EQ(result.gpu_decisions.size(), 4u);
  for (const auto& d : result.gpu_decisions) {
    EXPECT_GE(d.batch_size, 1);
    EXPECT_LE(d.batch_size, d.workers);
  }
  // decision() picks the nearest configured point.
  EXPECT_EQ(result.decision(false, 5).workers, 4);
  EXPECT_EQ(result.decision(true, 100).workers, 64);
}

}  // namespace
}  // namespace apm

// Micro-benchmarks for the in-tree operations — the quantities the §4.2
// profiler feeds into Eqs. 3–6 (T_select, T_backup, expansion cost, node
// allocation).

#include <benchmark/benchmark.h>

#include "eval/evaluator.hpp"
#include "mcts/selection.hpp"
#include "mcts/serial.hpp"
#include "mcts/transposition.hpp"
#include "perfmodel/synthetic_game.hpp"

namespace {

using namespace apm;

// Builds a tree of the Gomoku shape (fanout 225) with `playouts` rollouts.
struct PreparedTree {
  MctsConfig cfg;
  SearchTree tree;
  SyntheticGame game{225, 32};
  SyntheticEvaluator eval{225, 4 * 15 * 15, 0.0};

  explicit PreparedTree(int playouts) {
    cfg.num_playouts = playouts;
    SerialMcts search(cfg, eval);
    (void)search.search(game);  // warm the arena
  }
};

void BM_SelectionDescent(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  SyntheticGame game(fanout, 32);
  SyntheticEvaluator eval(fanout, 64, 0.0);
  MctsConfig cfg;
  cfg.num_playouts = 512;
  SerialMcts warm(cfg, eval);
  (void)warm.search(game);

  // Measure select+expand+backup amortized over fresh searches.
  for (auto _ : state) {
    SerialMcts search(cfg, eval);
    benchmark::DoNotOptimize(search.search(game));
  }
  state.counters["us_per_iteration"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * cfg.num_playouts,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SelectionDescent)->Arg(25)->Arg(81)->Arg(225)
    ->Unit(benchmark::kMillisecond);

void BM_ExpandFanout(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  MctsConfig cfg;
  SearchTree tree;
  InTreeOps ops(tree, cfg);
  SyntheticGame game(fanout, 8);
  std::vector<float> policy(static_cast<std::size_t>(fanout),
                            1.0f / fanout);
  for (auto _ : state) {
    state.PauseTiming();
    tree.reset();
    Node& root = tree.node(tree.root());
    ExpandState expected = ExpandState::kLeaf;
    root.state.compare_exchange_strong(expected, ExpandState::kExpanding);
    state.ResumeTiming();
    ops.expand(tree.root(), game, policy);
  }
}
BENCHMARK(BM_ExpandFanout)->Arg(25)->Arg(225)->Arg(361);

void BM_UctScan(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  MctsConfig cfg;
  SearchTree tree;
  InTreeOps ops(tree, cfg);
  SyntheticGame game(fanout, 8);
  std::vector<float> policy(static_cast<std::size_t>(fanout),
                            1.0f / fanout);
  Node& root = tree.node(tree.root());
  ExpandState expected = ExpandState::kLeaf;
  root.state.compare_exchange_strong(expected, ExpandState::kExpanding);
  ops.expand(tree.root(), game, policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.select_edge(tree.root()));
  }
}
BENCHMARK(BM_UctScan)->Arg(25)->Arg(225)->Arg(361);

void BM_NodeAllocation(benchmark::State& state) {
  SearchTree tree;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.allocate_node(0, kNullEdge));
    if (tree.node_count() > 3'000'000) {
      state.PauseTiming();
      tree.reset();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_NodeAllocation);

void BM_BackupDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  MctsConfig cfg;
  SearchTree tree;
  InTreeOps ops(tree, cfg);
  // Build a single chain of `depth` nodes.
  NodeId node = tree.root();
  for (int d = 0; d < depth; ++d) {
    Node& n = tree.node(node);
    ExpandState expected = ExpandState::kLeaf;
    n.state.compare_exchange_strong(expected, ExpandState::kExpanding);
    const EdgeId e = tree.allocate_edges(1);
    tree.edge(e).action = 0;
    tree.edge(e).prior = 1.0f;
    n.first_edge = e;
    n.num_edges = 1;
    n.state.store(ExpandState::kExpanded);
    node = ops.get_or_create_child(node, e);
  }
  for (auto _ : state) {
    ops.backup(node, 0.5f);
  }
}
BENCHMARK(BM_BackupDepth)->Arg(4)->Arg(16)->Arg(64);

// --- transposition table (ISSUE 7) ---------------------------------------

constexpr std::uint64_t kKeyStride = 0x9E3779B97F4A7C15ULL;

void fill_tt(TranspositionTable& tt, int edges_per_entry,
             std::uint64_t entries) {
  std::vector<TtEdge> edges(static_cast<std::size_t>(edges_per_entry));
  for (int i = 0; i < edges_per_entry; ++i) {
    edges[i].action = i;
    edges[i].prior = 1.0f / static_cast<float>(edges_per_entry);
  }
  for (std::uint64_t k = 1; k <= entries; ++k) {
    tt.store(k * kKeyStride, 0.1f, 4, edges.data(), edges_per_entry, false);
  }
}

// Arg: 1 = always-hit probes, 0 = always-miss probes.
void BM_TtProbe(benchmark::State& state) {
  const bool hit = state.range(0) != 0;
  constexpr std::uint64_t kEntries = 4096;
  TtConfig cfg;
  cfg.capacity = 1 << 14;
  cfg.ways = 4;
  cfg.max_edges = 32;
  TranspositionTable tt(cfg);
  fill_tt(tt, 32, kEntries);
  TtView scratch;
  std::uint64_t k = 0;
  for (auto _ : state) {
    k = k % kEntries + 1;
    const std::uint64_t key = k * kKeyStride + (hit ? 0 : 1);
    benchmark::DoNotOptimize(tt.probe(key, scratch));
  }
}
BENCHMARK(BM_TtProbe)->Arg(1)->Arg(0);

// Arg: table capacity — small tables keep the eviction scan hot.
void BM_TtStore(benchmark::State& state) {
  TtConfig cfg;
  cfg.capacity = static_cast<std::size_t>(state.range(0));
  cfg.ways = 4;
  cfg.max_edges = 32;
  TranspositionTable tt(cfg);
  TtEdge edges[32];
  for (int i = 0; i < 32; ++i) {
    edges[i].action = i;
    edges[i].prior = 1.0f / 32.0f;
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    ++k;
    tt.store(k * kKeyStride, 0.1f, 4, edges, 32, false);
  }
}
BENCHMARK(BM_TtStore)->Arg(1 << 10)->Arg(1 << 16);

// A graft is the TT's replacement for expand+encode+eval: installing a
// stored hit onto a freshly claimed leaf. Compare against BM_ExpandFanout
// at the same fanout for the pure in-tree delta.
void BM_TtGraft(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  MctsConfig cfg;
  SearchTree tree;
  InTreeOps ops(tree, cfg);
  TtView hit;
  hit.value = 0.25f;
  hit.edges.resize(static_cast<std::size_t>(fanout));
  for (int i = 0; i < fanout; ++i) {
    hit.edges[static_cast<std::size_t>(i)].action = i;
    hit.edges[static_cast<std::size_t>(i)].prior =
        1.0f / static_cast<float>(fanout);
  }
  for (auto _ : state) {
    state.PauseTiming();
    tree.reset();
    Node& root = tree.node(tree.root());
    ExpandState expected = ExpandState::kLeaf;
    root.state.compare_exchange_strong(expected, ExpandState::kExpanding);
    state.ResumeTiming();
    ops.expand_from_tt(tree.root(), 0x1234ULL, hit);
  }
}
BENCHMARK(BM_TtGraft)->Arg(25)->Arg(225)->Arg(361);

}  // namespace

BENCHMARK_MAIN();

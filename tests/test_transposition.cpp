// Transposition-table tests (ISSUE 7): unit behaviour of the bucketed TT
// (round trips, announce/pending coalescing, merge folding, replacement
// scoring, generation aging, inflight pinning), graft-vs-cold-start search
// equivalence on Connect4, driver coverage for the
// LocalTree batched-probe path, a SharedTree contended stress run over a
// deliberately tiny table (the TSan target), and the SearchEngine glue:
// archive-on-advance, epoch/generation lockstep, background-compaction
// determinism, and reset_game() carry-over policy.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "mcts/engine.hpp"
#include "mcts/factory.hpp"
#include "mcts/transposition.hpp"

namespace apm {
namespace {

TtConfig table_config(std::size_t capacity, int ways, int max_edges = 8) {
  TtConfig cfg;
  cfg.enabled = true;
  cfg.capacity = capacity;
  cfg.ways = ways;
  cfg.max_edges = max_edges;
  return cfg;
}

TtEdge make_edge(int action, float prior, std::int64_t visits = 0,
                 double value_sum = 0.0) {
  TtEdge e;
  e.action = action;
  e.prior = prior;
  e.visits = visits;
  e.value_sum = value_sum;
  return e;
}

// --- unit behaviour ------------------------------------------------------

TEST(TranspositionTable, StoreThenProbeRoundTrips) {
  TranspositionTable tt(table_config(64, 4));
  const TtEdge edges[2] = {make_edge(0, 0.25f), make_edge(3, 0.75f)};
  tt.store(0xABCD1234ULL, 0.5f, 3, edges, 2, false);

  TtView v;
  ASSERT_EQ(tt.probe(0xABCD1234ULL, v), TtProbeResult::kHit);
  EXPECT_FLOAT_EQ(v.value, 0.5f);
  EXPECT_EQ(v.depth, 3);
  EXPECT_EQ(v.inflight, 0);
  EXPECT_EQ(v.visits, 0);
  ASSERT_EQ(v.edges.size(), 2u);
  EXPECT_EQ(v.edges[0].action, 0);
  EXPECT_FLOAT_EQ(v.edges[0].prior, 0.25f);
  EXPECT_EQ(v.edges[1].action, 3);
  EXPECT_FLOAT_EQ(v.edges[1].prior, 0.75f);

  EXPECT_EQ(tt.probe(0x9999ULL, v), TtProbeResult::kMiss);
  // Key 0 is the "no key" sentinel and never matches anything.
  EXPECT_EQ(tt.probe(0, v), TtProbeResult::kMiss);

  const TtStatsSnapshot s = tt.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(TranspositionTable, AnnounceMakesConcurrentProbesPending) {
  TranspositionTable tt(table_config(64, 4));
  const std::uint64_t key = 0xFEEDULL;

  ASSERT_TRUE(tt.announce(key));
  TtView v;
  EXPECT_EQ(tt.probe(key, v), TtProbeResult::kPending);

  const TtEdge edges[1] = {make_edge(2, 1.0f)};
  tt.store(key, -0.25f, 1, edges, 1, /*release_inflight=*/true);
  ASSERT_EQ(tt.probe(key, v), TtProbeResult::kHit);
  EXPECT_EQ(v.inflight, 0);
  EXPECT_FLOAT_EQ(v.value, -0.25f);
  EXPECT_EQ(tt.stats().pending, 1u);
}

TEST(TranspositionTable, SecondStoreOfSamePositionMergesVisitMass) {
  TranspositionTable tt(table_config(64, 4));
  const std::uint64_t key = 0xBEEFULL;
  const TtEdge first[2] = {make_edge(1, 0.6f), make_edge(4, 0.4f)};
  tt.store(key, 0.1f, 2, first, 2, false);

  // The archive pass re-stores the same position with live visit mass; the
  // memo (priors/value) is kept, the mass folds in.
  const TtEdge again[2] = {make_edge(1, 0.9f, 5, 2.5),
                           make_edge(4, 0.1f, 3, -1.0)};
  tt.store(key, 0.9f, 1, again, 2, false);

  TtView v;
  ASSERT_EQ(tt.probe(key, v), TtProbeResult::kHit);
  EXPECT_FLOAT_EQ(v.value, 0.1f);  // original memo survives
  EXPECT_EQ(v.visits, 8);
  EXPECT_EQ(v.depth, 1);  // min depth wins
  ASSERT_EQ(v.edges.size(), 2u);
  EXPECT_FLOAT_EQ(v.edges[0].prior, 0.6f);
  EXPECT_EQ(v.edges[0].visits, 5);
  EXPECT_DOUBLE_EQ(v.edges[0].value_sum, 2.5);
  EXPECT_EQ(v.edges[1].visits, 3);
  EXPECT_EQ(tt.stats().merges, 1u);
  EXPECT_EQ(tt.stats().entries, 1u);
}

TEST(TranspositionTable, OversizedFanoutIsSkippedAndFreesPlaceholder) {
  TranspositionTable tt(table_config(64, 4, /*max_edges=*/4));
  const std::uint64_t key = 0xD00DULL;
  ASSERT_TRUE(tt.announce(key));

  // Five edges exceed max_edges: nothing is stored, the announce mark is
  // released, and the dead placeholder's way is freed.
  std::vector<TtEdge> edges;
  for (int a = 0; a < 5; ++a) edges.push_back(make_edge(a, 0.2f));
  tt.store(key, 0.0f, 0, edges.data(), 5, /*release_inflight=*/true);

  TtView v;
  EXPECT_EQ(tt.probe(key, v), TtProbeResult::kMiss);
  EXPECT_EQ(tt.stats().skipped_fanout, 1u);
  EXPECT_EQ(tt.stats().entries, 0u);
}

TEST(TranspositionTable, ReplacementEvictsLowestRetainScoreAfterAging) {
  // capacity == ways ⇒ a single bucket: every key contends for 4 ways.
  TranspositionTable tt(table_config(4, 4));
  const TtEdge e9[1] = {make_edge(0, 1.0f, 9, 0.0)};
  const TtEdge e0[1] = {make_edge(0, 1.0f, 0, 0.0)};
  tt.store(101, 0.0f, 2, e9, 1, false);
  tt.store(202, 0.0f, 2, e9, 1, false);
  tt.store(303, 0.0f, 2, e9, 1, false);
  tt.store(404, 0.0f, 2, e0, 1, false);  // lowest visit mass → the victim

  // Fresh entries outscore nothing yet; a new store is dropped.
  tt.store(505, 0.0f, 2, e0, 1, false);
  EXPECT_EQ(tt.stats().dropped, 1u);

  // Four compaction epochs later the stale mass has decayed and a fresh
  // store evicts exactly the weakest way.
  tt.set_generation(4);
  tt.store(606, 0.0f, 2, e0, 1, false);
  EXPECT_EQ(tt.stats().replacements, 1u);

  TtView v;
  EXPECT_EQ(tt.probe(606, v), TtProbeResult::kHit);
  EXPECT_EQ(tt.probe(404, v), TtProbeResult::kMiss);  // evicted
  EXPECT_EQ(tt.probe(101, v), TtProbeResult::kHit);   // heavy ways survive
  EXPECT_EQ(tt.probe(202, v), TtProbeResult::kHit);
  EXPECT_EQ(tt.probe(303, v), TtProbeResult::kHit);
  EXPECT_EQ(tt.stats().entries, 4u);
}

TEST(TranspositionTable, NeverEvictsInflightEntries) {
  TranspositionTable tt(table_config(4, 4));
  for (std::uint64_t key = 1; key <= 4; ++key) ASSERT_TRUE(tt.announce(key));

  // Bucket full of announced placeholders: a store of a fifth key finds no
  // admissible victim and is dropped rather than stomping pending work.
  const TtEdge e[1] = {make_edge(0, 1.0f, 100, 0.0)};
  tt.set_generation(10);  // even heavy aging never exposes inflight ways
  tt.store(55, 0.0f, 0, e, 1, false);
  EXPECT_EQ(tt.stats().dropped, 1u);

  TtView v;
  EXPECT_EQ(tt.probe(55, v), TtProbeResult::kMiss);
  EXPECT_EQ(tt.probe(1, v), TtProbeResult::kPending);
}

TEST(TranspositionTable, MaxAgeTreatsStaleEntriesAsMisses) {
  TtConfig cfg = table_config(64, 4);
  cfg.max_age = 2;
  TranspositionTable tt(cfg);
  const TtEdge e[1] = {make_edge(0, 1.0f)};
  tt.store(0xAAAULL, 0.0f, 0, e, 1, false);

  TtView v;
  tt.set_generation(2);  // age 2 == max_age: still live (and refreshed)
  EXPECT_EQ(tt.probe(0xAAAULL, v), TtProbeResult::kHit);

  tt.store(0xBBBULL, 0.0f, 0, e, 1, false);
  tt.set_generation(5);  // age 3 > max_age: aged out
  EXPECT_EQ(tt.probe(0xBBBULL, v), TtProbeResult::kMiss);
  // 0xAAA was refreshed to generation 2 by its hit — age 3 now, also out.
  EXPECT_EQ(tt.probe(0xAAAULL, v), TtProbeResult::kMiss);
}

TEST(TranspositionTable, ClearDropsEntriesButKeepsCounters) {
  TranspositionTable tt(table_config(64, 4));
  const TtEdge e[1] = {make_edge(0, 1.0f)};
  tt.store(7, 0.0f, 0, e, 1, false);
  tt.clear();
  TtView v;
  EXPECT_EQ(tt.probe(7, v), TtProbeResult::kMiss);
  EXPECT_EQ(tt.stats().entries, 0u);
  EXPECT_EQ(tt.stats().stores, 1u);  // cumulative counters survive
}

// --- graft vs cold start -------------------------------------------------

MctsConfig serial_config(int playouts) {
  MctsConfig cfg;
  cfg.num_playouts = playouts;
  cfg.c_puct = 3.0f;
  cfg.seed = 9;
  return cfg;
}

// A mid-game Connect4 position: column play transposes heavily (the same
// stone sets are reached through many drop orders).
Connect4 midgame_connect4() {
  Connect4 g;
  g.apply(3);
  g.apply(3);
  g.apply(2);
  return g;
}

TEST(TtGraft, PriorsGraftIsBitwiseEquivalentToColdStart) {
  const Connect4 g = midgame_connect4();
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  const MctsConfig cfg = serial_config(400);

  auto cold = make_search(Scheme::kSerial, cfg, 1, {.evaluator = &eval});
  const SearchResult r_cold = cold->search(g);

  TranspositionTable tt(table_config(1 << 14, 4, /*max_edges=*/8));
  auto warm = make_search(Scheme::kSerial, cfg, 1,
                          {.evaluator = &eval, .tt = &tt});
  // First pass populates the table (plus any in-search transpositions).
  const SearchResult r1 = warm->search(g);
  EXPECT_EQ(r1.action_prior, r_cold.action_prior);
  EXPECT_EQ(r1.best_action, r_cold.best_action);
  EXPECT_GT(r1.metrics.tt_stores, 0u);

  // Second pass over a cold tree but a hot table: under kPriors every
  // graft reproduces exactly what the evaluator would have produced, so
  // the search is bitwise-identical while skipping the backend entirely.
  auto warm2 = make_search(Scheme::kSerial, cfg, 1,
                           {.evaluator = &eval, .tt = &tt});
  const SearchResult r2 = warm2->search(g);
  EXPECT_EQ(r2.action_prior, r_cold.action_prior);
  EXPECT_EQ(r2.best_action, r_cold.best_action);
  EXPECT_FLOAT_EQ(r2.root_value, r_cold.root_value);
  EXPECT_GT(r2.metrics.tt_grafts, 0u);
  EXPECT_LT(r2.metrics.eval_requests, r_cold.metrics.eval_requests);
  // Every leaf claim either grafts or cold-expands; the split conserves.
  EXPECT_EQ(r2.metrics.expansions + r2.metrics.tt_grafts,
            r_cold.metrics.expansions);
}

TEST(TtGraft, LocalTreeProbesAndGrafts) {
  const Connect4 g = midgame_connect4();
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig cfg = serial_config(600);

  TranspositionTable tt(table_config(1 << 14, 4, /*max_edges=*/8));
  auto first = make_search(Scheme::kLocalTree, cfg, 4,
                           {.evaluator = &eval, .tt = &tt});
  const SearchResult r1 = first->search(g);
  EXPECT_GT(r1.metrics.tt_probes, 0u);
  EXPECT_GT(r1.metrics.tt_stores, 0u);

  auto second = make_search(Scheme::kLocalTree, cfg, 4,
                            {.evaluator = &eval, .tt = &tt});
  const SearchResult r2 = second->search(g);
  EXPECT_GT(r2.metrics.tt_grafts, 0u);
  EXPECT_LT(r2.metrics.eval_requests, r1.metrics.eval_requests);
  float total = 0.0f;
  for (float p : r2.action_prior) total += p;
  EXPECT_NEAR(total, 1.0f, 1e-4f);
}

// The TSan target: many workers hammering a tiny table forces contended
// probe/announce/store on the same buckets, plus constant eviction.
TEST(TtStress, SharedTreeOverTinyTable) {
  Gomoku g(5, 4);
  g.apply(12);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig cfg = serial_config(1500);
  cfg.virtual_loss = 1.0f;

  TranspositionTable tt(table_config(8, 2, /*max_edges=*/25));
  auto search = make_search(Scheme::kSharedTree, cfg, 8,
                            {.evaluator = &eval, .tt = &tt});
  const SearchResult r = search->search(g);

  ASSERT_GE(r.best_action, 0);
  float total = 0.0f;
  for (float p : r.action_prior) total += p;
  EXPECT_NEAR(total, 1.0f, 1e-4f);
  EXPECT_GT(r.metrics.tt_probes, 0u);
  const TtStatsSnapshot s = tt.stats();
  EXPECT_LE(s.entries, s.capacity);
}

// Same contention through the coarse-lock mode (lock-order coverage: the
// coarse tree lock and the TT bucket locks must compose deadlock-free).
TEST(TtStress, SharedTreeCoarseLockOverTinyTable) {
  Gomoku g(5, 4);
  g.apply(12);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig cfg = serial_config(1000);
  cfg.lock_mode = LockMode::kCoarse;

  TranspositionTable tt(table_config(8, 2, /*max_edges=*/25));
  auto search = make_search(Scheme::kSharedTree, cfg, 8,
                            {.evaluator = &eval, .tt = &tt});
  const SearchResult r = search->search(g);
  ASSERT_GE(r.best_action, 0);
  EXPECT_GT(r.metrics.tt_probes, 0u);
}

// --- SearchEngine glue ---------------------------------------------------

EngineConfig tt_engine_config(int playouts) {
  EngineConfig ec;
  ec.mcts = serial_config(playouts);
  ec.scheme = Scheme::kSerial;
  ec.adapt = false;
  ec.tt.enabled = true;
  ec.tt.capacity = 1 << 14;
  ec.tt.max_edges = 30;
  return ec;
}

TEST(EngineTt, AdvanceArchivesDiscardedSubtreesAndTracksEpoch) {
  Gomoku env(5, 4);
  SyntheticEvaluator eval(env.action_count(), env.encode_size());
  SearchEngine engine(tt_engine_config(300), {.evaluator = &eval});
  ASSERT_NE(engine.transposition(), nullptr);

  const SearchResult r = engine.search(env);
  TranspositionTable* tt = engine.transposition();
  EXPECT_EQ(tt->generation(), engine.tree().epoch());
  const TtStatsSnapshot before = tt->stats();
  EXPECT_GT(before.entries, 0u);

  engine.advance(r.best_action);
  engine.wait_compaction();
  // The archive pass re-stores every discarded expanded node: the mass of
  // already-stored positions folds in as merges.
  const TtStatsSnapshot after = tt->stats();
  EXPECT_GT(after.merges + after.stores, before.merges + before.stores);
  // Generation tracks the compaction epoch in lockstep.
  EXPECT_EQ(tt->generation(), engine.tree().epoch());
}

TEST(EngineTt, ResetGameClearsTableByDefault) {
  Gomoku env(5, 4);
  SyntheticEvaluator eval(env.action_count(), env.encode_size());
  SearchEngine engine(tt_engine_config(200), {.evaluator = &eval});
  engine.search(env);
  ASSERT_GT(engine.transposition()->stats().entries, 0u);
  engine.reset_game();
  EXPECT_EQ(engine.transposition()->stats().entries, 0u);
  EXPECT_EQ(engine.transposition()->generation(), engine.tree().epoch());
}

TEST(EngineTt, KeepAcrossGamesGraftsTheSecondGame) {
  Gomoku env(5, 4);
  SyntheticEvaluator eval(env.action_count(), env.encode_size());
  EngineConfig ec = tt_engine_config(300);
  ec.tt_keep_across_games = true;
  SearchEngine engine(ec, {.evaluator = &eval});

  engine.search(env);
  engine.reset_game();
  ASSERT_GT(engine.transposition()->stats().entries, 0u);  // carried over

  const SearchResult replay = engine.search(env);
  EXPECT_GT(replay.metrics.tt_grafts, 0u);
  EXPECT_LT(replay.metrics.eval_requests,
            static_cast<std::size_t>(replay.metrics.playouts));
}

TEST(EngineTt, BackgroundCompactionMatchesInlineAdvance) {
  Gomoku env_a(5, 4);
  SyntheticEvaluator eval(env_a.action_count(), env_a.encode_size());
  EngineConfig inline_cfg = tt_engine_config(250);
  EngineConfig bg_cfg = inline_cfg;
  bg_cfg.background_compaction = true;

  SearchEngine inline_engine(inline_cfg, {.evaluator = &eval});
  SearchEngine bg_engine(bg_cfg, {.evaluator = &eval});

  std::unique_ptr<Game> env = env_a.clone();
  for (int move = 0; move < 4 && !env->is_terminal(); ++move) {
    const SearchResult ri = inline_engine.search(*env);
    const SearchResult rb = bg_engine.search(*env);
    ASSERT_EQ(rb.action_prior, ri.action_prior) << "move " << move;
    ASSERT_EQ(rb.best_action, ri.best_action) << "move " << move;
    inline_engine.advance(ri.best_action);
    bg_engine.advance(ri.best_action);
    env->apply(ri.best_action);
  }
  bg_engine.wait_compaction();
  EXPECT_EQ(bg_engine.tree().epoch(), inline_engine.tree().epoch());
  EXPECT_EQ(bg_engine.transposition()->generation(),
            inline_engine.transposition()->generation());
}

}  // namespace
}  // namespace apm

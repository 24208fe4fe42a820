// Lane-shared transposition memory tests (ISSUE 9): one TranspositionTable
// per evaluator-pool lane, grafting across every game the lane seats.
// Covers: worker-count independence of service results when K games share a
// lane table (grafts install exactly what a cold expand would — results are
// a pure function of game seeds, whatever sibling warmed the table);
// cross-game announce/pending coalescing through the shared table; the
// lane-owned lifecycle (invalidate(id) clears that lane's TT and cache,
// foreign lanes keep theirs); a contended tiny-table stress mixing
// probe/announce/store with lane-owner clear()/bump_generation() (the TSan
// target); graft accounting consistency (per-move and per-lane graft rates
// are well-formed leaf-only fractions that reconcile with the service
// totals); and shared-clock monotonicity across another engine's
// reset_game().
//
// This binary runs under ASan/UBSan and ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "mcts/engine.hpp"
#include "mcts/transposition.hpp"
#include "serve/match_service.hpp"

namespace apm {
namespace {

struct ModelRig {
  explicit ModelRig(const Game& g)
      : eval(g.action_count(), g.encode_size()),
        backend(eval, GpuTimingModel{}) {}

  SyntheticEvaluator eval;
  SimGpuBackend backend;
};

EngineConfig serial_engine(int playouts) {
  EngineConfig ec;
  ec.mcts.num_playouts = playouts;
  ec.scheme = Scheme::kSerial;
  ec.adapt = false;
  return ec;
}

ServiceWorkload workload(const Game& g, const std::string& model, int slots,
                         int playouts) {
  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(g.clone());
  w.model = model;
  w.slots = slots;
  w.engine = serial_engine(playouts);
  return w;
}

TtConfig lane_tt(std::size_t capacity = 1 << 14, int max_edges = 16) {
  TtConfig tt;
  tt.enabled = true;
  tt.capacity = capacity;
  tt.ways = 4;
  tt.max_edges = max_edges;
  return tt;
}

TtEdge make_edge(int action, float prior) {
  TtEdge e;
  e.action = action;
  e.prior = prior;
  return e;
}

// Runs a K-slot Connect4 service whose single lane owns a shared TT.
std::vector<GameRecord> play_shared(const Game& proto, int workers, int games,
                                    ServiceStats* stats_out) {
  ModelRig rig(proto);
  EvaluatorPool pool;
  ModelSpec spec;
  spec.name = "net";
  spec.backend = &rig.backend;
  spec.batch_threshold = 2;
  spec.stale_flush_us = 300.0;
  spec.tt = lane_tt();
  pool.add_model(spec);

  ServiceConfig sc;
  sc.workers = workers;
  MatchService service(sc, pool, {workload(proto, "net", 4, 24)});
  service.enqueue_workload(0, games);
  service.start();
  service.drain();
  std::vector<GameRecord> records = service.take_completed();
  if (stats_out != nullptr) *stats_out = service.stats();
  service.stop();
  return records;
}

// --- kPriors determinism over a shared table -----------------------------

TEST(SharedTt, ServiceResultsIndependentOfWorkerCount) {
  // K = 4 games of one lane share its table; which sibling warms which
  // position depends entirely on scheduling, yet under kPriors a graft is
  // bitwise what the cold path would have produced — so per-game results
  // must not move between one worker and three.
  const Connect4 proto;
  ServiceStats s1, s3;
  const std::vector<GameRecord> one = play_shared(proto, 1, 6, &s1);
  const std::vector<GameRecord> three = play_shared(proto, 3, 6, &s3);

  ASSERT_EQ(one.size(), 6u);
  ASSERT_EQ(three.size(), 6u);
  for (std::size_t g = 0; g < one.size(); ++g) {
    EXPECT_EQ(one[g].game_id, three[g].game_id);
    EXPECT_EQ(one[g].stats.winner, three[g].stats.winner) << "game " << g;
    EXPECT_EQ(one[g].stats.moves, three[g].stats.moves) << "game " << g;
    ASSERT_EQ(one[g].samples.size(), three[g].samples.size()) << "game " << g;
    for (std::size_t i = 0; i < one[g].samples.size(); ++i) {
      EXPECT_EQ(one[g].samples[i].state, three[g].samples[i].state);
      EXPECT_EQ(one[g].samples[i].pi, three[g].samples[i].pi);
    }
  }
  // The table actually worked: grafts happened and the lane saw them.
  EXPECT_GT(s1.tt_grafts, 0u);
  EXPECT_GT(s3.tt_grafts, 0u);
  ASSERT_EQ(s1.lanes.size(), 1u);
  EXPECT_TRUE(s1.lanes[0].tt_shared);
  EXPECT_GT(s1.lanes[0].tt.hits, 0u);
  EXPECT_GT(s1.lanes[0].tt.stores, 0u);
}

// --- cross-game pending coalescing ---------------------------------------

TEST(SharedTt, AnnounceFromOneGameIsPendingForAnother) {
  // Game A announces a leaf it is about to evaluate; game B reaching the
  // same position through the shared table must see kPending (and skip
  // duplicate work at the queue layer), then kHit once A stores.
  TranspositionTable tt(lane_tt(64));
  const std::uint64_t key = 0xC0FFEEULL;

  ASSERT_TRUE(tt.announce(key));  // game A claims the evaluation
  TtView view;
  EXPECT_EQ(tt.probe(key, view), TtProbeResult::kPending);  // game B

  const TtEdge edges[2] = {make_edge(0, 0.5f), make_edge(1, 0.5f)};
  tt.store(key, 0.25f, 3, edges, 2, /*release_inflight=*/true);  // A lands
  ASSERT_EQ(tt.probe(key, view), TtProbeResult::kHit);  // B grafts
  EXPECT_EQ(view.inflight, 0);
  EXPECT_FLOAT_EQ(view.value, 0.25f);
  EXPECT_EQ(tt.stats().pending, 1u);
}

// --- lane-owned lifecycle -------------------------------------------------

TEST(SharedTt, InvalidateClearsOneLanesTtAndCacheOnly) {
  const Gomoku g(3, 3);
  ModelRig ra(g), rb(g);
  EvaluatorPool pool;
  ModelSpec sa;
  sa.name = "net-a";
  sa.backend = &ra.backend;
  sa.batch_threshold = 1;
  sa.tt = lane_tt(256);
  ModelSpec sb = sa;
  sb.name = "net-b";
  sb.backend = &rb.backend;
  const int id_a = pool.add_model(sa);
  const int id_b = pool.add_model(sb);

  ASSERT_NE(pool.transposition(id_a), nullptr);
  ASSERT_NE(pool.transposition(id_b), nullptr);
  ASSERT_NE(pool.transposition(id_a), pool.transposition(id_b));

  // Seed both lanes' memories: one TT entry and one cache entry each.
  const TtEdge edges[1] = {make_edge(0, 1.0f)};
  pool.transposition(id_a)->store(0x111ULL, 0.5f, 1, edges, 1, false);
  pool.transposition(id_b)->store(0x222ULL, 0.5f, 1, edges, 1, false);
  std::vector<float> input(g.encode_size(), 0.5f);
  pool.queue(id_a).submit_future(input.data(), 0, g.eval_key()).get();
  pool.queue(id_b).submit_future(input.data(), 0, g.eval_key()).get();
  pool.drain_all();
  ASSERT_EQ(pool.transposition(id_a)->stats().entries, 1u);
  ASSERT_EQ(pool.transposition(id_b)->stats().entries, 1u);
  ASSERT_EQ(pool.cache(id_a)->stats().entries, 1u);

  pool.invalidate(id_a);  // net-a's weights changed; net-b's did not
  EXPECT_EQ(pool.transposition(id_a)->stats().entries, 0u);
  EXPECT_EQ(pool.transposition(id_b)->stats().entries, 1u);
  EXPECT_EQ(pool.cache(id_a)->stats().entries, 0u);
  EXPECT_EQ(pool.cache(id_b)->stats().entries, 1u);

  // The lane snapshot reflects the cleared table.
  EXPECT_EQ(pool.lane_stats(id_a).tt.entries, 0u);
  EXPECT_EQ(pool.lane_stats(id_b).tt.entries, 1u);
}

TEST(SharedTt, SharedClockSurvivesAnotherEnginesReset) {
  // Two engines over one shared table (the MatchService wiring in
  // miniature): engine B finishing its game and resetting must neither
  // rewind the lane clock below engine A's live entries nor clear them.
  const Connect4 env;
  SyntheticEvaluator eval(env.action_count(), env.encode_size());
  TranspositionTable tt(lane_tt(1 << 12));

  EngineConfig ec = serial_engine(64);
  SearchResources res;
  res.evaluator = &eval;
  res.tt = &tt;
  res.tt_shared = true;
  SearchEngine a(ec, res);
  SearchEngine b(ec, res);
  EXPECT_TRUE(a.transposition_shared());
  EXPECT_EQ(a.transposition(), &tt);
  EXPECT_EQ(b.transposition(), &tt);

  std::unique_ptr<Game> game = env.clone();
  SearchResult r = a.search(*game);
  game->apply(r.best_action);
  a.advance(r.best_action);
  r = a.search(*game);

  const std::uint32_t gen_before = tt.generation();
  const std::size_t entries_before = tt.stats().entries;
  EXPECT_GT(entries_before, 0u);

  b.reset_game();  // engine B's game ended; A's memos must survive
  EXPECT_GE(tt.generation(), gen_before);  // bumped, never rewound
  EXPECT_EQ(tt.stats().entries, entries_before);
}

// --- contended-bucket stress (the TSan target) ----------------------------

TEST(SharedTt, ContendedTinyTableStaysConsistent) {
  // Every operation the lane-shared lifecycle can interleave, hammered on
  // a deliberately tiny table so bucket collisions and replacement races
  // are constant: K "engine" threads probe/announce/store a small key set
  // while a "lane owner" thread clears, bumps the generation and updates
  // the in-flight hint. Run under TSan this is the data-race proof; the
  // invariants below catch lost-update corruption in any build.
  TranspositionTable tt(lane_tt(32, /*max_edges=*/4));
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<std::uint64_t> grafted{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tt, &grafted, t] {
      TtView view;
      TtEdge edges[3] = {make_edge(0, 0.5f), make_edge(1, 0.3f),
                         make_edge(2, 0.2f)};
      for (int i = 0; i < kIters; ++i) {
        // 97 keys over 8 buckets: every bucket sees cross-thread traffic.
        const std::uint64_t key =
            1 + static_cast<std::uint64_t>((i * 31 + t * 7) % 97);
        const TtProbeResult pr = tt.probe(key, view);
        if (pr == TtProbeResult::kHit) {
          grafted.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        bool announced = false;
        if (pr == TtProbeResult::kMiss) announced = tt.announce(key);
        tt.store(key, 0.1f * static_cast<float>(t), i % 5, edges, 3,
                 announced);
      }
    });
  }
  threads.emplace_back([&tt] {  // the lane owner
    for (int i = 0; i < 200; ++i) {
      tt.bump_generation();
      if (i % 16 == 0) tt.clear();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();

  const TtStatsSnapshot s = tt.stats();
  EXPECT_LE(s.entries, tt.capacity());
  EXPECT_EQ(s.probes, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.hits, grafted.load());
  EXPECT_GT(s.stores + s.merges + s.dropped, 0u);
  // Post-race sanity: the table still round-trips. The entry carries visit
  // mass so the replacement policy must admit it: a visitless depth-1 store
  // is rightly dropped when the race leaves its bucket full of fresh
  // depth-0/1 entries, which made this check flaky under load.
  TtEdge edge = make_edge(0, 1.0f);
  edge.visits = 1000;
  const TtEdge edges[1] = {edge};
  tt.store(0x5151ULL, 0.5f, 1, edges, 1, false);
  TtView view;
  EXPECT_EQ(tt.probe(0x5151ULL, view), TtProbeResult::kHit);
}

// --- accounting consistency (the unit test PR 7 deferred) -----------------

TEST(SharedTt, GraftAccountingReconcilesAcrossLayers) {
  // tt_graft_rate must be a well-formed leaf-only fraction at every layer:
  // per move, per game, per lane, and for the whole service — all against
  // the SAME denominators the cache hit rate uses (leaf eval_requests;
  // roots and re-searches excluded).
  const Connect4 proto;
  ServiceStats stats;
  const std::vector<GameRecord> records = play_shared(proto, 2, 6, &stats);
  ASSERT_EQ(records.size(), 6u);

  std::uint64_t sum_grafts = 0;
  std::uint64_t sum_requests = 0;
  for (const GameRecord& rec : records) {
    for (const EngineMoveStats& m : rec.stats.per_move) {
      // Leaf-only invariants: dedupe counters never exceed the leaf
      // request count they are a breakdown of, and grafted leaves are
      // disjoint from requested leaves by construction.
      EXPECT_LE(m.metrics.cache_hits + m.metrics.coalesced_evals,
                m.metrics.eval_requests);
      EXPECT_GE(m.metrics.tt_probes, m.metrics.tt_grafts);
      sum_grafts += m.metrics.tt_grafts;
      sum_requests += m.metrics.eval_requests;
    }
  }
  EXPECT_GT(sum_grafts, 0u);

  // Service totals are exactly the per-move sums (nothing counted twice,
  // nothing dropped by the fold).
  EXPECT_EQ(stats.tt_grafts, sum_grafts);
  EXPECT_EQ(stats.eval_requests, sum_requests);
  EXPECT_GE(stats.tt_graft_rate, 0.0);
  EXPECT_LE(stats.tt_graft_rate, 1.0);
  EXPECT_DOUBLE_EQ(stats.tt_graft_rate,
                   static_cast<double>(sum_grafts) /
                       static_cast<double>(sum_grafts + sum_requests));

  // The lane's live fold (worker_loop, per committed move) reconciles with
  // the same sums, so the rate the ArrivalModel thins the pool by is the
  // rate the completed games actually measured.
  ASSERT_EQ(stats.lanes.size(), 1u);
  const ServiceLaneStats& lane = stats.lanes[0];
  EXPECT_EQ(lane.tt_grafts, sum_grafts);
  EXPECT_EQ(lane.tt_demand, sum_grafts + sum_requests);
  EXPECT_GE(lane.tt_graft_rate, 0.0);
  EXPECT_LE(lane.tt_graft_rate, 1.0);
  EXPECT_DOUBLE_EQ(lane.tt_graft_rate,
                   static_cast<double>(lane.tt_grafts) /
                       static_cast<double>(lane.tt_demand));
  // The table's own counters cover at least the folded grafts (engine
  // paths may probe more than they graft, never the reverse).
  EXPECT_GE(lane.tt.hits, lane.tt_grafts);
  EXPECT_LE(lane.tt.entries, lane.tt.capacity);
}

}  // namespace
}  // namespace apm

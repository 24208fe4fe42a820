#pragma once
// Long-lived adaptive search engine — owns the game lifecycle the one-shot
// MctsSearch objects cannot: one SearchEngine serves a whole game (or many
// self-play games), keeping three durable pieces across moves:
//
//  * the tree arena — advance_root() carries the played move's subtree to
//    the next move (AlphaZero-standard tree reuse), and the engine credits
//    the carried visit mass against the playout budget so a warm tree does
//    measurably fewer expansions per move;
//  * the scheme driver — Serial/SharedTree/LocalTree run as interchangeable
//    drivers over the shared arena, so a runtime switch hands the reused
//    tree to the new scheme instead of discarding it;
//  * the adaptive controller — per move, measured SearchMetrics are folded
//    into live ProfiledCosts (EWMA) and the Eq. 3–6 models are
//    re-evaluated; when another (scheme, N, B) beats the current one past a
//    hysteresis margin the engine rebuilds the driver and re-tunes the
//    AsyncBatchEvaluator threshold in place.
//
// Typical use (see examples/adaptive_config.cpp):
//   SearchEngine engine(cfg, {.evaluator = &eval});
//   while (!env->is_terminal()) {
//     SearchResult r = engine.search(*env);   // one move
//     env->apply(r.best_action);
//     engine.advance(r.best_action);          // keep the subtree
//   }

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mcts/factory.hpp"
#include "mcts/transposition.hpp"
#include "perfmodel/adaptive.hpp"

namespace apm {

struct EngineConfig {
  MctsConfig mcts;

  // Initial configuration (typically the §4.2 design-time decision).
  Scheme scheme = Scheme::kSerial;
  int workers = 1;
  int batch_threshold = 1;  // applied when a batch evaluator is supplied
  // When false the engine never calls set_batch_threshold on the supplied
  // AsyncBatchEvaluator: a shared multi-producer queue (MatchService) is
  // tuned by its owner, and K per-game engines must not fight over it.
  bool manage_batch_threshold = true;

  // Cross-move tree reuse.
  bool reuse_tree = true;
  // When true, visits carried over at the new root count toward the
  // per-move playout budget (the reuse saving); when false every move runs
  // the full num_playouts on top of the reused tree.
  bool count_reused_visits = true;
  int min_playouts = 16;  // budget floor after reuse credit

  // Runtime adaptation.
  bool adapt = true;
  AdaptiveConfig adaptive;
  HardwareSpec hw;
  // Design-time seed for the live cost model; zero-initialised costs are
  // fine (the first observed move replaces every zero cost outright).
  ProfiledCosts seed_costs;

  // Transposition table (tt.enabled builds one, owned by the engine and
  // attached to every driver). Its generation stamp tracks the tree's
  // compaction epoch; advance_root()'s archive pass folds discarded
  // subtrees back into it. Ignored when the caller supplies a lane-shared
  // table via SearchResources::tt — shared residency wins, and the lane
  // owner (EvaluatorPool) controls sizing and clearing.
  TtConfig tt;
  // Keep TT entries across reset_game(): position memos are pure function
  // of the (deterministic) evaluator, so cross-game carry-over is sound —
  // off by default to keep games statistically independent.
  bool tt_keep_across_games = false;
  // Run advance_root() compaction (and the TT archive pass) on a
  // background thread so huge reused trees stop taxing move latency; the
  // next search()/advance()/reset_game() joins on it.
  bool background_compaction = false;
};

// Per-move engine telemetry — the adaptation trace surfaced through
// EpisodeStats so a self-play run can show when and why the engine
// switched.
struct EngineMoveStats {
  int move = 0;
  Scheme scheme = Scheme::kSerial;
  int workers = 1;
  int batch_threshold = 1;
  bool switched = false;        // configuration changed after this move
  Scheme next_scheme = Scheme::kSerial;  // config for the next move
  int next_workers = 1;
  int next_batch_threshold = 1;
  // Virtual-loss constant/flavour the driver ran with this move and the
  // re-tuned value installed for the next (the WU-UCT follow-up: VL shrinks
  // as the chosen batch/worker count shrinks).
  float virtual_loss = 0.0f;
  VirtualLossMode vl_mode = VirtualLossMode::kConstant;
  float next_virtual_loss = 0.0f;
  bool reused_tree = false;
  std::int64_t reused_visits = 0;
  std::size_t reused_nodes = 0;
  int playout_budget = 0;
  double predicted_us = 0.0;          // controller's pick under live costs
  double current_predicted_us = 0.0;  // this move's config under live costs
  // Per-move eval-cache dedupe lives in metrics.cache_hits /
  // metrics.coalesced_evals (vs metrics.eval_requests); the controller
  // folds the hit rate into ProfiledCosts::cache_hit_rate, so a rising
  // hit rate lowers the effective eval cost the Eq. 3–6 re-tune sees.
  SearchMetrics metrics;
};

class SearchEngine {
 public:
  SearchEngine(EngineConfig cfg, SearchResources res);
  ~SearchEngine();

  // Runs one move's search from `env`. The caller owns move selection;
  // report the chosen action (and the opponent's reply) via advance().
  SearchResult search(const Game& env);

  // Advances the engine past a played move: the subtree under `action`
  // becomes the next root (tree reuse); everything else is discarded.
  void advance(int action);

  // Discards the tree for a fresh game. Controller state (live costs,
  // dwell) intentionally survives — hardware does not change between games.
  void reset_game();

  Scheme scheme() const { return driver_->scheme(); }
  int workers() const { return driver_->workers(); }
  int batch_threshold() const;
  // The (possibly re-tuned) VL the current driver runs with.
  float virtual_loss() const { return driver_->config().virtual_loss; }
  VirtualLossMode vl_mode() const { return driver_->config().vl_mode; }
  int switch_count() const { return switches_; }
  const std::vector<EngineMoveStats>& move_log() const { return log_; }
  SearchTree& tree() { return tree_; }
  const AdaptiveController& controller() const { return controller_; }
  // The active transposition table: the engine-private one when
  // cfg.tt.enabled, the externally supplied lane-shared one when the
  // caller set SearchResources::tt (which wins over cfg.tt), nullptr
  // otherwise.
  TranspositionTable* transposition() { return res_.tt; }
  // true when the active table is lane-shared (externally owned).
  bool transposition_shared() const { return res_.tt_shared; }
  // Blocks until a pending background compaction (if any) has finished —
  // search()/advance()/reset_game() call this implicitly; tests and stats
  // readers can call it directly before touching the tree.
  void wait_compaction();

  // Test/replay hook: overrides the measured per-move costs with a
  // synthetic feed (move index -> cost sample) so adaptation paths can be
  // driven deterministically.
  void set_cost_feed(std::function<ProfiledCosts(int move)> feed) {
    cost_feed_ = std::move(feed);
  }

 private:
  void rebuild_driver(Scheme scheme, int workers, int batch_threshold);
  // The advance_root + TT-generation + reuse-crediting step, runnable
  // either inline or on the compactor thread.
  void run_advance(int action);
  // Advances the active table's replacement clock at a move/reset
  // boundary: epoch lockstep for a private table, a monotonic bump for a
  // lane-shared one (which serves other engines' games concurrently and
  // must never be rewound to this engine's epoch).
  void advance_tt_clock();
  SearchTree::NodeArchiver make_archiver();
  void compactor_loop();

  EngineConfig cfg_;
  SearchResources res_;
  SearchTree tree_;
  std::unique_ptr<TranspositionTable> tt_;
  AdaptiveController controller_;
  std::unique_ptr<MctsSearch> driver_;
  std::function<ProfiledCosts(int)> cost_feed_;
  std::vector<EngineMoveStats> log_;
  int move_index_ = 0;
  int switches_ = 0;
  bool pending_reuse_ = false;
  std::int64_t reusable_visits_ = 0;

  // Background compaction (cfg_.background_compaction): one long-lived
  // worker, one job slot. cmu_ orders every field below AND publishes the
  // tree/TT mutations run_advance() makes on the worker back to callers
  // that joined via wait_compaction().
  std::thread compactor_;
  std::mutex cmu_;
  std::condition_variable c_cv_;
  bool cjob_ready_ = false;
  bool cjob_busy_ = false;
  bool cjob_shutdown_ = false;
  int cjob_action_ = -1;
};

}  // namespace apm

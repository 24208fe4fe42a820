#pragma once
// Concurrent match service — the multi-game, multi-model serving layer of
// the ROADMAP's "serve heavy traffic" step.
//
// The paper's batching lever (Eq. 3–6, Fig. 6) starves when one search
// tree cannot supply a full batch: a single serial game has exactly one
// leaf evaluation in flight, so the AsyncBatchEvaluator either dispatches
// batches of 1 or stalls on the stale-flush timer. The MatchService runs K
// concurrent games, each owned by its own adaptive SearchEngine (private
// arena + AdaptiveController + cross-move tree reuse), submitting leaf
// evaluations to a shared lane queue — so batches form *across* games
// (Batch MCTS, Cazenave 2021) and the accelerator sees threshold-sized
// batches even when every individual game is a starved single-stream
// producer.
//
// Multi-model routing (ISSUE 5): a service can serve heterogeneous
// workloads. Each ServiceWorkload declares (game prototype, model name,
// slot count, engine/self-play templates); slots are statically bound to
// their workload and route every evaluation to that model's lane in an
// EvaluatorPool (per-net AsyncBatchEvaluator + per-net EvalCache, see
// serve/evaluator_pool.hpp). Batches still form across games *within* a
// lane — K Gomoku games on net A fill net A's batches — while lanes stay
// isolated: a Connect4 game on net B can never occupy net A's slots or
// alias its cache. A single-game, single-net service is the degenerate
// one-workload, one-lane case.
//
// Aggregate threshold control (Algorithm 4 at service level): when enabled,
// an AggregateController re-tunes each lane's batch threshold from that
// lane's measured operating point — live game count × per-game in-flight,
// thinned by the measured cache hit rate, against the measured slot
// arrival rate (perfmodel/arrival.hpp). The per-game in-flight figure is
// LIVE: a slot is seated at its engine template's scheme_inflight, and
// after every committed move the slot re-reads its engine's committed
// (scheme, workers, batch threshold) and folds the delta into the lane's
// inflight sum — so when AdaptiveControllers migrate their games from
// serial to root/shared/batched schemes mid-service, the controller sees
// the lane's true producer depth, not the seed configuration it long left
// behind. Decisions fire on game
// attach/retire and every `aggregate.retune_every_moves` committed moves;
// accepted retunes are applied via set_batch_threshold and logged
// (retune_log()) — the threshold trajectory BENCH_hetero.json records.
// Per-game engines never manage a lane queue's threshold
// (manage_batch_threshold is forced off).
// Results stay worker-count independent under retuning because per-request
// results never depend on batch composition — only latency does.
//
// Scheduling: the slots are multiplexed over a fixed pool of W worker
// threads at move granularity. A worker pops a ready slot, plays exactly
// one move (engine.search → temperature sampling → engine.advance), and
// requeues the slot — one thread serves many games and a long move in one
// game never blocks the others' progress. Finished games retire their
// samples into a completed-game queue and the freed slot is reseated from
// its workload's pending counter. Per-game seeds derive from the
// (workload, per-workload game index) pair alone — never from W, from
// which worker played which move, or from which of the workload's slots
// seated the game; with deterministic engine templates (serial scheme,
// adaptation off — the configuration the determinism tests pin) per-game
// results are therefore independent of the worker count: batch composition
// and threshold retunes change with timing, per-request results do not.
//
// Lifecycle: enqueue(n)/enqueue_workload(w, n) add games; start() spawns
// the worker pool; drain() blocks until every queued game has completed;
// stop() halts after in-flight moves, abandons mid-game slots, and joins
// the pool (the destructor calls it). Every lane queue's stale-flush timer
// is required (EvaluatorPool::add_model checks it): at a game tail the
// remaining producers cannot fill a batch, and the timer bounds their wait.
//
// Cache invalidation contract: invalidate_model(id) clears ONLY model id's
// cache (its weights changed); other lanes' residency and hit rates
// survive. The Trainer calls it with the model its net backs after each
// wave's SGD; id −1 clears every lane's cache.

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mcts/engine.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"
#include "serve/aggregate_controller.hpp"
#include "serve/evaluator_pool.hpp"
#include "support/timer.hpp"
#include "train/self_play.hpp"

namespace apm {

struct ServiceConfig {
  int workers = 2;  // threads multiplexing the slots at move granularity
  // Seed strides between consecutive game indices of one workload
  // (self-play / engine search).
  std::uint64_t game_seed_stride = 1000003ULL;
  std::uint64_t engine_seed_stride = 7919ULL;
  // Service-level Algorithm-4 threshold control; disabled, every lane keeps
  // the threshold its ModelSpec declared.
  AggregateControllerConfig aggregate;
};

// One heterogeneous workload: `slots` concurrent games of `proto`'s game,
// all evaluating on the pool model named `model`.
struct ServiceWorkload {
  std::shared_ptr<const Game> proto;  // cloned per seated episode
  std::string model;
  int slots = 1;
  // Per-game engine template. The service derives each game's search seed
  // from it and forces manage_batch_threshold = false (the service — or
  // its aggregate controller — owns lane thresholds; K engines must not
  // fight over them).
  EngineConfig engine;
  // Per-game self-play template; each game's seed is offset by its
  // per-workload game index so results are a function of (workload, index)
  // only, not of scheduling.
  SelfPlayConfig self_play;
};

// One finished (or abandoned) game.
struct GameRecord {
  int game_id = -1;   // per-workload game index (seeds derive from it)
  int workload = 0;   // index into the service's workload list
  std::string game_name;
  std::string model;  // lane the game evaluated on
  bool completed = false;  // false = stop() abandoned it mid-game
  EpisodeStats stats;
  std::vector<TrainSample> samples;
};

// Per-workload progress.
struct WorkloadStats {
  int workload = 0;
  std::string game_name;
  std::string model;
  int slots = 0;
  int games_completed = 0;
  int games_abandoned = 0;
  int games_pending = 0;
  int games_active = 0;
  int moves = 0;
};

// One evaluation lane's service-era telemetry: `batch` is the queue delta
// since service construction (fill_histogram is the cross-game
// batch-formation evidence within this lane), `cache` snapshots the lane's
// EvalCache, `threshold`/`retunes` track the aggregate controller.
struct ServiceLaneStats {
  int model_id = -1;
  std::string model;
  Precision precision = Precision::kFp32;  // the lane's declared precision
  int live_games = 0;
  // Σ live per-game in-flight over the lane's seated games — tracks each
  // engine's COMMITTED scheme, not its template (see the aggregate-control
  // header note). live_inflight / live_games is the obs.inflight the
  // controller last reasoned from.
  double live_inflight = 0.0;
  int threshold = 1;
  int retunes = 0;
  // TT graft fraction of the lane's leaf demand (grafts/(grafts+requests)).
  // Both terms are leaf-only per-move sums (roots and re-searches excluded,
  // the same denominators as the cache hit rate), so the rate is a
  // well-formed fraction in [0,1]; 0 when the lane's engines run without
  // transposition tables.
  double tt_graft_rate = 0.0;
  std::uint64_t tt_grafts = 0;
  std::uint64_t tt_demand = 0;  // grafts + leaf eval requests
  // true when the lane owns a shared TranspositionTable every slot's engine
  // grafts from (ModelSpec::tt.enabled); `tt` then snapshots it. false with
  // a zero snapshot when slots run private (or no) tables.
  bool tt_shared = false;
  TtStatsSnapshot tt;
  BatchQueueStats batch;
  CacheStats cache;
  // This lane's era-only latency shards (queue histograms minus the
  // service-construction baseline) — what the aggregate snapshots merge.
  obs::HistogramSnapshot request_latency_ns;
  obs::HistogramSnapshot batch_wait_ns;
  obs::HistogramSnapshot backend_eval_ns;
  // SLO verdict (ModelSpec::slo): advanced every publish_metrics() window
  // over the lane's request latency. slo_enabled=false leaves health at
  // kHealthy with zero burn.
  bool slo_enabled = false;
  obs::LaneHealth health = obs::LaneHealth::kHealthy;
  double slo_window_p99_us = 0.0;
  double slo_burn = 0.0;
};

// Aggregate service telemetry. `batch` sums the lane deltas; per-lane
// breakdowns are in `lanes`.
struct ServiceStats {
  int slots = 0;
  int workers = 0;
  int games_completed = 0;
  int games_abandoned = 0;
  int games_pending = 0;
  int games_active = 0;
  int moves = 0;
  std::int64_t samples = 0;
  std::size_t eval_requests = 0;  // Σ over completed games' per-move metrics
  // Eval-cache dedupe, Σ over completed games: requests served from a
  // cache, requests coalesced onto an in-flight duplicate, and the
  // aggregate rate (cache_hits + coalesced) / eval_requests — the fraction
  // of demand that needed no backend slot. Per-game rates come from each
  // GameRecord's EpisodeStats; `cache` sums the lane cache snapshots.
  std::size_t cache_hits = 0;
  std::size_t coalesced_evals = 0;
  double cache_hit_rate = 0.0;
  // Transposition-table grafts, Σ over completed games, and the aggregate
  // rate tt_grafts / (tt_grafts + eval_requests) — the fraction of leaf
  // demand that never generated an eval request at all.
  std::size_t tt_grafts = 0;
  double tt_graft_rate = 0.0;
  CacheStats cache;
  int scheme_switches = 0;
  std::int64_t reused_visits = 0;
  double search_seconds = 0.0;  // Σ per-move wall across games (resource-s)
  double wall_seconds = 0.0;    // service wall clock since start()
  double moves_per_second = 0.0;
  double evals_per_second = 0.0;
  // Mean dispatched batch size across lanes. Exact after drain()/stop();
  // read mid-run it over-counts slightly, since window-submitted includes
  // requests still sitting in forming (undispatched) batches.
  double mean_batch_fill = 0.0;
  BatchQueueStats batch;
  int threshold_retunes = 0;  // applied aggregate-controller changes
  // Latency distributions over the service era (ROADMAP direction 1's
  // p50/p99 prerequisite). Move latency is measured by the service around
  // each committed move (engine.search + sampling + advance); request /
  // batch-wait / backend latency are the lane queues' always-on shards,
  // merged across lanes as deltas against the service-construction
  // baseline. Scalars are convenience quantiles of the snapshots.
  obs::HistogramSnapshot move_latency_ns;
  obs::HistogramSnapshot request_latency_ns;
  obs::HistogramSnapshot batch_wait_ns;
  obs::HistogramSnapshot backend_eval_ns;
  double move_latency_p50_ms = 0.0;
  double move_latency_p99_ms = 0.0;
  double request_latency_p50_us = 0.0;
  double request_latency_p99_us = 0.0;
  std::vector<ServiceLaneStats> lanes;
  std::vector<WorkloadStats> workloads;
};

class MatchService {
 public:
  // Each workload's slots route to its named model's lane in `pool` (which
  // must outlive the service). Total slot count is the sum over workloads.
  // cfg.aggregate enables the per-lane Algorithm-4 threshold loop.
  MatchService(ServiceConfig cfg, EvaluatorPool& pool,
               std::vector<ServiceWorkload> workloads);
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  // Adds `games` to the pending queues, round-robin across workloads
  // (deterministic assignment). Returns false — without enqueuing — once
  // stop() has been requested, so a producer racing a shutdown can bail
  // out instead of aborting.
  bool enqueue(int games);
  // Adds `games` to one workload's pending queue.
  bool enqueue_workload(int workload, int games);

  // Spawns the worker pool (idempotent). Not restartable after stop().
  void start();

  // Blocks until every enqueued game has completed.
  void drain();

  // Stops after in-flight moves complete, retires seated games as
  // completed=false records, joins the pool. Terminal: the service cannot
  // be started again. Safe to call concurrently / repeatedly.
  void stop();

  // Moves out every finished game so far, ordered by (workload, game id).
  // After a stop(), abandoned games appear with completed == false (their
  // samples are truncated mid-episode — filter by the flag before
  // training).
  std::vector<GameRecord> take_completed();

  ServiceStats stats() const;
  int slots() const { return total_slots_; }
  int workers() const { return cfg_.workers; }
  int workload_count() const { return static_cast<int>(workloads_.size()); }

  // Per-model cache invalidation (the Trainer's weight-update hook):
  // clears model `model_id`'s cache and TT only; −1 clears every lane's.
  void invalidate_model(int model_id);

  // The aggregate controller's recent decisions, oldest first (empty when
  // cfg.aggregate is disabled). Bounded by cfg.aggregate.log_capacity —
  // decisions beyond it are dropped oldest-first and counted by
  // retune_log_dropped(). Copied under the service lock.
  std::vector<ThresholdDecision> retune_log() const;
  // Decisions the bounded retune log has overwritten so far.
  std::uint64_t retune_log_dropped() const;

  // Publishes the current ServiceStats into the process-wide
  // MetricsRegistry under "service.*" names (counters, gauges, and the
  // latency histogram snapshots — aggregate AND per-lane, so the telemetry
  // sampler sees one uniform source). Call at any cadence (it is the
  // natural TelemetrySampler source); each call replaces the previous
  // values. Non-const: each call is also an SLO evaluation window for
  // every lane with ModelSpec::slo enabled, advancing the lane's health
  // state machine and exporting "service.<lane>.health" as a gauge
  // (0=healthy 1=warn 2=breach).
  void publish_metrics();

 private:
  // One concurrent game: engine + episode state machine, exclusively owned
  // by whichever worker popped it from ready_ (never aliased — a slot is in
  // exactly one of: ready_, its workload's free list, a worker's hands).
  struct Slot {
    int id = 0;        // global slot id (the queue submitter tag)
    int workload = 0;  // static binding: which workload this slot serves
    int game_id = -1;  // per-workload game index; -1 = idle
    // This slot's contribution to its lane's inflight_sum. Seeded from the
    // workload template at claim, then refreshed from the engine's
    // committed (scheme, workers, threshold) after every move — the live
    // figure the aggregate controller averages over the lane.
    double live_inflight = 1.0;
    std::unique_ptr<SearchEngine> engine;
    std::unique_ptr<EpisodeRunner> runner;
    double search_seconds = 0.0;
  };

  // Internal per-workload state (guarded by mutex_ unless noted).
  struct Workload {
    ServiceWorkload spec;    // immutable after construction
    int model_id = 0;        // pool lane
    // scheme_inflight of the engine TEMPLATE — only the seed for a freshly
    // claimed slot; live slots track their engines (Slot::live_inflight).
    double inflight = 1.0;
    int pending = 0;
    int active = 0;
    int next_game_index = 0;
    int completed = 0;
    int abandoned = 0;
    int moves = 0;
    std::vector<Slot*> free_slots;
  };

  // Internal per-lane state for the aggregate controller's windows.
  struct Lane {
    int model_id = 0;
    BatchQueueStats start;        // snapshot at service construction
    // Latency-shard baselines at service construction: the queue outlives
    // the service, so its histograms cover more than this service's era —
    // stats() subtracts these to report era-only distributions.
    obs::HistogramSnapshot start_request;
    obs::HistogramSnapshot start_batch_wait;
    obs::HistogramSnapshot start_backend;
    BatchQueueStats last_window;  // snapshot at the last observe()
    double last_window_seconds = 0.0;
    int live_games = 0;
    double inflight_sum = 0.0;    // Σ inflight over live games
    // TT graft accounting over the lane's whole era (folded per committed
    // move): grafted leaves never reach the queue, so the arrival model
    // thins the producer pool by grafts / demand.
    std::uint64_t tt_grafts = 0;
    std::uint64_t tt_demand = 0;  // grafts + eval requests
    // SLO state (ModelSpec::slo.enabled): evaluator fed one request-latency
    // window per publish_metrics() call; slo_last is the cumulative
    // baseline of the previous evaluation. Null when the lane has no SLO.
    std::unique_ptr<obs::SloEvaluator> slo;
    obs::HistogramSnapshot slo_last;
    obs::LaneHealth health = obs::LaneHealth::kHealthy;
    double slo_window_p99_us = 0.0;
    double slo_burn = 0.0;
  };

  void worker_loop();
  bool seatable_locked() const;
  // Seating is split so engine/runner construction never holds mutex_:
  // claim_locked() assigns the game index and counters under the lock;
  // build_slot() does the heavy construction on the exclusively-owned slot.
  void claim_locked(Slot& slot);
  void build_slot(Slot& slot);
  // Finalizes a slot's episode into a GameRecord (z back-fill, sample
  // collection, engine-trace fold) — the single retire path for finished
  // (completed=true) and stop()-abandoned (completed=false) games.
  GameRecord retire_slot(Slot& slot, bool completed) const;
  void commit_locked(Slot& slot, GameRecord&& rec);
  // Re-runs the per-lane Algorithm-4 decision (controller enabled);
  // applies accepted retunes to the lane queues. `model_id`
  // >= 0 observes only that lane (a single-lane attach/retire event must
  // not advance other lanes' dwell counters with no new data, nor walk
  // every queue's mutex under mutex_); -1 sweeps all lanes (the periodic
  // cadence).
  void retune_locked(int model_id);

  ServiceConfig cfg_;
  EvaluatorPool& pool_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::vector<Lane> lanes_;
  std::unique_ptr<AggregateController> controller_;
  int total_slots_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: ready slot / seatable game
  std::condition_variable idle_cv_;  // drain(): all games finished
  std::vector<std::unique_ptr<Slot>> slots_;
  std::deque<Slot*> ready_;
  std::vector<std::thread> threads_;
  std::vector<GameRecord> completed_;
  int pending_games_ = 0;
  int active_games_ = 0;
  int enqueue_rr_ = 0;  // round-robin cursor for enqueue(int)
  bool started_ = false;
  bool stop_ = false;
  bool stopping_ = false;  // a stop() call owns the teardown
  bool stopped_ = false;   // teardown finished
  std::condition_variable stopped_cv_;

  // Aggregates (guarded by mutex_).
  int games_completed_ = 0;
  int games_abandoned_ = 0;
  int moves_ = 0;
  int interim_moves_ = 0;       // every committed move (retune cadence)
  int last_retune_moves_ = 0;
  std::int64_t samples_ = 0;
  // Per-committed-move wall latency (service-measured, trace-clock ns):
  // the distribution behind ServiceStats::move_latency_*. Lock-free
  // records from the worker threads.
  obs::LatencyHistogram hist_move_ns_;
  std::size_t eval_requests_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t coalesced_evals_ = 0;
  std::size_t tt_grafts_ = 0;
  int scheme_switches_ = 0;
  std::int64_t reused_visits_ = 0;
  double search_seconds_ = 0.0;
  Timer wall_timer_;
  double final_wall_seconds_ = 0.0;
};

}  // namespace apm

#include "mcts/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "support/check.hpp"

namespace apm {
namespace {

// Static-lifetime scheme label for trace args (to_string returns a
// temporary std::string; trace events borrow their pointers).
const char* scheme_cname(Scheme s) {
  switch (s) {
    case Scheme::kSerial: return "serial";
    case Scheme::kSharedTree: return "shared_tree";
    case Scheme::kLocalTree: return "local_tree";
    case Scheme::kLeafParallel: return "leaf_parallel";
    case Scheme::kRootParallel: return "root_parallel";
  }
  return "?";
}

// Seeds the controller's VL-re-tune references from the engine's search
// config: the configured constant/mode is what the initial configuration
// was tuned for. A deliberately disabled virtual loss (<= 0, with no
// explicit base) turns the re-tune off entirely — the controller's
// sentinel fallback must not silently resurrect a penalty the user
// switched off.
EngineConfig normalized(EngineConfig cfg) {
  if (cfg.adaptive.base_virtual_loss <= 0.0f) {
    if (cfg.mcts.virtual_loss <= 0.0f) {
      cfg.adaptive.tune_virtual_loss = false;
    } else {
      cfg.adaptive.base_virtual_loss = cfg.mcts.virtual_loss;
    }
  }
  cfg.adaptive.base_vl_mode = cfg.mcts.vl_mode;
  return cfg;
}

}  // namespace

SearchEngine::SearchEngine(EngineConfig cfg, SearchResources res)
    : cfg_(normalized(std::move(cfg))),
      res_(res),
      controller_(cfg_.hw, cfg_.seed_costs, cfg_.adaptive, cfg_.scheme,
                  cfg_.workers, cfg_.batch_threshold) {
  APM_CHECK_MSG(res_.evaluator != nullptr || res_.batch != nullptr,
                "SearchEngine: no evaluation resource provided");
  if (res_.tt != nullptr) {
    // Externally owned lane-shared table (EvaluatorPool via MatchService):
    // shared mode wins over the template's cfg.tt — the engine builds no
    // private table, never clears the shared one, and only ever advances
    // its generation monotonically (other engines' live entries sit above
    // this engine's private epoch).
    res_.tt_shared = true;
  } else if (cfg_.tt.enabled) {
    tt_ = std::make_unique<TranspositionTable>(cfg_.tt);
    tt_->set_generation(tree_.epoch());
    res_.tt = tt_.get();
    res_.tt_shared = false;
  }
  rebuild_driver(cfg_.scheme, cfg_.workers, cfg_.batch_threshold);
  if (cfg_.background_compaction) {
    compactor_ = std::thread([this] { compactor_loop(); });
  }
}

SearchEngine::~SearchEngine() {
  if (compactor_.joinable()) {
    {
      std::lock_guard lock(cmu_);
      cjob_shutdown_ = true;
    }
    c_cv_.notify_all();
    compactor_.join();
  }
}

void SearchEngine::wait_compaction() {
  if (!compactor_.joinable()) return;
  std::unique_lock lock(cmu_);
  c_cv_.wait(lock, [this] { return !cjob_ready_ && !cjob_busy_; });
}

SearchTree::NodeArchiver SearchEngine::make_archiver() {
  // res_.tt is the active table in both modes (private: set in the ctor;
  // shared: supplied by the lane owner). Archiving into a SHARED table is
  // the cross-game graft path: the subtree this game discards on
  // advance_root() re-enters every sibling game's searches warm.
  if (res_.tt == nullptr) return {};
  return [this](NodeId id) {
    const Node& n = tree_.node(id);
    // Only fully expanded nodes with a recorded position memo carry
    // archivable statistics. The root's priors are Dirichlet-noised during
    // self-play — never fold those into the table.
    if (n.hash == 0 || n.num_edges <= 0 ||
        n.state.load(std::memory_order_acquire) != ExpandState::kExpanded) {
      return;
    }
    if (cfg_.mcts.root_noise && id == tree_.root()) return;
    TtEdge edges[64];
    std::vector<TtEdge> heap;
    TtEdge* out = edges;
    if (n.num_edges > 64) {
      heap.resize(static_cast<std::size_t>(n.num_edges));
      out = heap.data();
    }
    for (std::int32_t i = 0; i < n.num_edges; ++i) {
      const Edge& e = tree_.edge(n.first_edge + i);
      out[i].action = e.action;
      out[i].prior = e.prior;
      out[i].visits = e.visits.load(std::memory_order_relaxed);
    }
    res_.tt->store(n.hash, n.value, /*depth=*/0, out, n.num_edges,
                   /*release_inflight=*/false);
  };
}

void SearchEngine::advance_tt_clock() {
  if (res_.tt == nullptr) return;
  if (res_.tt_shared) {
    // Lane-level monotonic move counter: every attached engine ticks the
    // shared clock forward on its own move/reset boundary; nobody ever
    // writes an absolute epoch into it.
    res_.tt->bump_generation();
  } else {
    res_.tt->set_generation(tree_.epoch());
  }
}

void SearchEngine::run_advance(int action) {
  obs::SpanScope span("advance_root", "mcts");
  const bool kept = tree_.advance_root(action, make_archiver());
  advance_tt_clock();
  pending_reuse_ = kept;
  reusable_visits_ = kept ? tree_.root_visit_total() : 0;
  if (span.active()) {
    span.arg("action", static_cast<double>(action));
    span.arg("kept", kept ? 1.0 : 0.0);
    span.arg("reused_visits", static_cast<double>(reusable_visits_));
    span.arg("where", compactor_.joinable() ? "background" : "inline");
  }
}

void SearchEngine::compactor_loop() {
  bool thread_named = false;
  // Watchdog heartbeat: beaten once per compaction job; waiting for work
  // is marked idle so an engine parked between moves never reads as hung.
  obs::HeartbeatLease hb("engine.compactor");
  for (;;) {
    int action;
    {
      std::unique_lock lock(cmu_);
      {
        obs::IdleScope idle(hb.get());
        c_cv_.wait(lock, [this] { return cjob_ready_ || cjob_shutdown_; });
      }
      if (cjob_shutdown_ && !cjob_ready_) return;
      cjob_ready_ = false;
      cjob_busy_ = true;
      action = cjob_action_;
    }
    if (!thread_named && obs::tracing_enabled()) {
      obs::set_thread_name("engine.compactor");
      thread_named = true;
    }
    run_advance(action);
    hb->beat();  // one unit of progress = one compacted advance
    {
      // The lock both clears busy and publishes run_advance()'s writes
      // (tree swap, TT generation, reuse flags) to whoever joins next.
      std::lock_guard lock(cmu_);
      cjob_busy_ = false;
    }
    c_cv_.notify_all();
  }
}

int SearchEngine::batch_threshold() const {
  return res_.batch != nullptr ? res_.batch->batch_threshold()
                               : cfg_.batch_threshold;
}

void SearchEngine::rebuild_driver(Scheme scheme, int workers,
                                  int batch_threshold) {
  // The driver is rebuilt, the arena is not: the new scheme inherits the
  // tree exactly as the old scheme left it.
  MctsConfig mcts = cfg_.mcts;
  if (cfg_.adapt && cfg_.adaptive.tune_virtual_loss) {
    // WU-UCT follow-up: VL tracks the in-flight parallelism of the
    // installed configuration, applied through the driver config exactly
    // like the batch threshold below. When the queue is service-owned
    // (manage_batch_threshold off) the plan's B is NOT applied to it, so
    // VL must follow the queue's actual dispatch granularity instead.
    int vl_batch = batch_threshold;
    if (res_.batch != nullptr && !cfg_.manage_batch_threshold) {
      vl_batch = res_.batch->batch_threshold();
    }
    mcts.virtual_loss =
        controller_.planned_virtual_loss(scheme, workers, vl_batch);
    mcts.vl_mode = controller_.planned_vl_mode(scheme, workers, vl_batch);
  }
  driver_ = make_search(scheme, mcts, workers, res_, &tree_);
  if (res_.batch != nullptr && cfg_.manage_batch_threshold) {
    // §3.3: shared-tree batches are always N; local-tree uses the tuned B.
    const int threshold =
        scheme == Scheme::kSharedTree ? workers : std::max(1, batch_threshold);
    res_.batch->set_batch_threshold(threshold);
  }
}

SearchResult SearchEngine::search(const Game& env) {
  wait_compaction();
  obs::SpanScope span("engine.search", "mcts");
  EngineMoveStats ms;
  ms.move = move_index_;
  ms.scheme = driver_->scheme();
  ms.workers = driver_->workers();
  ms.batch_threshold = batch_threshold();
  ms.virtual_loss = driver_->config().virtual_loss;
  ms.vl_mode = driver_->config().vl_mode;

  // Tree-reuse budget credit: visits already banked at the (advanced) root
  // count toward this move's playout target.
  int budget = cfg_.mcts.num_playouts;
  if (pending_reuse_) {
    ms.reused_tree = true;
    ms.reused_visits = reusable_visits_;
    if (cfg_.count_reused_visits) {
      budget = std::max<int>(
          cfg_.min_playouts,
          budget - static_cast<int>(std::min<std::int64_t>(
                       reusable_visits_, cfg_.mcts.num_playouts)));
    }
    driver_->set_reuse_next(true);
  }
  ms.playout_budget = budget;
  driver_->mutable_config().num_playouts = budget;

  SearchResult result = driver_->search(env);
  driver_->mutable_config().num_playouts = cfg_.mcts.num_playouts;
  pending_reuse_ = false;
  reusable_visits_ = 0;
  ms.metrics = result.metrics;

  if (cfg_.adapt) {
    if (cost_feed_) {
      controller_.observe_costs(cost_feed_(move_index_));
    } else {
      controller_.observe(result.metrics);
    }
    const AdaptivePlan plan = controller_.plan();
    ms.predicted_us = plan.predicted_us;
    ms.current_predicted_us = plan.current_predicted_us;
    if (plan.switched) {
      // Only the GPU-platform controller tunes B (Algorithm 4); the CPU
      // decision always reports batch_size = 1, which must not clobber the
      // configured evaluator threshold.
      const int batch = cfg_.adaptive.gpu ? plan.batch_size
                                          : cfg_.batch_threshold;
      rebuild_driver(plan.scheme, plan.workers, batch);
      ms.switched = true;
      ++switches_;
      // The adaptive controller's Eq. 3–6 re-decision as a timeline marker:
      // the committed (scheme, N, B) this engine runs from the next move.
      obs::emit_instant("scheme_switch", "mcts",
                        {{"N", plan.workers},
                         {"B", batch},
                         {"scheme", scheme_cname(plan.scheme)},
                         {"predicted_us", plan.predicted_us}});
    }
  }
  ms.next_scheme = driver_->scheme();
  ms.next_workers = driver_->workers();
  ms.next_batch_threshold = batch_threshold();
  ms.next_virtual_loss = driver_->config().virtual_loss;

  if (span.active()) {
    span.arg("move", static_cast<double>(ms.move));
    span.arg("playouts", static_cast<double>(ms.playout_budget));
    span.arg("N", static_cast<double>(ms.workers));
    span.arg("scheme", scheme_cname(ms.scheme));
  }
  log_.push_back(ms);
  ++move_index_;
  return result;
}

void SearchEngine::advance(int action) {
  wait_compaction();
  if (!cfg_.reuse_tree) {
    tree_.reset();
    advance_tt_clock();
    pending_reuse_ = false;
    reusable_visits_ = 0;
    return;
  }
  if (compactor_.joinable()) {
    {
      std::lock_guard lock(cmu_);
      cjob_action_ = action;
      cjob_ready_ = true;
    }
    c_cv_.notify_all();
    return;
  }
  run_advance(action);
}

void SearchEngine::reset_game() {
  wait_compaction();
  tree_.reset();
  if (tt_ != nullptr && !cfg_.tt_keep_across_games) {
    // Private table only: a lane-shared table's entries belong to the
    // whole lane (cross-game carry-over is its point) and its lifecycle —
    // clearing on weight updates — is owned by EvaluatorPool::invalidate.
    tt_->clear();
  }
  advance_tt_clock();
  pending_reuse_ = false;
  reusable_visits_ = 0;
  // Bound the adaptation trace across long runs (thousands of episodes):
  // keep only the most recent entries. Safe here — episode consumers slice
  // the log only after their episode ends, and every episode starts with
  // reset_game().
  constexpr std::size_t kMaxLogEntries = 4096;
  if (log_.size() > kMaxLogEntries) {
    log_.erase(log_.begin(),
               log_.end() - static_cast<std::ptrdiff_t>(kMaxLogEntries));
  }
}

}  // namespace apm

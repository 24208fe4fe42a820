#pragma once
// Generic color-swap-paired match gate — the evidence protocol behind every
// "does this change alter play?" question in the serving stack.
//
// The precision gate (serve/precision_gate.hpp) established the protocol
// for quantized lanes: race two configurations head to head in color-
// swapped pairs with shared per-pair openings, score the candidate as
// (wins + draws/2) / games, and pass it only within a configured band of
// parity. The protocol is not precision-specific — the same experiment
// answers any A/B over engines — so it lives here once, parameterised by
// two GateSides, and the specific gates are thin adapters.
//
// Protocol (exactly the precision gate's, pinned by its tests):
//  * cfg.games rounds UP to whole pairs; both games of pair p start from
//    the same random opening drawn from Rng(cfg.seed + p * odd-constant),
//    cfg.opening_moves plies deep (a terminal opening skips the pair).
//  * Search seeds are SEAT-bound, not side-bound: the first mover of every
//    game searches with template seed + (4p + 1), the second mover with
//    template seed + (4p + 2) — so when the colors swap inside a pair each
//    seat's tie-breaking stream is reproduced and only the side occupying
//    it changes. The whole gate is a pure function of (sides, proto, cfg).
//  * Game 1 seats the candidate first, game 2 the baseline; a win for
//    whoever the candidate is counts toward candidate_wins either way.
//  * manage_batch_threshold is forced off on both sides (pool queues are
//    owner-tuned; gate engines must not re-tune them).
//
// Pass rule: candidate_score >= 0.5 − cfg.max_winrate_drop. A play-neutral
// candidate scores ≈ 0.5 by symmetry; a change that actually shifts play
// collapses the score long before a human reads the games.

#include <cstdint>
#include <string>

#include "eval/async_batch.hpp"
#include "eval/evaluator.hpp"
#include "games/game.hpp"
#include "mcts/engine.hpp"

namespace apm {

// One contender: an engine template plus the evaluation resource its
// engines submit to. Exactly one of `queue` / `evaluator` must be set.
// Side-specific search memory (e.g. a private TT with a candidate graft
// mode) is declared through `engine.tt` like any other engine option.
struct GateSide {
  std::string label;
  EngineConfig engine;
  AsyncBatchEvaluator* queue = nullptr;
  Evaluator* evaluator = nullptr;
};

struct MatchGateConfig {
  // Total games; rounded UP to a whole number of color-swapped pairs.
  int games = 8;
  // Random opening plies per pair (shared by both games of the pair).
  int opening_moves = 2;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  // Safety cap per game; 0 plays to terminal (a capped game is a draw).
  int max_moves = 0;
  // Pass band: candidate_score >= 0.5 − max_winrate_drop.
  double max_winrate_drop = 0.15;
};

struct MatchGateReport {
  std::string candidate;  // GateSide labels, echoed for the record
  std::string baseline;
  int games = 0;  // as played (skipped degenerate pairs excluded)
  int candidate_wins = 0;
  int candidate_losses = 0;
  int draws = 0;
  double candidate_score = 0.0;  // (wins + draws/2) / games
  bool pass = false;
};

// Races `candidate` against `baseline` on `proto`'s game, on the calling
// thread. Sides are taken by value: the gate owns its seat-seed rewrites.
MatchGateReport run_match_gate(const Game& proto, GateSide candidate,
                               GateSide baseline,
                               const MatchGateConfig& cfg);

}  // namespace apm

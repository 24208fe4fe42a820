#pragma once
// Shared types of the benchmark program: the run options, the metric list a
// workload reports, and the per-layer helpers every workload calls.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "games/game.hpp"
#include "nn/policy_value_net.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "support/rng.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // What the value is a share or rate of, with its sample count, and where
  // it comes from ("program-reported" or the benchmark's own probe).
  std::string base;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // correctness failures
  std::int64_t attempted = 0;       // games started
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  int busy_threads = 0;

  void add(std::string name, double value, std::string unit,
           std::string base) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(base)});
  }
  void fail(std::string what) { errors.push_back(std::move(what)); }
};

// Latency summary of a run's per-move wall samples (ms), one vector per
// repetition: the medians over repetitions of each repetition's p50 and
// p90. Fails the report when a repetition has fewer than ten samples beyond
// its p90. Also prints the deciles and the highest percentile with ten
// samples beyond it over all moves of the run.
void add_move_latency(Report& r,
                      const std::vector<std::vector<double>>& move_ms,
                      const std::string& source);

// Seed of the `round`-th input set of a run. Each round draws a fresh net
// and fresh game seeds, so one run averages over several inputs instead of
// reporting the quirks of a single random net.
inline std::uint64_t round_seed(std::uint64_t seed, int round) {
  std::uint64_t m = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(round);
  return apm::splitmix64(m);
}

// Repetitions that fill `seconds` when one takes `nominal_s` on the
// reference host (at least one). A run does a fixed amount of work for its
// arguments, so the inputs it plays and the memory it peaks at do not depend
// on how fast the host happens to be.
inline int reps_for(double seconds, double nominal_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_s)));
}

// The net-init seed a workload derives from a round seed.
inline std::uint64_t net_seed(std::uint64_t seed) {
  return apm::splitmix64(seed);
}

// Median of a small sample (0 for an empty one).
double median(const std::vector<double>& v);

// Peak resident set of this process so far (MiB).
double peak_rss_mb();

// Returns the heap that a torn-down repetition freed to the OS. Each
// repetition starts new threads, and the allocator keeps the freed arenas of
// old ones resident; without this the peak RSS would grow with the number
// of repetitions that fit in a run instead of measuring one repetition.
void release_freed_memory();

// Replays one recorded game on a fresh board and checks the program's
// outputs: each recorded state equals the replayed encoding, each pi is a
// distribution over that position's legal actions, z is the outcome from
// the mover's side, and the winner matches the replay. The played actions
// are recovered from the last-move plane (plane 2) of the next state; the
// final one is the argmax of the final pi. Returns an empty string when
// the game checks out, else the first problem found; `digest` receives a
// hash of (winner, plies, actions, pi bits).
struct RecordedMove {
  const std::vector<float>* state;
  const std::vector<float>* pi;
  float z;
};
std::string check_game(const apm::Game& proto,
                       const std::vector<RecordedMove>& moves, int winner,
                       int max_moves, std::uint64_t& digest);

// games.{clone,encode,apply}_us and their calls per move, from the Game
// decorator's spans.
void add_game_metrics(Report& r, const KindTotals& t, double moves);

// Closes a per-move budget (rows of layer time, ms per move, against the
// move wall `wall_ms` taken from `source`), prints it, fails the report when
// it counts time twice, and adds trace.unattributed_frac plus
// obs.trace_overhead_frac (traced against untraced moves/s).
void add_budget(Report& r, std::vector<BudgetRow> rows, double wall_ms,
                const std::string& source, double moves, double traced_rate,
                double plain_rate);

// nn / tensor layer timings by direct calls into the public layer API:
// appends nn.* and tensor.* metrics for `net` at batch 1 and at
// `traced_batch`, plus the int8 snapshot's forward cost per position.
void add_layer_metrics(Report& r, const apm::PolicyValueNet& net,
                       int traced_batch, std::uint64_t seed);

// Host and build fingerprint lines (printed before every result).
std::vector<std::string> fingerprint(const Options& opt);
int host_cpus();

// Workloads.
Report run_served(const Options& opt);
Report run_adaptive(const Options& opt);

}  // namespace perfbench

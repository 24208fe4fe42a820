#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hpp"

namespace perfbench {

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void add_move_latency(Report& r,
                      const std::vector<std::vector<double>>& move_ms,
                      const std::string& source) {
  std::vector<double> all, p50, p90;
  for (const std::vector<double>& rep : move_ms) {
    const auto beyond =
        samples_beyond(static_cast<std::int64_t>(rep.size()), 900);
    if (beyond < 10) {
      r.fail("a repetition has only " + std::to_string(beyond) +
             " move samples beyond p90 (need 10)");
    }
    p50.push_back(quantile(rep, 0.5));
    p90.push_back(quantile(rep, 0.9));
    all.insert(all.end(), rep.begin(), rep.end());
  }
  const auto n = static_cast<std::int64_t>(all.size());
  const std::string base = "median over " + std::to_string(move_ms.size()) +
                           " repetitions (" + std::to_string(n) +
                           " moves) of each repetition's percentile, " +
                           source;
  r.add("move_p50_ms", median(p50), "ms", base);
  r.add("move_p90_ms", median(p90), "ms", base);
  std::printf("latency deciles over all moves, ms:");
  for (int d = 1; d <= 9; ++d) {
    std::printf(" %.3f", quantile(all, d / 10.0));
  }
  std::printf("\n");
  const int top = highest_supported_percentile(n);
  if (top > 0) {
    std::printf("latency highest supported percentile p%g: %.4f ms "
                "(%lld moves, %lld beyond)\n",
                top / 10.0, quantile(all, top / 1000.0),
                static_cast<long long>(n),
                static_cast<long long>(samples_beyond(n, top)));
  }
}

void add_game_metrics(Report& r, const KindTotals& t, double moves) {
  const std::string mv =
      std::to_string(static_cast<long long>(moves)) + " traced moves";
  for (const auto& [name, kind] : {std::pair{"clone", SpanKind::kClone},
                                   std::pair{"encode", SpanKind::kEncode},
                                   std::pair{"apply", SpanKind::kApply}}) {
    const std::uint64_t calls = t.calls_of(kind);
    r.add(std::string("games.") + name + "_us",
          calls > 0 ? t.ns_of(kind) * 1e-3 / static_cast<double>(calls) : 0.0,
          "us", std::to_string(calls) + " probed calls");
    r.add(std::string("games.") + name + "_calls_per_move",
          static_cast<double>(calls) / moves, "1/move", mv);
  }
}

void add_budget(Report& r, std::vector<BudgetRow> rows, double wall_ms,
                const std::string& source, double moves, double traced_rate,
                double plain_rate) {
  const Budget b = close_budget(std::move(rows), wall_ms);
  std::printf("budget per move (ms), wall %.4f from %s:\n", b.wall_ms,
              source.c_str());
  for (const BudgetRow& row : b.rows) {
    std::printf("  %-22s %9.4f  %5.1f%%\n", row.layer.c_str(), row.ms,
                100.0 * row.ms / b.wall_ms);
  }
  std::printf("  %-22s %9.4f  %5.1f%%\n", "unattributed", b.unattributed_ms,
              100.0 * b.unattributed_ms / b.wall_ms);
  if (!b.closes) r.fail("per-move budget counts time twice");
  r.add("trace.unattributed_frac", b.unattributed_ms / b.wall_ms, "ratio",
        "move wall not covered by a layer row, " +
            std::to_string(static_cast<long long>(moves)) + " traced moves");
  r.add("obs.trace_overhead_frac",
        plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0.0, "ratio",
        "1 - traced/untraced moves_per_s (" + std::to_string(traced_rate) +
            " vs " + std::to_string(plain_rate) + ")");
}

namespace {

// The cell plane 2 (last placed stone/disc) marks, or -1.
int last_move_cell(const std::vector<float>& state, int cells) {
  const auto begin = state.begin() + 2 * static_cast<std::ptrdiff_t>(cells);
  const auto end = begin + cells;
  const auto it = std::find(begin, end, 1.0f);
  return it == end ? -1 : static_cast<int>(it - begin);
}

}  // namespace

std::string check_game(const apm::Game& proto,
                       const std::vector<RecordedMove>& moves, int winner,
                       int max_moves, std::uint64_t& digest) {
  std::unique_ptr<apm::Game> env = proto.clone();
  const int actions = env->action_count();
  const int cells = env->height() * env->width();
  std::vector<float> enc(env->encode_size());
  std::vector<int> legal;
  const int plies = static_cast<int>(moves.size());
  digest = fnv1a(&winner, sizeof(winner));
  digest = fnv1a(&plies, sizeof(plies), digest);
  if (winner < -1 || winner > 1) return "winner out of range";
  for (int i = 0; i < plies; ++i) {
    const RecordedMove& m = moves[static_cast<std::size_t>(i)];
    const std::string at = " at ply " + std::to_string(i);
    if (env->is_terminal()) return "game recorded past its end" + at;
    env->encode(enc.data());
    if (m.state->size() != enc.size() ||
        std::memcmp(m.state->data(), enc.data(),
                    enc.size() * sizeof(float)) != 0) {
      return "recorded state differs from the replayed position" + at;
    }
    const std::vector<float>& pi = *m.pi;
    if (static_cast<int>(pi.size()) != actions) return "pi has wrong size" + at;
    env->legal_actions(legal);
    std::vector<char> is_legal(static_cast<std::size_t>(actions), 0);
    for (const int a : legal) is_legal[static_cast<std::size_t>(a)] = 1;
    double sum = 0.0;
    for (int a = 0; a < actions; ++a) {
      const float p = pi[static_cast<std::size_t>(a)];
      if (!(p >= 0.0f) || !std::isfinite(p)) return "pi not a distribution" + at;
      if (p > 0.0f && !is_legal[static_cast<std::size_t>(a)]) {
        return "pi puts mass on an illegal action" + at;
      }
      sum += p;
    }
    if (std::fabs(sum - 1.0) > 1e-4) return "pi does not sum to 1" + at;
    if (m.z != -1.0f && m.z != 0.0f && m.z != 1.0f) return "z not in {-1,0,1}" + at;
    const int player = env->current_player();
    const float want_z =
        winner == 0 ? 0.0f : (winner == player ? 1.0f : -1.0f);
    if (m.z != want_z) return "z disagrees with the outcome" + at;

    int action = -1;
    if (i + 1 < plies) {
      action = last_move_cell(*moves[static_cast<std::size_t>(i) + 1].state,
                              cells);
      if (action < 0 || !env->is_legal(action)) {
        return "played action not recoverable or illegal" + at;
      }
      if (pi[static_cast<std::size_t>(action)] <= 0.0f) {
        return "played an action the search never visited" + at;
      }
    } else {
      // Final ply: the argmax of pi (or, for a sampled move, any visited
      // action) that reproduces the recorded outcome.
      std::vector<int> order;
      for (const int a : legal) {
        if (pi[static_cast<std::size_t>(a)] > 0.0f) order.push_back(a);
      }
      std::stable_sort(order.begin(), order.end(), [&pi](int a, int b) {
        return pi[static_cast<std::size_t>(a)] > pi[static_cast<std::size_t>(b)];
      });
      for (const int a : order) {
        std::unique_ptr<apm::Game> probe = env->clone();
        probe->apply(a);
        const bool ended = probe->is_terminal() ||
                           (max_moves > 0 && plies >= max_moves);
        if (ended && probe->winner() == winner) {
          action = a;
          break;
        }
      }
      if (action < 0) return "no final action reproduces the outcome" + at;
    }
    env->apply(action);
    digest = fnv1a(&action, sizeof(action), digest);
    digest = fnv1a(pi.data(), pi.size() * sizeof(float), digest);
  }
  const bool capped = max_moves > 0 && plies >= max_moves;
  if (!capped && !env->is_terminal()) return "game ended before terminal";
  if (env->winner() != winner) return "recorded winner differs from replay";
  return {};
}

}  // namespace perfbench

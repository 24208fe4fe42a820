#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::int64_t samples_beyond(std::int64_t n, int p_tenths) {
  if (n <= 0) return 0;
  return n * (1000 - p_tenths) / 1000;
}

int highest_supported_percentile(std::int64_t n) {
  int best = 0;
  for (const int p : {500, 900, 990, 999}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  const auto n = static_cast<std::int64_t>(values.size());
  if (n < 2) {
    if (n == 1) out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method='exclusive'): m = n + 1, cut point i at
  // j = i*m // 4 with weight delta = i*m - 4*j between data[j-1], data[j].
  const std::int64_t m = n + 1;
  double cuts[3];
  for (std::int64_t i = 1; i <= 3; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  out.q1 = cuts[0];
  out.q3 = cuts[2];
  out.median = n % 2 == 1
                   ? values[static_cast<std::size_t>(n / 2)]
                   : (values[static_cast<std::size_t>(n / 2 - 1)] +
                      values[static_cast<std::size_t>(n / 2)]) /
                         2.0;
  return out;
}

double quartile_spread(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  return q.median != 0.0 ? (q.q3 - q.q1) / std::fabs(q.median) : 0.0;
}

Attribution attribute(std::uint64_t start, std::uint64_t end,
                      const std::vector<Interval>& children, int layers) {
  Attribution out;
  out.covered_ns.assign(static_cast<std::size_t>(layers), 0.0);
  if (end <= start) return out;
  // Sweep: +1/-1 events per clipped child; between consecutive event times
  // the highest-priority open layer owns the segment.
  std::vector<std::pair<std::uint64_t, int>> events;  // (time, ±(layer+1))
  events.reserve(children.size() * 2);
  for (const Interval& c : children) {
    const std::uint64_t s = std::max(c.start, start);
    const std::uint64_t e = std::min(c.end, end);
    if (e <= s || c.layer < 0 || c.layer >= layers) continue;
    events.emplace_back(s, c.layer + 1);
    events.emplace_back(e, -(c.layer + 1));
  }
  std::sort(events.begin(), events.end());
  std::vector<int> open(static_cast<std::size_t>(layers), 0);
  std::uint64_t cursor = start;
  const auto flush_to = [&](std::uint64_t t) {
    if (t <= cursor) return;
    const double span = static_cast<double>(t - cursor);
    int owner = -1;
    for (int l = 0; l < layers; ++l) {
      if (open[static_cast<std::size_t>(l)] > 0) {
        owner = l;
        break;
      }
    }
    if (owner >= 0) {
      out.covered_ns[static_cast<std::size_t>(owner)] += span;
    } else {
      out.self_ns += span;
    }
    cursor = t;
  };
  for (const auto& [t, tag] : events) {
    flush_to(t);
    const int layer = (tag > 0 ? tag : -tag) - 1;
    open[static_cast<std::size_t>(layer)] += tag > 0 ? 1 : -1;
  }
  flush_to(end);
  return out;
}

Budget close_budget(std::vector<BudgetRow> rows, double wall_ms,
                    double tolerance) {
  Budget b;
  b.rows = std::move(rows);
  b.wall_ms = wall_ms;
  double sum = 0.0;
  for (const BudgetRow& r : b.rows) sum += r.ms;
  b.unattributed_ms = wall_ms - sum;
  b.closes = wall_ms > 0.0 && b.unattributed_ms >= -tolerance * wall_ms;
  return b;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench

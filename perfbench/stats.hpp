#pragma once
// The benchmark's own arithmetic: latency percentiles and the rule that
// decides which of them a sample supports, run-to-run spread, wall-clock
// attribution of a span tree to layers, and closure of a per-layer budget.
// Everything here is pure and covered by selftest.cpp.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
// empty one.
double quantile(std::vector<double> values, double q);

// Samples lying strictly beyond the p-th percentile of n samples, with p
// given in tenths of a percent (900 = p90): floor(n * (1000 - p) / 1000).
std::int64_t samples_beyond(std::int64_t n, int p_tenths);

// Highest of p50/p90/p99/p99.9 (returned in tenths of a percent) that keeps
// at least ten samples beyond it; 0 when even p50 does not.
int highest_supported_percentile(std::int64_t n);

// Quartiles exactly as Python's statistics.quantiles(values, n=4) gives
// them (the default 'exclusive' method). Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

// (q3 - q1) / median: the spread the benchmark's bounds are checked against.
double quartile_spread(const std::vector<double>& values);

// One closed interval of work on some thread, attributed to a layer.
// Smaller layer index = higher priority when intervals overlap.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int layer = 0;
};

// Wall-clock attribution of a parent span [start, end): every instant of
// the parent goes to the highest-priority layer with a child interval
// covering it, and to `self` when none does. Children are clipped to the
// parent; overlapping children on other threads are counted once.
struct Attribution {
  std::vector<double> covered_ns;  // per layer, exclusive
  double self_ns = 0.0;
};
Attribution attribute(std::uint64_t start, std::uint64_t end,
                      const std::vector<Interval>& children, int layers);

// A per-move budget: rows of layer self time that should add up to the
// measured wall. `unattributed` is wall minus the rows; the budget closes
// when it is non-negative within `tolerance` of the wall (a negative
// remainder means some time was counted twice).
struct BudgetRow {
  std::string layer;
  double ms = 0.0;
};
struct Budget {
  std::vector<BudgetRow> rows;
  double wall_ms = 0.0;
  double unattributed_ms = 0.0;
  bool closes = false;
};
Budget close_budget(std::vector<BudgetRow> rows, double wall_ms,
                    double tolerance = 0.02);

// FNV-1a over raw bytes: the per-game result digest.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 1469598103934665603ULL);

}  // namespace perfbench

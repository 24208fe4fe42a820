// Tests for the benchmark's own arithmetic (stats.hpp).
#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Highest percentile with at least ten samples beyond it.
  EXPECT(samples_beyond(100, 900) == 10);
  EXPECT(samples_beyond(99, 900) == 9);
  EXPECT(highest_supported_percentile(19) == 0);
  EXPECT(highest_supported_percentile(20) == 500);
  EXPECT(highest_supported_percentile(99) == 500);
  EXPECT(highest_supported_percentile(100) == 900);
  EXPECT(highest_supported_percentile(999) == 900);
  EXPECT(highest_supported_percentile(1000) == 990);
  EXPECT(highest_supported_percentile(10000) == 999);

  // Linear-interpolated quantiles.
  EXPECT(near(quantile({3, 1, 2}, 0.5), 2.0));
  EXPECT(near(quantile({1, 2, 3, 4}, 0.5), 2.5));
  EXPECT(near(quantile({10, 20}, 0.9), 19.0));
  EXPECT(quantile({}, 0.5) == 0.0);

  // Quartiles match Python's statistics.quantiles(values, n=4).
  {
    const Quartiles q = quartiles({1, 2});
    EXPECT(near(q.q1, 0.75) && near(q.median, 1.5) && near(q.q3, 2.25));
  }
  {
    const Quartiles q = quartiles({5, 1, 4, 2, 3});
    EXPECT(near(q.q1, 1.5) && near(q.median, 3.0) && near(q.q3, 4.5));
  }
  {
    const Quartiles q = quartiles({1.5, 2.5, 10, 4, 7, 3.25, 8, 9, 6, 5});
    EXPECT(near(q.q1, 3.0625) && near(q.median, 5.5) && near(q.q3, 8.25));
    EXPECT(near(quartile_spread({1.5, 2.5, 10, 4, 7, 3.25, 8, 9, 6, 5}),
                (8.25 - 3.0625) / 5.5));
  }

  // Self time on a synthetic span tree: parent [0, 100) with an eval child
  // [10, 40) on one thread, a game child [30, 60) on another (overlapping
  // the eval child by 10), and a game child sticking out past the parent.
  {
    const Attribution a = attribute(
        0, 100, {{10, 40, 0}, {30, 60, 1}, {90, 130, 1}, {200, 300, 0}}, 2);
    EXPECT(near(a.covered_ns[0], 30.0));          // eval wins the overlap
    EXPECT(near(a.covered_ns[1], 20.0 + 10.0));   // 40..60 and 90..100
    EXPECT(near(a.self_ns, 100.0 - 30.0 - 30.0));
    EXPECT(near(a.covered_ns[0] + a.covered_ns[1] + a.self_ns, 100.0));
  }
  {
    // Nested same-layer children on two threads are counted once.
    const Attribution a = attribute(0, 50, {{0, 50, 1}, {10, 20, 1}}, 2);
    EXPECT(near(a.covered_ns[1], 50.0) && near(a.self_ns, 0.0));
    const Attribution none = attribute(5, 5, {{0, 10, 0}}, 1);
    EXPECT(none.self_ns == 0.0 && none.covered_ns[0] == 0.0);
  }

  // Budget closure.
  {
    const Budget b = close_budget({{"eval", 4.0}, {"mcts", 5.0}}, 10.0);
    EXPECT(b.closes && near(b.unattributed_ms, 1.0));
    const Budget over = close_budget({{"eval", 6.0}, {"mcts", 5.0}}, 10.0);
    EXPECT(!over.closes && near(over.unattributed_ms, -1.0));
    const Budget within = close_budget({{"eval", 10.1}}, 10.0, 0.02);
    EXPECT(within.closes);
    EXPECT(!close_budget({}, 0.0).closes);
  }

  // Digest: order-sensitive and seedable.
  {
    const int a[2] = {1, 2}, b[2] = {2, 1};
    EXPECT(fnv1a(a, sizeof(a)) != fnv1a(b, sizeof(b)));
    EXPECT(fnv1a(a, sizeof(a)) == fnv1a(a, sizeof(a)));
  }

  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

// Tests of the benchmark's statistics code (src/stats.hpp).  Self-contained:
// prints each failed check and exits non-zero if any failed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::printf("FAILED line %d: %s\n", line, what);
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

#define CHECK(cond) check((cond), #cond, __LINE__)

using perfbench::highest_supported_percentile;
using perfbench::quantile_sorted;
using perfbench::samples_beyond;
using perfbench::summarize;

void test_quantiles() {
  const std::vector<double> four = {1, 2, 3, 4};
  CHECK(near(quantile_sorted(four, 0.0), 1.0));
  CHECK(near(quantile_sorted(four, 0.25), 1.75));
  CHECK(near(quantile_sorted(four, 0.5), 2.5));
  CHECK(near(quantile_sorted(four, 0.75), 3.25));
  CHECK(near(quantile_sorted(four, 1.0), 4.0));
  CHECK(near(quantile_sorted(std::vector<double>{}, 0.5), 0.0));
  CHECK(near(quantile_sorted(std::vector<double>{7}, 0.99), 7.0));
}

void test_summary() {
  // Unsorted input; 1..9 puts the quartiles on order statistics.
  const perfbench::Summary s = summarize({9, 1, 8, 2, 7, 3, 6, 4, 5});
  CHECK(s.count == 9);
  CHECK(near(s.min, 1.0));
  CHECK(near(s.q1, 3.0));
  CHECK(near(s.median, 5.0));
  CHECK(near(s.q3, 7.0));
  CHECK(near(s.max, 9.0));
  CHECK(s.tail_pct == 0.0);  // 9 samples cannot leave 10 beyond any rank

  const perfbench::Summary even = summarize({4, 1, 3, 2});
  CHECK(near(even.median, 2.5));

  const perfbench::Summary empty = summarize({});
  CHECK(empty.count == 0);
  CHECK(near(empty.median, 0.0));
}

void test_tail_percentile() {
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(999, 99.0) == 9);
  CHECK(samples_beyond(10000, 99.9) == 10);
  CHECK(samples_beyond(5, 100.0) == 0);

  CHECK(highest_supported_percentile(19) == 0.0);
  CHECK(highest_supported_percentile(20) == 50.0);
  CHECK(highest_supported_percentile(99) == 50.0);
  CHECK(highest_supported_percentile(100) == 90.0);
  CHECK(highest_supported_percentile(200) == 95.0);
  CHECK(highest_supported_percentile(999) == 95.0);
  CHECK(highest_supported_percentile(1000) == 99.0);
  CHECK(highest_supported_percentile(10000) == 99.9);

  // The summary reports the supported tail and its sample count.
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const perfbench::Summary s = summarize(samples);
  CHECK(s.count == 1000);
  CHECK(s.tail_pct == 99.0);
  CHECK(near(s.tail, quantile_sorted(samples, 0.99)));
  CHECK(near(s.p99, 990.01));
}

}  // namespace

int main() {
  test_quantiles();
  test_summary();
  test_tail_percentile();
  if (g_failures == 0) std::printf("all statistics checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

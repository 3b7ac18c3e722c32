// Self-tests of the benchmark's own statistics: percentile and tail-rule
// selection (including too few samples), span self time with nested,
// adjacent and overlapping children, the sim_rps_at_slo ladder search on
// synthetic monotone latency curves, and the FNV-1a digest. Exit 0 = pass.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_percentiles() {
  using perfbench::nearest_rank;
  expect(near(perfbench::median({3, 1, 2}), 2), "median of 3");
  expect(near(perfbench::median({4, 1, 3, 2}), 2), "median of 4 (lower)");
  expect(near(nearest_rank(one_to(100), 0.9), 90), "p90 of 1..100");
  expect(near(nearest_rank(one_to(100), 1.0), 100), "p100 is the max");
  expect(near(nearest_rank({7}, 0.99), 7), "single sample");
  bool threw = false;
  try {
    (void)nearest_rank({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "no samples throws");
}

void test_tail_rule() {
  using perfbench::tail_percentile;
  perfbench::Tail t = tail_percentile(one_to(200));
  expect(near(t.percentile, 90) && near(t.value, 180) && t.beyond == 20 &&
             t.meets_rule,
         "200 samples -> p90 with 20 beyond");
  t = tail_percentile(one_to(100));
  expect(near(t.percentile, 90) && near(t.value, 90) && t.beyond == 10,
         "100 samples -> p90");
  t = tail_percentile(one_to(99));
  expect(near(t.percentile, 75) && t.beyond >= 10, "99 samples -> p75");
  t = tail_percentile(one_to(2000));
  expect(near(t.percentile, 99) && t.beyond == 20, "2000 samples -> p99");
  t = tail_percentile(one_to(20000));
  expect(near(t.percentile, 99.9) && t.beyond == 20, "20000 samples -> p99.9");
  // Too few samples: no rung has 10 beyond, so the median is reported and
  // flagged.
  t = tail_percentile(one_to(15));
  expect(near(t.percentile, 50) && near(t.value, 8) && t.beyond == 7 &&
             !t.meets_rule && t.samples == 15,
         "15 samples -> flagged median");
  t = tail_percentile({5});
  expect(near(t.value, 5) && t.beyond == 0 && !t.meets_rule,
         "1 sample -> itself, flagged");
  t = tail_percentile(one_to(20));
  expect(near(t.percentile, 50) && t.beyond == 10 && t.meets_rule,
         "20 samples -> p50 exactly meets the rule");
}

void test_self_time() {
  using perfbench::Span;
  std::vector<Span> s;
  s.push_back({"root", 0, -1, 0, 10});
  s.push_back({"a", 0, 0, 1, 3});    // nested child with its own child
  s.push_back({"a1", 0, 1, 1.5, 2});
  s.push_back({"b", 0, 0, 3, 5});    // adjacent to a
  s.push_back({"c", 0, 0, 4, 6});    // overlaps b
  s.push_back({"d", 0, 0, 9, 12});   // runs past the parent's end
  const std::vector<double> self = perfbench::self_times_ms(s);
  // root: 10 - |[1,6] U [9,10]| = 10 - 6 = 4
  expect(near(self[0], 4), "root self time");
  expect(near(self[1], 1.5), "nested child self time");
  expect(near(self[2], 0.5), "leaf self time");
  expect(near(self[3], 2) && near(self[4], 2), "adjacent/overlapping leaves");
  std::vector<Span> lone{{"x", 1, -1, 2, 2.25}};
  expect(near(perfbench::self_times_ms(lone)[0], 0.25), "childless span");
}

void test_ladder() {
  // Synthetic monotone p99 curve: p99(rate k) = 1 + k^2/1000 ms, 5 ms limit.
  const auto curve = [](int k) { return 1.0 + k * k / 1000.0; };
  int probes = 0;
  int best = perfbench::ladder_search(
      100, [&](int k) { return curve(k) <= 5.0; }, &probes);
  expect(best == 63, "ladder finds the last rung under the limit");
  expect(probes <= 7, "ladder is a binary search");
  best = perfbench::ladder_search(100, [](int) { return true; });
  expect(best == 99, "all rungs pass -> top rung (capped)");
  best = perfbench::ladder_search(100, [](int) { return false; });
  expect(best == -1, "no rung passes -> -1");
  best = perfbench::ladder_search(1, [](int) { return true; });
  expect(best == 0, "single rung");
  // Step curve (rejections start at rung 40).
  best = perfbench::ladder_search(108, [](int k) { return k < 40; });
  expect(best == 39, "step curve");
}

void test_fnv() {
  perfbench::Fnv1a empty;
  expect(empty.value() == 0xcbf29ce484222325ULL, "FNV-1a offset basis");
  perfbench::Fnv1a a;
  a.bytes("a", 1);
  expect(a.value() == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");
  expect(a.hex() == "af63dc4c8601ec8c", "hex form");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_self_time();
  test_ladder();
  test_fnv();
  std::printf("perfbench selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

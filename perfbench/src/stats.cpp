#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t nearest_rank_index(std::int64_t n, double q) {
  if (n <= 0) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q not in (0, 1]");
  // Rank ceil(q * n), computed with a small slack so that e.g. 0.9 * 100
  // (= 90.00000000000001 in binary) still selects rank 90.
  auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  return rank - 1;
}

double nearest_rank(std::vector<double> xs, double q) {
  const std::int64_t i =
      nearest_rank_index(static_cast<std::int64_t>(xs.size()), q);
  std::nth_element(xs.begin(), xs.begin() + i, xs.end());
  return xs[static_cast<std::size_t>(i)];
}

double median(std::vector<double> xs) { return nearest_rank(std::move(xs), 0.5); }

Tail tail_percentile(std::vector<double> xs, std::int64_t min_beyond) {
  if (xs.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<std::int64_t>(xs.size());
  Tail t;
  t.samples = n;
  for (const double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
    const std::int64_t i = nearest_rank_index(n, p / 100.0);
    t.value = xs[static_cast<std::size_t>(i)];
    t.percentile = p;
    t.beyond = n - 1 - i;
    t.meets_rule = t.beyond >= min_beyond;
    if (t.meets_rule) break;
  }
  return t;
}

int ladder_search(int rungs, const std::function<bool(int)>& passes,
                  int* probes) {
  int count = 0;
  const auto probe = [&](int r) {
    ++count;
    return passes(r);
  };
  int lo = -1;     // highest rung known to pass
  int hi = rungs;  // lowest rung known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (probes != nullptr) *probes = count;
  return lo;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_start = 0;
    double run_end = -1;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Fnv1a::str(const std::string& s) {
  num(static_cast<std::int64_t>(s.size()));
  bytes(s.data(), s.size());
}

void Fnv1a::num(double v) { bytes(&v, sizeof v); }

void Fnv1a::num(std::int64_t v) { bytes(&v, sizeof v); }

std::string Fnv1a::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench

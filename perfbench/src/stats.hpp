// Statistics used by the benchmark's metrics: nearest-rank percentiles, the
// "highest percentile with at least ten samples beyond it" tail rule, the
// rate-ladder search behind sim_rps_at_slo, span self time, and the FNV-1a
// digest that pins simulated results. Pure functions; selftest.cpp covers
// each of them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction `q` (0 < q <= 1) of all samples are <= it. Throws on no samples.
double nearest_rank(std::vector<double> xs, double q);

double median(std::vector<double> xs);

/// Nearest-rank index (0-based, ascending order) of percentile q on n
/// samples.
std::int64_t nearest_rank_index(std::int64_t n, double q);

/// A tail statistic chosen by the rule: the highest percentile on a fixed
/// ladder (99.9, 99, 90, 75, 50) whose nearest-rank sample has at least
/// `min_beyond` samples ranked above it. With too few samples for any rung
/// the median is reported and `beyond` shows how few samples back it.
struct Tail {
  double value = 0;
  double percentile = 0;    ///< e.g. 90 for p90
  std::int64_t beyond = 0;  ///< samples ranked above the reported one
  std::int64_t samples = 0;
  bool meets_rule = false;  ///< beyond >= min_beyond
};

Tail tail_percentile(std::vector<double> xs, std::int64_t min_beyond = 10);

/// Highest rung index in [0, rungs) for which `passes` holds, assuming the
/// predicate is monotone (true up to some rung, false above it). Binary
/// search; returns -1 when rung 0 already fails. `probes` counts calls.
int ladder_search(int rungs, const std::function<bool(int)>& passes,
                  int* probes = nullptr);

/// One traced interval. Spans of one op share `op`; `parent` indexes the
/// enclosing span in the same log (-1 for a root).
struct Span {
  std::string name;
  std::int64_t op = -1;
  int parent = -1;
  double start_ms = 0;
  double end_ms = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union of the children's intervals, clipped
/// to the parent, so nested and adjacent children are each counted once).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// 64-bit FNV-1a.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s);
  void num(double v);
  void num(std::int64_t v);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace perfbench

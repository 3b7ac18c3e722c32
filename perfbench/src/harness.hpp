// Shared harness for the three workloads: run options, the in-memory span
// log of the traced run, the result sink, the round loop, and the helpers
// every workload uses to time ops and pin their simulated results.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "sim/counters.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where the result and span files go
  std::string commit = "unknown";
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Spans recorded by the benchmark around its calls into the libraries.
/// Kept in memory; main writes them out when the run ends. Recording is
/// switched per round, so a traced run can also time untraced rounds.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  void set_active(bool on) { active_ = on; }
  [[nodiscard]] bool active() const { return active_; }
  void set_op(std::int64_t op) { op_ = op; }

  /// Opens a span; returns its id, or -1 while recording is off.
  int open(std::string name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

 private:
  Clock::time_point epoch_;
  bool active_ = false;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Records a failed correctness check; the run's verdict becomes false.
  void fail(const std::string& why);

  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  tlp::report::Json detail = tlp::report::Json::object();
};

/// Host-side op accounting shared by all workloads.
struct OpLog {
  std::vector<double> ms;            ///< every timed op
  std::vector<std::vector<double>> by_round;  ///< the same, per round
  std::vector<double> traced_ms;     ///< ops of rounds with spans on
  std::vector<double> untraced_ms;   ///< ops of rounds with spans off
  double host_ms = 0;                ///< sum of ms
  std::int64_t sim_requests = 0;     ///< warp memory requests of those ops

  void add(int round, double op_ms, std::int64_t requests, bool traced) {
    ms.push_back(op_ms);
    if (by_round.size() <= static_cast<std::size_t>(round))
      by_round.resize(static_cast<std::size_t>(round) + 1);
    by_round[static_cast<std::size_t>(round)].push_back(op_ms);
    (traced ? traced_ms : untraced_ms).push_back(op_ms);
    host_ms += op_ms;
    sim_requests += requests;
  }
};

/// Everything a workload needs while it runs.
struct Ctx {
  const Options& opt;
  Result& res;
  SpanLog spans;
  OpLog ops;
  std::int64_t op_seq = 0;

  /// Starts op bookkeeping: counts the attempt and tags its spans.
  void begin_op() {
    ++res.attempted;
    spans.set_op(op_seq++);
  }
};

/// Runs `round(k)` for k = 0, 1, ... until at least `min_rounds` rounds have
/// run and one more round of mean length would overrun `seconds`. In a traced
/// run odd rounds record spans and even rounds do not, so the tracing
/// overhead is measured inside the same process. Returns the round count.
template <class RoundFn>
int run_rounds(Ctx& ctx, int min_rounds, RoundFn&& round) {
  const Clock::time_point t0 = Clock::now();
  int k = 0;
  for (;; ++k) {
    const double elapsed_s = ms_since(t0) / 1e3;
    if (k >= min_rounds && elapsed_s + elapsed_s / k > ctx.opt.seconds) break;
    ctx.spans.set_active(ctx.opt.trace && k % 2 == 1);
    round(k);
  }
  ctx.spans.set_active(false);
  return k;
}

/// Records a round's digest; a digest differing from round 0's fails the run.
void same_as_round0(Ctx& ctx, std::vector<std::string>& round_digests,
                    int round, const Fnv1a& digest);

/// Folds every field of a Metrics record into a digest.
void hash_metrics(Fnv1a& h, const tlp::sim::Metrics& m);

/// Sum of the warp memory requests of a profile's launches.
std::int64_t total_requests(const std::vector<tlp::sim::KernelRecord>& recs);

/// Median of a set of spans' durations; NaN when there are none.
double span_median_ms(const SpanLog& log, const std::string& name);

/// Runs `setup` repeatedly (at least 3 times, more while the reps total less
/// than 2 s, at most 25) and returns the median wall seconds; the state
/// of the last repetition is what the workload then uses.
template <class SetupFn>
double timed_setup(SetupFn&& setup) {
  std::vector<double> reps;
  double total = 0;
  while (reps.size() < 3 || (total < 2.0 && reps.size() < 25)) {
    const Clock::time_point t0 = Clock::now();
    setup();
    reps.push_back(ms_since(t0) / 1e3);
    total += reps.back();
  }
  return median(reps);
}

/// The host end-to-end metrics common to all workloads.
void report_host_metrics(Ctx& ctx, double setup_s, int rounds);

/// Workload entry points (one file each).
void run_paper_sweep(Ctx& ctx);
void run_serve_zipf(Ctx& ctx);
void run_lint_trace(Ctx& ctx);

/// Layer probes for a traced run: direct calls into each library layer the
/// workload's own ops do not exercise (probes.cpp).
void probe_replica_layers(Ctx& ctx);
void probe_serve_layers(Ctx& ctx);
void probe_analysis_layers(Ctx& ctx);

}  // namespace perfbench

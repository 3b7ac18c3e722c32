#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <limits>

namespace perfbench {

int SpanLog::open(std::string name) {
  if (!active_) return -1;
  Span s;
  s.name = std::move(name);
  s.op = op_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ms = ms_since(epoch_);
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ms = ms_since(epoch_);
  // Spans close in LIFO order (ScopedSpan); tolerate an early close.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

void Result::fail(const std::string& why) {
  if (failures.size() < 50) failures.push_back(why);
}

void same_as_round0(Ctx& ctx, std::vector<std::string>& round_digests,
                    int round, const Fnv1a& digest) {
  round_digests.push_back(digest.hex());
  if (round_digests.back() != round_digests.front())
    ctx.res.fail("round " + std::to_string(round) + " sim digest " +
                 round_digests.back() + " differs from round 0 (" +
                 round_digests.front() + ")");
}

void hash_metrics(Fnv1a& h, const tlp::sim::Metrics& m) {
  h.num(static_cast<std::int64_t>(m.kernel_launches));
  for (const double v :
       {m.gpu_time_ms, m.bytes_load, m.bytes_store, m.bytes_atomic,
        m.bytes_dram, m.sectors_per_request, m.l1_hit_rate, m.scoreboard_stall,
        m.sm_utilization, m.achieved_occupancy, m.bytes_cache_hit,
        m.bytes_cache_miss})
    h.num(v);
  h.num(m.peak_device_bytes);
}

std::int64_t total_requests(const std::vector<tlp::sim::KernelRecord>& recs) {
  std::int64_t n = 0;
  for (const auto& r : recs) n += r.requests;
  return n;
}

double span_median_ms(const SpanLog& log, const std::string& name) {
  const std::vector<double> d = log.durations(name);
  return d.empty() ? std::numeric_limits<double>::quiet_NaN() : median(d);
}

void report_host_metrics(Ctx& ctx, double setup_s, int rounds) {
  Result& res = ctx.res;
  const OpLog& ops = ctx.ops;
  res.detail.set("rounds", rounds);
  res.detail.set("failed_share",
                 res.attempted > 0 ? static_cast<double>(res.failed) /
                                         static_cast<double>(res.attempted)
                                   : 1.0);
  if (ops.ms.empty()) return;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const Tail tail = tail_percentile(ops.ms);
  tlp::report::Json t = tlp::report::Json::object();
  t.set("percentile", tail.percentile);
  t.set("samples", tail.samples);
  t.set("samples_beyond", tail.beyond);
  t.set("meets_rule", tail.meets_rule);
  res.detail.set("op_ms_tail", std::move(t));
  tlp::report::Json seq = tlp::report::Json::array();
  for (const double v : ops.ms) seq.push_back(v);
  res.detail.set("op_ms", std::move(seq));

  res.metric("setup_s", setup_s, "s");
  // Median over rounds of each round's median op. A round is the same
  // work every time, so this is the median op of the workload; taking it
  // per round keeps a heterogeneous round (the sweep's 26 configs) from
  // putting the pooled median on the edge between two configs, where it
  // would be an extreme sample of one of them.
  std::vector<double> round_p50;
  for (const std::vector<double>& r : ops.by_round)
    if (!r.empty()) round_p50.push_back(median(r));
  res.detail.set("op_ms_p50_pooled", median(ops.ms));
  res.metric("op_ms_p50", median(round_p50), "ms");
  res.metric("op_ms_tail", tail.value, "ms");
  res.metric("sim_mreq_per_s",
             static_cast<double>(ops.sim_requests) / (ops.host_ms / 1e3) / 1e6,
             "Mreq/s");
  res.metric("peak_rss_mb", rss_mb, "MiB");

  if (ctx.opt.trace && !ops.traced_ms.empty() && !ops.untraced_ms.empty()) {
    res.layer("trace.span_overhead",
              median(ops.traced_ms) / median(ops.untraced_ms), "ratio");
    res.detail.set("op_spans",
                   static_cast<std::int64_t>(ctx.spans.spans().size()));
  }
}

}  // namespace perfbench

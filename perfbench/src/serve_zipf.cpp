// serve-zipf: replays of fixed-length Zipf(0.8) Poisson request streams over
// the OA replica, served by serve::Server with a presample FeatureCache.
// Open loop on the simulated clock, closed loop on the host (one replay after
// another). One op is serve::generate_traffic for the replay's seed plus a
// fresh Server::run. The replays cycle a small rate ladder; the nominal rung
// carries a mid-stream OOM storm that must cost retries, never answers.
// sim_p50/p99 pool the nominal replays' served latencies; sim_rps_at_slo is
// searched on the first round-0 replays, re-timed and laid end to end.
#include <cmath>
#include <cstring>
#include <memory>

#include "harness.hpp"
#include "replicas.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"
#include "sim/trace.hpp"

namespace perfbench {
namespace {

using namespace tlp;

constexpr std::int64_t kReplayRequests = 256;
constexpr std::int64_t kProbeRequests = 128;
constexpr double kSloP99Ms = 5.0;
// sim_rps_at_slo ladder: kLadderBaseRps * kLadderStep^k. The top rung
// (~69k req/s) is far past the saturation of the scaled device, so the
// reported rate is never capped by the ladder (checked every run).
constexpr double kLadderBaseRps = 1000;
constexpr double kLadderStep = 1.02;
constexpr int kLadderRungs = 215;
constexpr int kRefineSteps = 5;

struct Rung {
  double rps;
  bool storm;
};
constexpr Rung kRungs[] = {{250, false}, {1000, true}, {4000, false}};
constexpr int kNominal = 1;
// A round is kReplays independent replays, each with its own stream seed,
// replay j at rung kPattern[j % 6]: 4 low, 16 nominal, 4 high. Pooling many
// seeded streams keeps the metrics from hinging on one stream's hot set,
// and the nominal latency tail is pooled over 16 x 256 requests.
constexpr int kPattern[] = {0, 1, 1, 2, 1, 1};
constexpr int kReplays = 24;
// The SLO ladder searches the first kLadderReplays replays of round 0.
constexpr int kLadderReplays = 12;

/// The serving inputs. Held by pointer: the cache keeps the address of the
/// feature matrix it was built from.
struct World {
  Replica oa;
  models::ConvSpec spec;
  std::unique_ptr<serve::FeatureCache> cache;
  double warmup_ms = 0;
};

int rung_of(int replay) {
  return kPattern[replay % static_cast<int>(std::size(kPattern))];
}

serve::TrafficOptions traffic_options(std::uint64_t seed, int replay,
                                      std::int64_t requests) {
  serve::TrafficOptions t;
  t.num_requests = requests;
  t.mean_interarrival_ms = 1e3 / kRungs[rung_of(replay)].rps;
  t.zipf_alpha = 0.8;
  t.seed = mix_seed(seed, 100 + static_cast<std::uint64_t>(replay));
  return t;
}

serve::ServerOptions server_options(const World& w, bool storm,
                                    std::int64_t requests) {
  serve::ServerOptions s;
  s.engine.gpu = w.oa.gpu;
  if (storm) {
    serve::StormEvent on;
    on.at_request = requests / 4;
    on.plan.oom_every = 20;
    s.storms.push_back(on);
    s.storms.push_back({requests * 3 / 4, sim::FaultPlan{}});
  }
  return s;
}

std::unique_ptr<World> make_world(std::uint64_t seed) {
  auto w = std::make_unique<World>();
  w->oa = make_replica("OA", seed);
  w->spec = make_spec(models::ModelKind::kGcn, seed);
  const Clock::time_point t0 = Clock::now();
  w->cache = std::make_unique<serve::FeatureCache>(
      w->oa.g, w->oa.feat, traffic_options(seed, kNominal, kReplayRequests),
      serve::FeatureCacheOptions{});
  w->warmup_ms = ms_since(t0);
  return w;
}

serve::ServeResult serve_once(World& w, const serve::ServerOptions& sopts,
                              const std::vector<serve::Request>& traffic,
                              sim::AccessTrace* counter = nullptr) {
  w.cache->reset_stats();
  serve::Server server(sopts, w.cache.get());
  if (counter != nullptr) server.engine().device().attach_trace(counter);
  return server.run(traffic, w.spec);
}

/// Simulated server busy time: per executed batch, completion minus start.
/// Batches are runs of consecutive served responses sharing a start time.
double busy_ms(const std::vector<serve::Response>& rs) {
  double busy = 0;
  double start = -1;
  double end = 0;
  for (const serve::Response& r : rs) {
    if (!r.served()) continue;
    const double s = r.arrival_ms + r.queue_ms;
    const double e = r.arrival_ms + r.latency_ms;
    if (start >= 0 && std::abs(s - start) < 1e-9) {
      end = std::max(end, e);
      continue;
    }
    if (start >= 0) busy += end - start;
    start = s;
    end = e;
  }
  if (start >= 0) busy += end - start;
  return busy;
}

/// Bitwise comparison of rows served in both runs (tlpserve --verify).
std::int64_t mismatches(const std::vector<serve::Response>& a,
                        const std::vector<serve::Response>& b) {
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (!a[i].served() || !b[i].served()) continue;
    if (a[i].output.size() != b[i].output.size() ||
        std::memcmp(a[i].output.data(), b[i].output.data(),
                    a[i].output.size() * sizeof(float)) != 0)
      ++bad;
  }
  return bad;
}

/// Per-call host cost of the two per-request serving steps a replay does
/// outside Server::run: ego sampling and the cached feature gather.
void time_request_steps(World& w, const std::vector<serve::Request>& traffic,
                        const serve::TrafficOptions& t,
                        std::vector<double>& ego_us,
                        std::vector<double>& gather_us) {
  tensor::Tensor rows;
  for (const serve::Request& req : traffic) {
    Clock::time_point t0 = Clock::now();
    (void)serve::ego_subgraph(w.oa.g, req.query, t.hops, t.max_ego_vertices);
    ego_us.push_back(ms_since(t0) * 1e3);
    t0 = Clock::now();
    (void)w.cache->gather(req.ego.to_global, rows);
    gather_us.push_back(ms_since(t0) * 1e3);
  }
  w.cache->reset_stats();
}

/// The serving layers' simulated per-layer metrics, from one replay.
void report_sim_layers(Result& res, const serve::ServeResult& sr) {
  const serve::SloReport& r = sr.report;
  std::vector<double> queue;
  for (const serve::Response& x : sr.responses)
    if (x.served()) queue.push_back(x.queue_ms);
  res.layer("serve.cache_hit_ratio", r.cache_hit_ratio, "fraction");
  res.layer("serve.queue_ms_p50", queue.empty() ? 0 : nearest_rank(queue, 0.5),
            "ms");
  res.layer("serve.queue_ms_p99",
            queue.empty() ? 0 : nearest_rank(queue, 0.99), "ms");
  res.layer("serve.retried", static_cast<double>(r.retried), "count");
  res.layer("serve.degraded", static_cast<double>(r.degraded), "count");
  res.layer("serve.rejected", static_cast<double>(r.rejected), "count");
  res.layer("serve.fallback_attempts",
            static_cast<double>(r.fallback_attempts), "count");
  res.layer("serve.breaker_opens", static_cast<double>(r.breaker_opens),
            "count");
}

/// Host per-layer metrics shared by the workload and the probe.
void report_host_layers(Ctx& ctx, const std::vector<double>& ego_us,
                        const std::vector<double>& gather_us,
                        std::int64_t launches, std::int64_t requests,
                        double warmup_ms) {
  Result& res = ctx.res;
  res.layer("serve.traffic_ms", span_median_ms(ctx.spans, "serve.traffic"),
            "ms");
  res.layer("serve.run_ms", span_median_ms(ctx.spans, "serve.run"), "ms");
  res.layer("serve.ego_us_p50", median(ego_us), "us");
  res.layer("serve.ego_us_tail", tail_percentile(ego_us).value, "us");
  res.layer("serve.gather_us_p50", median(gather_us), "us");
  res.layer("serve.launches_per_req",
            static_cast<double>(launches) / static_cast<double>(requests),
            "count");
  res.layer("serve.warmup_ms", warmup_ms, "ms");
}

/// The round-0 replays re-timed to `rps` and laid end to end: one long
/// storm-free stream for the SLO ladder (Poisson arrivals scaled stay
/// Poisson; the sampled egos and rows are reused as generated).
class LadderStream {
 public:
  void append(const std::vector<serve::Request>& replay, double rps) {
    const double base = stream_.empty() ? 0 : gaps_.back() + 1;
    for (const serve::Request& r : replay) {
      stream_.push_back(r);
      stream_.back().id = static_cast<std::int64_t>(stream_.size()) - 1;
      stream_.back().deadline_ms = 0;
      gaps_.push_back(base + r.arrival_ms * rps / 1e3);
    }
  }
  const std::vector<serve::Request>& at(double rps) {
    for (std::size_t i = 0; i < stream_.size(); ++i)
      stream_[i].arrival_ms = gaps_[i] * 1e3 / rps;
    return stream_;
  }
  [[nodiscard]] bool empty() const { return stream_.empty(); }

 private:
  std::vector<serve::Request> stream_;
  std::vector<double> gaps_;  ///< arrival times in units of mean gaps
};

}  // namespace

void run_serve_zipf(Ctx& ctx) {
  const std::uint64_t seed = ctx.opt.seed;
  std::unique_ptr<World> world;
  std::vector<double> warmups;
  const double setup_s = timed_setup([&] {
    world.reset();
    world = make_world(seed);
    warmups.push_back(world->warmup_ms);
  });
  World& w = *world;

  std::vector<std::string> digests;
  std::int64_t requests_by_replay[kReplays] = {};
  std::int64_t launches = 0;
  std::int64_t served_total = 0;
  std::int64_t total = 0;
  std::int64_t unserved = 0;
  double round0_busy_ms = 0;
  std::vector<double> nominal_latency;
  serve::ServeResult nominal;
  LadderStream ladder;
  std::vector<double> ego_us, gather_us;

  const int rounds = run_rounds(ctx, 2, [&](int round) {
    Fnv1a digest;
    for (int j = 0; j < kReplays; ++j) {
      ctx.begin_op();
      const Rung& rung = kRungs[rung_of(j)];
      const std::string label = "replay " + std::to_string(j);
      try {
        const serve::TrafficOptions t =
            traffic_options(seed, j, kReplayRequests);
        const serve::ServerOptions sopts =
            server_options(w, rung.storm, kReplayRequests);
        std::vector<serve::Request> traffic;
        serve::ServeResult sr;
        const Clock::time_point t0 = Clock::now();
        {
          ScopedSpan op(ctx.spans, "op");
          {
            ScopedSpan s(ctx.spans, "serve.traffic");
            traffic = serve::generate_traffic(w.oa.g, w.oa.feat, t);
          }
          w.cache->reset_stats();
          ScopedSpan s(ctx.spans, "serve.run");
          serve::Server server(sopts, w.cache.get());
          sr = server.run(traffic, w.spec);
        }
        const double op_ms = ms_since(t0);

        const serve::SloReport& rep = sr.report;
        std::vector<std::string> bad;
        if (rep.unaccounted != 0) bad.push_back("SloReport::unaccounted != 0");
        if (rep.rejected + rep.failed > 0)
          bad.push_back(std::to_string(rep.rejected + rep.failed) +
                        " requests rejected or failed");
        total += rep.total;
        unserved += rep.rejected + rep.failed;

        if (round == 0) {
          // Warp requests of this replay, counted by a twin run with a
          // one-entry access trace (the trace only counts past its budget);
          // the twin must reproduce the report exactly.
          sim::AccessTrace counter(1);
          const serve::ServeResult twin =
              serve_once(w, sopts, traffic, &counter);
          if (twin.report.to_json().dump() != rep.to_json().dump())
            bad.push_back("counting twin diverged from the timed run");
          requests_by_replay[j] = counter.recorded() + counter.dropped();
          launches += static_cast<std::int64_t>(counter.kernels().size());
          served_total += rep.total;
          round0_busy_ms += busy_ms(sr.responses);
          if (rung.storm) {
            serve::ServerOptions clean = sopts;
            clean.storms.clear();
            const serve::ServeResult calm = serve_once(w, clean, traffic);
            const std::int64_t diff = mismatches(sr.responses, calm.responses);
            if (diff > 0)
              bad.push_back(std::to_string(diff) +
                            " storm rows differ from the storm-free replay");
            if (rep.retried == 0) bad.push_back("storm caused no retries");
            for (const serve::Response& r : sr.responses)
              if (r.served()) nominal_latency.push_back(r.latency_ms);
            if (j == kNominal) nominal = sr;
          }
          if (j < kLadderReplays) ladder.append(traffic, rung.rps);
        }
        ctx.ops.add(round, op_ms, requests_by_replay[j], ctx.spans.active());
        // Per-call timing of the request steps, on the first traced round.
        if (ctx.spans.active() && round == 1)
          time_request_steps(w, traffic, t, ego_us, gather_us);
        if (!bad.empty()) {
          ++ctx.res.failed;
          for (const std::string& b : bad) ctx.res.fail(label + ": " + b);
        }
        digest.str(rep.to_json().dump());
      } catch (const std::exception& e) {
        ++ctx.res.failed;
        ctx.res.fail(label + ": " + e.what());
      }
    }
    same_as_round0(ctx, digests, round, digest);
  });

  report_host_metrics(ctx, setup_s, rounds);
  ctx.res.detail.set("sim_digest", digests.empty() ? "" : digests.front());
  ctx.res.detail.set("failed_share_requests",
                     total > 0 ? static_cast<double>(unserved) /
                                     static_cast<double>(total)
                               : 1.0);
  if (ladder.empty() || nominal_latency.empty()) return;

  // sim_rps_at_slo: highest ladder rate whose p99 meets the limit with no
  // request rejected or failed.
  const serve::ServerOptions calm = server_options(w, false, 0);
  const auto rate = [](int k) {
    return kLadderBaseRps * std::pow(kLadderStep, k);
  };
  const auto meets_slo = [&](double rps) {
    const serve::SloReport r = serve_once(w, calm, ladder.at(rps)).report;
    return r.rejected == 0 && r.failed == 0 && r.unaccounted == 0 &&
           r.p99_ms <= kSloP99Ms;
  };
  int probes = 0;
  const int best =
      ladder_search(kLadderRungs, [&](int k) { return meets_slo(rate(k)); },
                    &probes);
  if (best < 0) ctx.res.fail("SLO missed at the lowest ladder rate");
  if (best == kLadderRungs - 1) ctx.res.fail("SLO met at the top ladder rate");
  // Refine between the bracketing rungs, so the result is not quantized to
  // the 2% ladder step.
  double lo = rate(std::max(best, 0));
  double hi = rate(std::min(best + 1, kLadderRungs - 1));
  for (int i = 0; i < kRefineSteps && best >= 0; ++i) {
    const double mid = (lo + hi) / 2;
    (meets_slo(mid) ? lo : hi) = mid;
  }
  ctx.res.detail.set("slo_p99_limit_ms", kSloP99Ms);
  ctx.res.detail.set("slo_ladder_probes", probes + kRefineSteps);

  ctx.res.metric("sim_gpu_ms", round0_busy_ms, "ms");
  ctx.res.metric("sim_p50_ms", nearest_rank(nominal_latency, 0.5), "ms");
  ctx.res.metric("sim_p99_ms", nearest_rank(nominal_latency, 0.99), "ms");
  ctx.res.metric("sim_rps_at_slo", best >= 0 ? lo : 0.0, "1/s");

  if (ctx.opt.trace) {
    report_host_layers(ctx, ego_us, gather_us, launches, served_total,
                       median(warmups));
    report_sim_layers(ctx.res, nominal);
    probe_replica_layers(ctx);
    probe_analysis_layers(ctx);
  }
}

void probe_serve_layers(Ctx& ctx) {
  SpanLog& spans = ctx.spans;
  spans.set_active(true);
  spans.set_op(-1);
  const std::unique_ptr<World> world = make_world(ctx.opt.seed);
  World& w = *world;
  const serve::TrafficOptions t =
      traffic_options(ctx.opt.seed, kNominal, kProbeRequests);
  const serve::ServerOptions sopts = server_options(w, true, kProbeRequests);
  std::vector<serve::Request> traffic;
  {
    ScopedSpan s(spans, "serve.traffic");
    traffic = serve::generate_traffic(w.oa.g, w.oa.feat, t);
  }
  sim::AccessTrace counter(1);
  serve::ServeResult sr;
  {
    ScopedSpan s(spans, "serve.run");
    sr = serve_once(w, sopts, traffic);
  }
  (void)serve_once(w, sopts, traffic, &counter);
  std::vector<double> ego_us, gather_us;
  time_request_steps(w, traffic, t, ego_us, gather_us);
  report_host_layers(ctx, ego_us, gather_us,
                     static_cast<std::int64_t>(counter.kernels().size()),
                     sr.report.total, w.warmup_ms);
  report_sim_layers(ctx.res, sr);
  spans.set_active(false);
}

}  // namespace perfbench

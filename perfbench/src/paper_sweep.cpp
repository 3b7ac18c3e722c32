// paper-sweep: the Table-5 matrix. Each of the four paper systems runs each
// model it supports on the OA and RD replicas; one op is one GnnSystem::run
// on a fresh sim::Device (modelled caches start empty, as in tlpbench).
// Every op is checked against models::reference_conv with tlpgnn_cli
// --check's comparator and against physical bounds on its counters.
#include <map>
#include <optional>

#include "harness.hpp"
#include "models/reference.hpp"
#include "replicas.hpp"
#include "systems/system.hpp"

namespace perfbench {
namespace {

using namespace tlp;

const char* const kSystems[] = {"tlpgnn", "dgl", "gnnadvisor", "featgraph"};

struct Config {
  int ds = 0;
  models::ModelKind kind = models::ModelKind::kGcn;
  std::string system;
  [[nodiscard]] std::string label(const std::vector<Replica>& reps) const {
    return system + "/" + models::model_name(kind) + "/" +
           reps[static_cast<std::size_t>(ds)].abbr;
  }
};

/// Counter checks made from outside the simulator: cache hits never exceed
/// accesses, GPU time is at least DRAM traffic over DRAM bandwidth, and
/// something was launched. Returns an empty string when all hold.
std::string physical_bounds(const sim::Device& dev, const sim::Metrics& m) {
  const auto& recs = dev.profiler().records();
  if (recs.empty() || m.kernel_launches < 1) return "no kernel launched";
  double dram = 0;
  for (const auto& r : recs) {
    if (r.l1_hits > r.l1_accesses) return "L1 hits > accesses in " + r.name;
    if (r.l2_hits > r.l2_accesses) return "L2 hits > accesses in " + r.name;
    dram += static_cast<double>(r.bytes_dram);
  }
  const sim::GpuSpec& gpu = dev.spec();
  const double floor_ms =
      dram / (gpu.dram_bytes_per_cycle * gpu.clock_ghz * 1e9) * 1e3;
  if (m.gpu_time_ms < floor_ms * (1 - 1e-9))
    return "GPU time below DRAM-bandwidth floor";
  return "";
}

}  // namespace

void run_paper_sweep(Ctx& ctx) {
  const std::uint64_t seed = ctx.opt.seed;
  std::vector<Replica> reps;
  const double setup_s = timed_setup([&] {
    reps.clear();
    reps.push_back(make_replica("OA", seed));
    reps.push_back(make_replica("RD", seed));
  });

  std::vector<Config> configs;
  for (int ds = 0; ds < static_cast<int>(reps.size()); ++ds) {
    for (const models::ModelKind kind : models::kAllModels) {
      for (const char* name : kSystems) {
        if (systems::make_system(name)->supports(
                kind, reps[static_cast<std::size_t>(ds)].spec->big4))
          configs.push_back({ds, kind, name});
      }
    }
  }
  std::map<models::ModelKind, models::ConvSpec> specs;
  for (const models::ModelKind kind : models::kAllModels)
    specs.emplace(kind, make_spec(kind, seed));

  // Reference outputs, computed once per (replica, model) off the op timer.
  std::map<std::pair<int, models::ModelKind>, tensor::Tensor> refs;
  std::vector<double> ref_ms;
  // Simulated results of round 0 (later rounds must reproduce them).
  double tlpgnn_gpu_ms = 0;
  std::vector<double> sim_op_ms;
  std::vector<std::string> digests;
  std::map<std::string, std::vector<double>> host_by_config;

  const int rounds = run_rounds(ctx, 2, [&](int round) {
    Fnv1a digest;
    for (const Config& c : configs) {
      ctx.begin_op();
      const Replica& r = reps[static_cast<std::size_t>(c.ds)];
      const models::ConvSpec& spec = specs.at(c.kind);
      const std::string label = c.label(reps);
      try {
        auto sys = systems::make_system(c.system);
        std::optional<sim::Device> dev;
        systems::RunResult rr;
        sim::Metrics m;
        const Clock::time_point t0 = Clock::now();
        {
          ScopedSpan op(ctx.spans, "op");
          {
            ScopedSpan s(ctx.spans, "sim.device_new");
            dev.emplace(r.gpu);
          }
          {
            ScopedSpan s(ctx.spans, "systems.run." + c.system);
            rr = sys->run(*dev, r.g, r.feat, spec);
          }
          {
            ScopedSpan s(ctx.spans, "sim.metrics");
            m = dev->metrics();
          }
        }
        const double op_ms = ms_since(t0);
        ctx.ops.add(round, op_ms, total_requests(dev->profiler().records()),
                    ctx.spans.active());
        host_by_config[label].push_back(op_ms);

        auto ref = refs.find({c.ds, c.kind});
        if (ref == refs.end()) {
          const Clock::time_point tr = Clock::now();
          ref = refs.emplace(std::make_pair(c.ds, c.kind),
                             models::reference_conv(r.g, r.feat, spec))
                    .first;
          ref_ms.push_back(ms_since(tr));
        }
        std::string bad;
        if (!tensor::allclose(rr.output, ref->second, 1e-3, 1e-4))
          bad = "output differs from models::reference_conv";
        else
          bad = physical_bounds(*dev, m);
        if (!bad.empty()) {
          ++ctx.res.failed;
          ctx.res.fail(label + ": " + bad);
        }

        digest.str(label);
        hash_metrics(digest, m);
        digest.num(rr.measured_ms);
        if (round == 0) {
          if (c.system == "tlpgnn") tlpgnn_gpu_ms += rr.gpu_time_ms;
          sim_op_ms.push_back(rr.measured_ms);
        }
      } catch (const std::exception& e) {
        ++ctx.res.failed;
        ctx.res.fail(label + ": " + e.what());
      }
    }
    same_as_round0(ctx, digests, round, digest);
  });

  report_host_metrics(ctx, setup_s, rounds);
  if (!sim_op_ms.empty()) {
    double total_sim_ms = 0;
    for (const double v : sim_op_ms) total_sim_ms += v;
    ctx.res.metric("sim_gpu_ms", tlpgnn_gpu_ms, "ms");
    ctx.res.metric("sim_p50_ms", nearest_rank(sim_op_ms, 0.5), "ms");
    ctx.res.metric("sim_p99_ms", nearest_rank(sim_op_ms, 0.99), "ms");
    ctx.res.metric("sim_rps_at_slo",
                   static_cast<double>(sim_op_ms.size()) * 1e3 / total_sim_ms,
                   "1/s");
  }
  ctx.res.detail.set("sim_digest", digests.empty() ? "" : digests.front());
  ctx.res.detail.set("configs", static_cast<std::int64_t>(configs.size()));
  ctx.res.detail.set("reference_ms_median",
                     ref_ms.empty() ? 0.0 : median(ref_ms));
  report::Json per = report::Json::object();
  for (const auto& [label, ms] : host_by_config) per.set(label, median(ms));
  ctx.res.detail.set("op_ms_p50_by_config", std::move(per));

  if (ctx.opt.trace) {
    probe_replica_layers(ctx);
    probe_serve_layers(ctx);
    probe_analysis_layers(ctx);
  }
}

}  // namespace perfbench

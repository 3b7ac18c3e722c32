// Replica layer probe of the traced run: direct, span-wrapped calls into the
// graph, sim, kernels, models and systems layers on the OA and RD replicas.
// Every workload runs it, so every traced run reports the same layer set.
#include <map>
#include <optional>

#include "harness.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/gather_pull.hpp"
#include "models/reference.hpp"
#include "replicas.hpp"
#include "systems/system.hpp"

namespace perfbench {
namespace {

using namespace tlp;

constexpr int kProbeReps = 5;

/// Simulated statistics of one system's GCN run, as per-layer metrics.
void report_sim_stats(Result& res, const std::string& suffix,
                      const sim::Device& dev, const sim::Metrics& m) {
  std::int64_t l1a = 0, l1h = 0, l2a = 0, l2h = 0, req = 0, sec = 0;
  for (const auto& r : dev.profiler().records()) {
    l1a += r.l1_accesses;
    l1h += r.l1_hits;
    l2a += r.l2_accesses;
    l2h += r.l2_hits;
    req += r.requests;
    sec += r.sectors;
  }
  const auto ratio = [](std::int64_t a, std::int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  res.layer("sim.l1_hit_rate." + suffix, ratio(l1h, l1a), "fraction");
  res.layer("sim.l2_hit_rate." + suffix, ratio(l2h, l2a), "fraction");
  res.layer("sim.sectors_per_req." + suffix, ratio(sec, req), "sectors");
  res.layer("sim.dram_mb." + suffix, m.bytes_dram / (1 << 20), "MiB");
  res.layer("sim.atomic_mb." + suffix, m.bytes_atomic / (1 << 20), "MiB");
  res.layer("sim.stall_cyc_per_instr." + suffix, m.scoreboard_stall,
            "cycles");
  res.layer("sim.occupancy." + suffix, m.achieved_occupancy, "fraction");
  res.layer("sim.launches." + suffix, m.kernel_launches, "count");
}

}  // namespace

void probe_replica_layers(Ctx& ctx) {
  SpanLog& spans = ctx.spans;
  spans.set_active(true);
  spans.set_op(-1);
  Result& res = ctx.res;
  const models::ConvSpec gcn = make_spec(models::ModelKind::kGcn, ctx.opt.seed);
  std::map<std::string, std::vector<double>> run_ms;

  for (const char* abbr : {"OA", "RD"}) {
    const std::string ds = abbr;
    const Replica r = make_replica(ds, ctx.opt.seed);
    res.layer("graph.build_ms." + ds, r.build_ms, "ms");

    std::int64_t requests = 0;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      std::optional<sim::Device> dev;
      {
        ScopedSpan s(spans, "sim.device_new");
        dev.emplace(r.gpu);
      }
      kernels::DeviceGraph dg;
      sim::DevPtr<float> feat;
      {
        ScopedSpan s(spans, "sim.upload." + ds);
        dg = kernels::upload_graph(*dev, r.g);
        feat = kernels::upload_features(*dev, r.feat);
      }
      const sim::DevPtr<float> out =
          dev->alloc_zeroed<float>(r.g.num_vertices() * kFeature);
      kernels::GatherPullKernel k(dg, feat, out, kFeature,
                                  kernels::SimpleConv{});
      {
        ScopedSpan s(spans, "kernels.gather_pull.launch." + ds);
        requests = dev->launch(k).requests;
      }
      {
        ScopedSpan s(spans, "sim.download." + ds);
        (void)kernels::download_features(*dev, out, r.g.num_vertices(),
                                         kFeature);
      }
      {
        ScopedSpan s(spans, "sim.metrics");
        (void)dev->metrics();
      }
    }
    const double launch_ms =
        span_median_ms(spans, "kernels.gather_pull.launch." + ds);
    res.layer("sim.upload_ms." + ds, span_median_ms(spans, "sim.upload." + ds),
              "ms");
    res.layer("sim.download_ms." + ds,
              span_median_ms(spans, "sim.download." + ds), "ms");
    res.layer("kernels.gather_pull.launch_ms." + ds, launch_ms, "ms");
    res.layer("kernels.gather_pull.ns_per_req." + ds,
              launch_ms * 1e6 / static_cast<double>(requests), "ns");
    {
      ScopedSpan s(spans, "models.reference." + ds);
      (void)models::reference_conv(r.g, r.feat, gcn);
    }
    res.layer("models.reference_ms." + ds,
              span_median_ms(spans, "models.reference." + ds), "ms");

    for (const char* name : {"tlpgnn", "dgl", "gnnadvisor", "featgraph"}) {
      auto sys = systems::make_system(name);
      if (!sys->supports(models::ModelKind::kGcn, r.spec->big4)) continue;
      sim::Device dev(r.gpu);
      const Clock::time_point t0 = Clock::now();
      systems::RunResult rr;
      {
        ScopedSpan s(spans, std::string("systems.run.") + name);
        rr = sys->run(dev, r.g, r.feat, gcn);
      }
      run_ms[name].push_back(ms_since(t0));
      const std::string sys_name = name;
      if (sys_name == "tlpgnn" || sys_name == "dgl")
        report_sim_stats(res, sys_name + "." + ds, dev, rr.metrics);
    }
  }
  res.layer("sim.device_new_us", span_median_ms(spans, "sim.device_new") * 1e3,
            "us");
  res.layer("sim.metrics_us", span_median_ms(spans, "sim.metrics") * 1e3, "us");
  for (const auto& [name, ms] : run_ms)
    res.layer("systems.run_ms." + name, median(ms), "ms");
  spans.set_active(false);
}

}  // namespace perfbench

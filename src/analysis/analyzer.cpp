#include "analysis/analyzer.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "models/model.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "sim/device.hpp"
#include "systems/system.hpp"
#include "tensor/tensor.hpp"

namespace tlp::analysis {

std::vector<LintDataset> default_lint_datasets() {
  std::vector<LintDataset> ds;
  {
    Rng rng(101);
    ds.push_back({"pl2k", graph::power_law(2048, 16384, 2.2, rng), 64, 13});
  }
  {
    Rng rng(202);
    ds.push_back({"rmat1k", graph::rmat(1024, 8192, rng), 64, 17});
  }
  return ds;
}

std::vector<std::string> lint_system_names() {
  return systems::system_names();
}

sim::GpuSpec lint_gpu_spec() { return sim::GpuSpec::v100_scaled(16); }

LintReport lint_systems(const std::vector<std::string>& systems,
                        const std::vector<LintDataset>& datasets,
                        const PassOptions& opt) {
  LintReport report;
  for (const std::string& name : systems) {
    for (const LintDataset& ds : datasets) {
      auto sys = systems::make_system(name);
      Rng rng(ds.seed);
      const tensor::Tensor feat =
          tensor::Tensor::random(ds.graph.num_vertices(), ds.feature_size,
                                 rng);
      // GCN runs everywhere; GAT adds the fused/softmax pipelines on the
      // systems that support it. Together they launch every kernel family.
      for (const models::ModelKind kind :
           {models::ModelKind::kGcn, models::ModelKind::kGat}) {
        if (!sys->supports(kind, /*big_graph=*/false)) continue;
        Rng spec_rng(ds.seed + 1);
        const models::ConvSpec spec =
            models::ConvSpec::make(kind, ds.feature_size, spec_rng);
        sim::Device dev(opt.gpu);
        sim::AccessTrace trace(opt.trace_max_bytes);
        dev.attach_trace(&trace);
        (void)sys->run(dev, ds.graph, feat, spec);
        dev.attach_trace(nullptr);

        std::vector<Diagnostic> diags = analyze_trace(trace, opt);
        for (Diagnostic& d : diags) {
          d.system = sys->name();
          d.dataset = ds.name;
        }
        report.diagnostics.insert(report.diagnostics.end(),
                                  std::make_move_iterator(diags.begin()),
                                  std::make_move_iterator(diags.end()));
        report.trace_truncated |= trace.truncated();
        report.launches += static_cast<std::int64_t>(trace.kernels().size());
        ++report.runs;
      }
    }
  }
  sort_diagnostics(report.diagnostics);
  return report;
}

LintReport lint_serve(const PassOptions& opt) {
  // Small deterministic session: enough traffic to batch, one OOM storm so
  // the retry + partitioned-fallback ladder executes under trace (otherwise
  // the fallback gather path would ship unlinted), then calm again.
  Rng graph_rng(303);
  const graph::Csr g = graph::power_law(1024, 8192, 2.2, graph_rng);
  Rng feat_rng(304);
  const tensor::Tensor feat =
      tensor::Tensor::random(g.num_vertices(), 32, feat_rng);
  Rng spec_rng(305);
  const models::ConvSpec spec =
      models::ConvSpec::make(models::ModelKind::kGcn, 32, spec_rng);

  serve::TrafficOptions topts;
  topts.num_requests = 24;
  topts.arrival = serve::ArrivalProcess::kPoisson;
  topts.mean_interarrival_ms = 1.0;
  topts.zipf_alpha = 0.8;
  topts.hops = 1;
  topts.max_ego_vertices = 96;
  topts.seed = 11;
  const std::vector<serve::Request> traffic =
      serve::generate_traffic(g, feat, topts);

  serve::ServerOptions sopts;
  sopts.engine.gpu = opt.gpu;
  {
    serve::StormEvent storm;
    storm.at_request = 8;
    storm.plan.oom_every = 60;
    storm.plan.oom_burst_len = 4;
    sopts.storms.push_back(storm);
    serve::StormEvent calm;
    calm.at_request = 16;  // empty plan ends the storm
    sopts.storms.push_back(calm);
  }

  // The pre-sampling feature cache serves this session too, with its own
  // trace: the cache device's arena offsets overlap the engine's, so the
  // two traces must stay separate for the passes' interval bookkeeping. Its
  // trace is attached at construction so the pinned region's allocation
  // (TLP_SITE "serve_feature_cache") is tracked — a regression that stops
  // gathering from the region shows up as a TLP-LIFE-007 dead buffer.
  sim::AccessTrace cache_trace(opt.trace_max_bytes);
  serve::FeatureCacheOptions copts;
  copts.cache_ratio = 0.10;
  serve::FeatureCache cache(g, feat, topts, copts, &cache_trace);

  serve::Server server(sopts, &cache);
  sim::AccessTrace trace(opt.trace_max_bytes);
  server.engine().device().attach_trace(&trace);
  (void)server.run(traffic, spec);
  server.engine().device().attach_trace(nullptr);
  cache.device().attach_trace(nullptr);

  LintReport report;
  std::vector<Diagnostic> diags = analyze_trace(trace, opt);
  std::vector<Diagnostic> cache_diags = analyze_trace(cache_trace, opt);
  diags.insert(diags.end(), std::make_move_iterator(cache_diags.begin()),
               std::make_move_iterator(cache_diags.end()));
  for (Diagnostic& d : diags) {
    d.system = "serve";
    d.dataset = "pl1k-storm";
  }
  report.diagnostics = std::move(diags);
  report.trace_truncated = trace.truncated() || cache_trace.truncated();
  report.launches = static_cast<std::int64_t>(trace.kernels().size());
  report.runs = 1;
  sort_diagnostics(report.diagnostics);
  return report;
}

}  // namespace tlp::analysis

// lint-trace: the tlplint matrix — every lint system on both stock lint
// graphs, GCN and (where supported) GAT, on lint_gpu_spec(). One op is a
// GnnSystem::run with an AccessTrace attached plus analysis::analyze_trace.
// The seed draws an isomorphic vertex relabeling of each lint graph and its
// features, so simulated numbers vary with the seed while the kernels'
// pathologies stay. Every trace must be complete (never truncated).
#include <algorithm>
#include <map>
#include <memory>

#include "analysis/analyzer.hpp"
#include "analysis/pass.hpp"
#include "graph/reorder.hpp"
#include "harness.hpp"
#include "replicas.hpp"
#include "sim/device.hpp"
#include "sim/trace.hpp"
#include "systems/system.hpp"

namespace perfbench {
namespace {

using namespace tlp;

struct LintInput {
  std::string name;
  graph::Csr g;
  tensor::Tensor feat;
};

std::vector<LintInput> make_inputs(std::uint64_t seed) {
  std::vector<LintInput> out;
  for (analysis::LintDataset& ds : analysis::default_lint_datasets()) {
    LintInput in;
    in.name = ds.name;
    Rng rng(mix_seed(seed, ds.seed));
    graph::Permutation perm = graph::identity_order(ds.graph.num_vertices());
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    in.g = graph::apply_permutation(ds.graph, perm);
    in.feat = tensor::Tensor::random(in.g.num_vertices(), ds.feature_size, rng);
    out.push_back(std::move(in));
  }
  return out;
}

struct Config {
  std::string system;
  int input = 0;
  models::ModelKind kind = models::ModelKind::kGcn;
};

std::vector<Config> lint_matrix(const std::vector<std::string>& names,
                                const std::vector<LintInput>& inputs) {
  std::vector<Config> out;
  for (const std::string& name : names) {
    for (int i = 0; i < static_cast<int>(inputs.size()); ++i) {
      for (const models::ModelKind kind :
           {models::ModelKind::kGcn, models::ModelKind::kGat}) {
        if (systems::make_system(name)->supports(kind, false))
          out.push_back({name, i, kind});
      }
    }
  }
  return out;
}

/// Per-layer accumulators of the analysis layer over one round.
struct AnalysisLayers {
  std::map<std::string, double> pass_ms;
  double traced_run_ms = 0;
  double untraced_run_ms = 0;
  double trace_mb = 0;
  std::int64_t diagnostics = 0;
};

models::ConvSpec spec_for(const Config& c, const LintInput& in,
                          std::uint64_t seed) {
  Rng rng(mix_seed(seed, 200 + static_cast<std::uint64_t>(c.kind)));
  return models::ConvSpec::make(c.kind, in.feat.cols(), rng);
}

/// What one lint op produced.
struct LintOp {
  systems::RunResult run;
  sim::Metrics metrics;
  std::int64_t requests = 0;
  std::vector<analysis::Diagnostic> diags;
  std::unique_ptr<sim::AccessTrace> trace;
  double ms = 0;         ///< the whole op
  double record_ms = 0;  ///< the traced GnnSystem::run alone
};

LintOp lint_op(Ctx& ctx, const Config& c, const LintInput& in,
               const analysis::PassOptions& popt, std::uint64_t seed) {
  LintOp op;
  const models::ConvSpec spec = spec_for(c, in, seed);
  auto sys = systems::make_system(c.system);
  sim::Device dev(popt.gpu);
  op.trace = std::make_unique<sim::AccessTrace>(popt.trace_max_bytes);
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(ctx.spans, "op");
    dev.attach_trace(op.trace.get());
    {
      ScopedSpan r(ctx.spans, "analysis.record");
      op.run = sys->run(dev, in.g, in.feat, spec);
    }
    dev.attach_trace(nullptr);
    op.record_ms = ms_since(t0);
    ScopedSpan a(ctx.spans, "analysis.analyze");
    op.diags = analysis::analyze_trace(*op.trace, popt);
  }
  op.ms = ms_since(t0);
  op.metrics = dev.metrics();
  op.requests = total_requests(dev.profiler().records());
  for (analysis::Diagnostic& d : op.diags) {
    d.system = sys->name();
    d.dataset = in.name;
  }
  return op;
}

/// Traced-round extras for one op: an untraced twin run (for the recording
/// overhead) and each stock pass timed on its own over the op's trace.
void measure_analysis_layers(const LintOp& op, const Config& c,
                             const LintInput& in,
                             const analysis::PassOptions& popt,
                             std::uint64_t seed, AnalysisLayers& acc) {
  const sim::AccessTrace& trace = *op.trace;
  {
    auto sys = systems::make_system(c.system);
    sim::Device dev(popt.gpu);
    const Clock::time_point t0 = Clock::now();
    (void)sys->run(dev, in.g, in.feat, spec_for(c, in, seed));
    acc.untraced_run_ms += ms_since(t0);
  }
  acc.traced_run_ms += op.record_ms;
  acc.trace_mb = std::max(
      acc.trace_mb,
      (static_cast<double>(trace.recorded()) * sizeof(sim::TraceAccess) +
       static_cast<double>(trace.events().size()) * sizeof(sim::MemEvent)) /
          (1 << 20));
  std::vector<analysis::Diagnostic> sink;
  for (const auto& pass : analysis::default_passes()) {
    const Clock::time_point t0 = Clock::now();
    for (const sim::KernelTrace& kt : trace.kernels()) pass->run(kt, popt, sink);
    acc.pass_ms[pass->name()] += ms_since(t0);
  }
  for (const auto& pass : analysis::default_whole_trace_passes()) {
    const Clock::time_point t0 = Clock::now();
    pass->run(trace, popt, sink);
    acc.pass_ms[pass->name()] += ms_since(t0);
  }
}

void report_analysis_layers(Ctx& ctx, const std::vector<AnalysisLayers>& rs) {
  Result& res = ctx.res;
  if (rs.empty()) return;
  std::map<std::string, std::vector<double>> pass;
  std::vector<double> overhead, mb, diags;
  for (const AnalysisLayers& a : rs) {
    for (const auto& [name, ms] : a.pass_ms) pass[name].push_back(ms);
    overhead.push_back(a.traced_run_ms / a.untraced_run_ms);
    mb.push_back(a.trace_mb);
    diags.push_back(static_cast<double>(a.diagnostics));
  }
  res.layer("analysis.record_ms", span_median_ms(ctx.spans, "analysis.record"),
            "ms");
  res.layer("analysis.trace_overhead", median(overhead), "ratio");
  for (const auto& [name, ms] : pass)
    res.layer("analysis.pass_ms." + name, median(ms), "ms");
  res.layer("analysis.trace_mb", median(mb), "MiB");
  res.layer("analysis.diagnostics", median(diags), "count");
}

analysis::PassOptions pass_options() {
  analysis::PassOptions popt;
  popt.gpu = analysis::lint_gpu_spec();
  popt.trace_max_bytes = std::size_t{1024} << 20;  // tlplint's default
  return popt;
}

}  // namespace

void run_lint_trace(Ctx& ctx) {
  const std::uint64_t seed = ctx.opt.seed;
  std::vector<LintInput> inputs;
  const double setup_s = timed_setup([&] { inputs = make_inputs(seed); });
  const analysis::PassOptions popt = pass_options();
  const std::vector<Config> configs =
      lint_matrix(analysis::lint_system_names(), inputs);

  std::vector<std::string> digests;
  std::vector<double> sim_op_ms;
  double sim_gpu_ms = 0;
  std::int64_t round0_diags = 0;
  std::vector<AnalysisLayers> layers;

  const int rounds = run_rounds(ctx, 2, [&](int round) {
    Fnv1a digest;
    AnalysisLayers acc;
    for (const Config& c : configs) {
      ctx.begin_op();
      const LintInput& in = inputs[static_cast<std::size_t>(c.input)];
      const std::string label =
          c.system + "/" + models::model_name(c.kind) + "/" + in.name;
      try {
        const LintOp op = lint_op(ctx, c, in, popt, seed);
        ctx.ops.add(round, op.ms, op.requests, ctx.spans.active());
        if (op.trace->truncated()) {
          ++ctx.res.failed;
          ctx.res.fail(label + ": access trace truncated");
        }
        digest.str(label);
        hash_metrics(digest, op.metrics);
        for (const analysis::Diagnostic& d : op.diags) {
          digest.str(d.key());
          digest.str(d.message);
          digest.num(d.count);
        }
        acc.diagnostics += static_cast<std::int64_t>(op.diags.size());
        if (round == 0) {
          sim_gpu_ms += op.run.gpu_time_ms;
          sim_op_ms.push_back(op.run.measured_ms);
          round0_diags += static_cast<std::int64_t>(op.diags.size());
        }
        if (ctx.spans.active())
          measure_analysis_layers(op, c, in, popt, seed, acc);
      } catch (const std::exception& e) {
        ++ctx.res.failed;
        ctx.res.fail(label + ": " + e.what());
      }
    }
    if (ctx.spans.active()) layers.push_back(acc);
    same_as_round0(ctx, digests, round, digest);
  });

  report_host_metrics(ctx, setup_s, rounds);
  ctx.res.detail.set("sim_digest", digests.empty() ? "" : digests.front());
  ctx.res.detail.set("diagnostics", round0_diags);
  if (!sim_op_ms.empty()) {
    double total_sim_ms = 0;
    for (const double v : sim_op_ms) total_sim_ms += v;
    ctx.res.metric("sim_gpu_ms", sim_gpu_ms, "ms");
    ctx.res.metric("sim_p50_ms", nearest_rank(sim_op_ms, 0.5), "ms");
    ctx.res.metric("sim_p99_ms", nearest_rank(sim_op_ms, 0.99), "ms");
    ctx.res.metric("sim_rps_at_slo",
                   static_cast<double>(sim_op_ms.size()) * 1e3 / total_sim_ms,
                   "1/s");
  }
  if (ctx.opt.trace) {
    report_analysis_layers(ctx, layers);
    probe_replica_layers(ctx);
    probe_serve_layers(ctx);
  }
}

void probe_analysis_layers(Ctx& ctx) {
  SpanLog& spans = ctx.spans;
  spans.set_active(true);
  spans.set_op(-1);
  const std::vector<LintInput> inputs = make_inputs(ctx.opt.seed);
  const analysis::PassOptions popt = pass_options();
  AnalysisLayers acc;
  for (const Config& c : lint_matrix({"tlpgnn"}, inputs)) {
    const LintInput& in = inputs[static_cast<std::size_t>(c.input)];
    const LintOp op = lint_op(ctx, c, in, popt, ctx.opt.seed);
    acc.diagnostics += static_cast<std::int64_t>(op.diags.size());
    measure_analysis_layers(op, c, in, popt, ctx.opt.seed, acc);
  }
  report_analysis_layers(ctx, {acc});
  spans.set_active(false);
}

}  // namespace perfbench

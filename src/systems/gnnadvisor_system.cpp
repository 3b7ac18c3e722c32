#include "systems/gnnadvisor_system.hpp"

#include "common/timer.hpp"
#include "graph/reorder.hpp"
#include "kernels/advisor_groups.hpp"
#include "kernels/apply_vertex.hpp"
#include "kernels/conv_common.hpp"
#include "systems/strategies.hpp"

namespace tlp::systems {

using kernels::DeviceGraph;

namespace {

const OverheadModel kAdvisorOverhead{.dispatch_us_per_kernel = 110.0,
                                     .framework_ms_per_kernel = 0.9};

const sim::LaunchConfig kAdvisorCfg{
    .assignment = sim::Assignment::kHardwareDynamic, .warps_per_block = 8};

}  // namespace

RunResult GnnAdvisorSystem::run(sim::Device& dev, const graph::Csr& g,
                                const tensor::Tensor& feat,
                                const models::ConvSpec& spec) {
  TLP_CHECK_MSG(supports(spec.kind, false),
                "GNNAdvisor replica supports GCN and GIN only");
  TLP_CHECK_MSG(!spec.has_edge_weights(),
                "edge-weighted convolution is a TLPGNN extension");
  dev.reset_all();
  const std::int64_t f = feat.cols();

  // --- preprocessing (host, timed separately) ------------------------------
  Timer prep;
  const graph::Permutation order = graph::bfs_order(g);
  const graph::Csr rg = graph::apply_permutation(g, order);
  const kernels::NeighborGroups groups =
      kernels::build_neighbor_groups(rg, opts_.group_size);
  const double preprocessing_ms = prep.millis();

  // Features follow the permutation: new row i holds old row order[i].
  tensor::Tensor rfeat(feat.rows(), f);
  for (graph::VertexId v = 0; v < rg.num_vertices(); ++v) {
    const auto src = feat.row(order[static_cast<std::size_t>(v)]);
    auto dst = rfeat.row(v);
    std::copy(src.begin(), src.end(), dst.begin());
  }

  const DeviceGraph dg = kernels::upload_graph(dev, rg);
  const kernels::DeviceGroups dgroups = kernels::upload_groups(dev, groups);
  const sim::DevPtr<float> dfeat = kernels::upload_features(dev, rfeat);
  sim::DevPtr<float> dout = dev.alloc_zeroed<float>(dg.n * f);

  {
    kernels::FillRowsKernel fill(dout, dg.n, f, 0.0f);
    dev.launch(fill, kAdvisorCfg);
  }
  {
    kernels::AdvisorGroupKernel agg(dg, dgroups, dfeat, dout, f,
                                    {spec.kind, spec.gin_eps});
    dev.launch(agg, kAdvisorCfg);
  }
  launch_epilogue(dev, dg, dfeat, dout, f, spec, kAdvisorCfg);

  // Un-permute the output back to the caller's vertex ids.
  const tensor::Tensor rout = kernels::download_features(dev, dout, dg.n, f);
  tensor::Tensor out(feat.rows(), f);
  for (graph::VertexId v = 0; v < rg.num_vertices(); ++v) {
    const auto src = rout.row(v);
    auto dst = out.row(order[static_cast<std::size_t>(v)]);
    std::copy(src.begin(), src.end(), dst.begin());
  }

  RunResult r = finalize_run(dev, std::move(out), kAdvisorOverhead);
  r.preprocessing_ms = preprocessing_ms;
  return r;
}

}  // namespace tlp::systems

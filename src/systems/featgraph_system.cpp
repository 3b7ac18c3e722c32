#include "systems/featgraph_system.hpp"

#include "kernels/apply_vertex.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/fused_gat.hpp"
#include "kernels/spmm.hpp"
#include "kernels/subwarp_pull.hpp"
#include "systems/strategies.hpp"

namespace tlp::systems {

using models::ModelKind;

namespace {

const OverheadModel kFeatgraphOverhead{.dispatch_us_per_kernel = 15.0,
                                       .framework_ms_per_kernel = 1.2};

// TVM's generated schedule binds one warp per block: resident warps are then
// capped by the 32-block SM slot limit (half the 64-warp capacity), the
// mechanistic source of FeatGraph's low achieved occupancy (Figure 9).
const sim::LaunchConfig kFeatgraphCfg{
    .assignment = sim::Assignment::kHardwareDynamic, .warps_per_block = 1};

// The Tensor Expression schedule also cannot freely remap vertices to
// threads (§7.2): the generated aggregation binds a fixed 8-thread tile per
// vertex, which only partially coalesces the feature gathers.
constexpr int kTvmLanesPerVertex = 8;

}  // namespace

RunResult FeatgraphSystem::run(sim::Device& dev, const graph::Csr& g,
                               const tensor::Tensor& feat,
                               const models::ConvSpec& spec) {
  TLP_CHECK_MSG(!spec.has_edge_weights(),
                "edge-weighted convolution is a TLPGNN extension");
  const PullBuffers b = upload_pull(dev, g, feat);
  const auto& [dg, dfeat, dout, f] = b;

  switch (spec.kind) {
    case ModelKind::kGcn:
    case ModelKind::kGin: {
      // Generated aggregation kernel plus the output layout kernel TVM
      // inserts around the library boundary.
      sim::DevPtr<float> tmp = dev.alloc_zeroed<float>(dg.n * f);
      kernels::SubwarpPullKernel agg(dg, dfeat, tmp, f,
                                     {spec.kind, spec.gin_eps},
                                     kTvmLanesPerVertex);
      dev.launch(agg, kFeatgraphCfg);
      kernels::CopyRowsKernel out_copy(tmp, dout, dg.n, f);
      dev.launch(out_copy, kFeatgraphCfg);
      break;
    }
    case ModelKind::kSage: {
      kernels::SubwarpPullKernel agg(dg, dfeat, dout, f,
                                     {spec.kind, spec.gin_eps},
                                     kTvmLanesPerVertex);
      dev.launch(agg, kFeatgraphCfg);
      break;
    }
    case ModelKind::kGat: {
      // Three kernels (§7.2): attention halves, materialized edge softmax,
      // weighted aggregation.
      const sim::DevPtr<float> asrc = dev.upload<float>(spec.gat.attn_src);
      const sim::DevPtr<float> adst = dev.upload<float>(spec.gat.attn_dst);
      sim::DevPtr<float> sh = dev.alloc_zeroed<float>(dg.n);
      sim::DevPtr<float> dh = dev.alloc_zeroed<float>(dg.n);
      sim::DevPtr<float> alpha = dev.alloc_zeroed<float>(dg.m);
      kernels::GatHalvesKernel halves(dfeat, asrc, adst, sh, dh, dg.n, f);
      dev.launch(halves, kFeatgraphCfg);
      kernels::GatSoftmaxKernel softmax(dg, sh, dh, alpha,
                                        spec.gat.leaky_slope);
      dev.launch(softmax, kFeatgraphCfg);
      kernels::SpmmKernel agg(dg, dfeat, dout, f,
                              kernels::SpmmKernel::Weighting::kEdgeArray,
                              alpha);
      dev.launch(agg, kFeatgraphCfg);
      break;
    }
  }

  return finalize_run(dev, b.download(dev), kFeatgraphOverhead);
}

}  // namespace tlp::systems

#include "systems/baseline_systems.hpp"

#include <limits>

#include "kernels/apply_edge.hpp"
#include "kernels/apply_vertex.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/edge_centric.hpp"
#include "systems/strategies.hpp"

namespace tlp::systems {

using kernels::DeviceCoo;
using kernels::DeviceGraph;
using models::ModelKind;

namespace {

const OverheadModel kMicroOverhead{.dispatch_us_per_kernel = 10.0,
                                   .framework_ms_per_kernel = 0.3};

/// Edge-centric GAT: the multi-kernel atomic pipeline a framework without
/// fusion or vertex parallelism would write (Figure 10d's baseline).
void run_edge_gat(sim::Device& dev, const DeviceGraph& dg, const DeviceCoo& coo,
                  sim::DevPtr<float> dfeat, sim::DevPtr<float> dout,
                  std::int64_t f, const models::GatParams& gat,
                  const models::GatHalves& halves,
                  const sim::LaunchConfig& cfg) {
  // Attention halves arrive from the dense phase, as for TLPGNN, so the
  // comparison isolates the edge-centric pipeline itself.
  const sim::DevPtr<float> sh = dev.upload<float>(halves.src);
  const sim::DevPtr<float> dh = dev.upload<float>(halves.dst);
  sim::DevPtr<float> logit = dev.alloc_zeroed<float>(dg.m);
  sim::DevPtr<float> vmax = dev.alloc_zeroed<float>(dg.n);
  sim::DevPtr<float> denom = dev.alloc_zeroed<float>(dg.n);

  kernels::EdgeLogitKernel logits(coo, sh, dh, logit, gat.leaky_slope);
  dev.launch(logits, cfg);
  {
    kernels::FillRowsKernel fill(vmax, dg.n, 1,
                                 -std::numeric_limits<float>::infinity());
    dev.launch(fill, cfg);
  }
  {
    kernels::EdgeMapKernel k(coo, kernels::EdgeMapKernel::Mode::kAtomicMaxDst,
                             logit, vmax);
    dev.launch(k, cfg);
  }
  {
    kernels::EdgeMapKernel k(coo, kernels::EdgeMapKernel::Mode::kSubDst, logit,
                             vmax);
    dev.launch(k, cfg);
  }
  {
    kernels::EdgeMapKernel k(coo, kernels::EdgeMapKernel::Mode::kExp, logit,
                             {});
    dev.launch(k, cfg);
  }
  {
    kernels::EdgeMapKernel k(coo, kernels::EdgeMapKernel::Mode::kAtomicAddDst,
                             logit, denom);
    dev.launch(k, cfg);
  }
  {
    kernels::EdgeMapKernel k(coo, kernels::EdgeMapKernel::Mode::kDivDst, logit,
                             denom);
    dev.launch(k, cfg);
  }
  kernels::EdgeWeightedAggKernel agg(coo, logit, dfeat, dout, f);
  dev.launch(agg, cfg);
}

}  // namespace

RunResult PushSystem::run(sim::Device& dev, const graph::Csr& g,
                          const tensor::Tensor& feat,
                          const models::ConvSpec& spec) {
  const sim::LaunchConfig cfg;  // hardware dynamic, 16 warps/block
  tensor::Tensor out = run_push(dev, g, feat, spec, cfg);
  return finalize_run(dev, std::move(out), kMicroOverhead);
}

RunResult EdgeCentricSystem::run(sim::Device& dev, const graph::Csr& g,
                                 const tensor::Tensor& feat,
                                 const models::ConvSpec& spec) {
  dev.reset_all();
  const std::int64_t f = feat.cols();
  const DeviceGraph dg = kernels::upload_graph(dev, g);
  const DeviceCoo coo = kernels::upload_coo(dev, g);
  const sim::DevPtr<float> dfeat = kernels::upload_features(dev, feat);
  sim::DevPtr<float> dout = dev.alloc_zeroed<float>(dg.n * f);

  const sim::LaunchConfig cfg;
  {
    kernels::FillRowsKernel fill(dout, dg.n, f, 0.0f);
    dev.launch(fill, cfg);
  }
  if (spec.kind == ModelKind::kGat) {
    run_edge_gat(dev, dg, coo, dfeat, dout, f, spec.gat,
                 models::gat_halves(feat, spec.gat), cfg);
  } else {
    kernels::EdgeCentricAggKernel agg(coo, dg.norm, dfeat, dout, f,
                                      {spec.kind, spec.gin_eps});
    dev.launch(agg, cfg);
    launch_epilogue(dev, dg, dfeat, dout, f, spec, cfg);
  }
  tensor::Tensor out = kernels::download_features(dev, dout, dg.n, f);
  return finalize_run(dev, std::move(out), kMicroOverhead);
}

RunResult PullSystem::run(sim::Device& dev, const graph::Csr& g,
                          const tensor::Tensor& feat,
                          const models::ConvSpec& spec) {
  tensor::Tensor out = run_pull(dev, g, feat, spec, sim::LaunchConfig{});
  return finalize_run(dev, std::move(out), kMicroOverhead);
}

}  // namespace tlp::systems

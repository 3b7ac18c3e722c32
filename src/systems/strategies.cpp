#include "systems/strategies.hpp"

#include "common/check.hpp"
#include "kernels/apply_vertex.hpp"
#include "kernels/fused_gat.hpp"
#include "kernels/gather_pull.hpp"
#include "kernels/push_atomic.hpp"

namespace tlp::systems {

using kernels::DeviceGraph;
using models::ModelKind;

tensor::Tensor PullBuffers::download(sim::Device& dev) const {
  return kernels::download_features(dev, out, dg.n, f);
}

PullBuffers upload_pull(sim::Device& dev, const graph::Csr& g,
                        const tensor::Tensor& feat,
                        const std::vector<float>* norm) {
  dev.reset_all();
  PullBuffers b;
  b.f = feat.cols();
  b.dg = kernels::upload_graph(dev, g, norm);
  b.feat = kernels::upload_features(dev, feat);
  b.out = dev.alloc_zeroed<float>(b.dg.n * b.f);
  return b;
}

tensor::Tensor run_pull(sim::Device& dev, const graph::Csr& g,
                        const tensor::Tensor& feat,
                        const models::ConvSpec& spec,
                        const sim::LaunchConfig& cfg, bool register_cache,
                        const std::vector<float>* norm) {
  const PullBuffers b = upload_pull(dev, g, feat, norm);
  if (spec.kind == ModelKind::kGat) {
    const models::GatHalves halves = models::gat_halves(feat, spec.gat);
    const sim::DevPtr<float> dsh = dev.upload<float>(halves.src);
    const sim::DevPtr<float> ddh = dev.upload<float>(halves.dst);
    kernels::FusedGatKernel k(b.dg, b.feat, dsh, ddh, b.out, b.f,
                              spec.gat.leaky_slope, spec.gat.heads);
    dev.launch(k, cfg);
  } else {
    sim::DevPtr<float> ew{};
    if (spec.has_edge_weights()) {
      TLP_CHECK(static_cast<std::int64_t>(spec.edge_weights.size()) ==
                b.dg.m);
      ew = dev.upload<float>(spec.edge_weights);
    }
    kernels::GatherPullKernel k(b.dg, b.feat, b.out, b.f,
                                {spec.kind, spec.gin_eps}, register_cache, ew);
    dev.launch(k, cfg);
  }
  return b.download(dev);
}

tensor::Tensor run_push(sim::Device& dev, const graph::Csr& g,
                        const tensor::Tensor& feat,
                        const models::ConvSpec& spec,
                        const sim::LaunchConfig& cfg) {
  TLP_CHECK(spec.kind != ModelKind::kGat);
  dev.reset_all();
  const std::int64_t f = feat.cols();
  // Push walks out-edges but GCN weights still come from in-degrees.
  const std::vector<float> pull_norm = models::gcn_norm(g);
  const graph::Csr out_csr = g.reversed();
  const DeviceGraph dg_out = kernels::upload_graph(dev, out_csr, &pull_norm);
  const DeviceGraph dg_pull = kernels::upload_graph(dev, g);
  const sim::DevPtr<float> dfeat = kernels::upload_features(dev, feat);
  sim::DevPtr<float> dout = dev.alloc_zeroed<float>(dg_out.n * f);
  {
    kernels::FillRowsKernel fill(dout, dg_out.n, f, 0.0f);
    dev.launch(fill, cfg);
  }
  kernels::PushKernel push(dg_out, dfeat, dout, f, {spec.kind, spec.gin_eps});
  dev.launch(push, cfg);
  // GCN/GIN self terms were already pushed by the kernel itself; only Sage
  // still needs its mean rescale.
  if (spec.kind == ModelKind::kSage)
    launch_epilogue(dev, dg_pull, dfeat, dout, f, spec, cfg);
  return kernels::download_features(dev, dout, dg_out.n, f);
}

void launch_epilogue(sim::Device& dev, const DeviceGraph& pull_dg,
                     sim::DevPtr<float> dfeat, sim::DevPtr<float> dout,
                     std::int64_t f, const models::ConvSpec& spec,
                     const sim::LaunchConfig& cfg) {
  switch (spec.kind) {
    case ModelKind::kGcn: {
      kernels::AddScaledSelfKernel k(
          dfeat, dout, f, kernels::AddScaledSelfKernel::Mode::kNormSquared,
          pull_dg);
      dev.launch(k, cfg);
      break;
    }
    case ModelKind::kGin: {
      kernels::AddScaledSelfKernel k(
          dfeat, dout, f, kernels::AddScaledSelfKernel::Mode::kConst, pull_dg,
          1.0f + spec.gin_eps);
      dev.launch(k, cfg);
      break;
    }
    case ModelKind::kSage: {
      kernels::RowScaleKernel k(dout, dout, f,
                                kernels::RowScaleKernel::Mode::kByInvDegree,
                                pull_dg, {});
      dev.launch(k, cfg);
      break;
    }
    case ModelKind::kGat:
      break;  // the GAT pipelines carry their own normalization
  }
}

}  // namespace tlp::systems

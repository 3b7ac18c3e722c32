#include "systems/tlpgnn_system.hpp"

#include "common/check.hpp"
#include "kernels/apply_edge.hpp"
#include "kernels/fused_gat.hpp"
#include "kernels/spmm.hpp"
#include "systems/strategies.hpp"

namespace tlp::systems {

using models::ModelKind;

namespace {

/// The unfused GAT fallback (the "-Fusion" ablation stage and Table 3's
/// "Three-Kernel" column): softmax kernel materializing per-edge alphas,
/// u_mul_e materializing E x F messages, then a sum — exactly the
/// global-memory round-trip fusion removes (§6).
tensor::Tensor run_unfused_gat(sim::Device& dev, const graph::Csr& g,
                               const tensor::Tensor& feat,
                               const models::ConvSpec& spec,
                               const sim::LaunchConfig& cfg,
                               bool register_cache,
                               const std::vector<float>* norm) {
  const PullBuffers b = upload_pull(dev, g, feat, norm);
  const models::GatHalves halves = models::gat_halves(feat, spec.gat);
  const sim::DevPtr<float> dsh = dev.upload<float>(halves.src);
  const sim::DevPtr<float> ddh = dev.upload<float>(halves.dst);
  TLP_CHECK_MSG(spec.gat.heads == 1,
                "the unfused GAT pipeline supports a single head");
  sim::DevPtr<float> alpha = dev.alloc_zeroed<float>(b.dg.m);
  kernels::GatSoftmaxKernel attn(b.dg, dsh, ddh, alpha, spec.gat.leaky_slope);
  dev.launch(attn, cfg);
  const kernels::DeviceCoo coo = kernels::upload_coo(dev, g);
  sim::DevPtr<float> msg = dev.alloc_zeroed<float>(b.dg.m * b.f);
  kernels::UMulEMaterializeKernel mat(coo, alpha, b.feat, msg, b.f);
  dev.launch(mat, cfg);
  kernels::SpmmKernel agg(b.dg, msg, b.out, b.f,
                          kernels::SpmmKernel::Weighting::kMessages, {},
                          register_cache);
  dev.launch(agg, cfg);
  return b.download(dev);
}

}  // namespace

sim::Assignment hybrid_heuristic(std::int64_t num_vertices,
                                 double avg_degree) {
  if (num_vertices > 1'000'000 || avg_degree > 50.0)
    return sim::Assignment::kSoftwarePool;
  return sim::Assignment::kHardwareDynamic;
}

RunResult TlpgnnSystem::run(sim::Device& dev, const graph::Csr& g,
                            const tensor::Tensor& feat,
                            const models::ConvSpec& spec) {
  return run_with_norm(dev, g, feat, spec, nullptr);
}

RunResult TlpgnnSystem::run_with_norm(sim::Device& dev, const graph::Csr& g,
                                      const tensor::Tensor& feat,
                                      const models::ConvSpec& spec,
                                      const std::vector<float>* norm_override) {
  sim::LaunchConfig cfg;
  cfg.warps_per_block = opts_.warps_per_block;
  cfg.pool_step = opts_.pool_step;
  if (opts_.grid_blocks > 0) {
    // Fixed-grid sweep (Figure 11): a bounded warp set must cover all
    // vertices, which only the pool (or static) assignment can do.
    cfg.assignment = sim::Assignment::kSoftwarePool;
    cfg.grid_blocks = opts_.grid_blocks;
  } else if (opts_.hybrid_assignment) {
    cfg.assignment = hybrid_heuristic(g.num_vertices(), g.avg_degree());
  } else {
    cfg.assignment = sim::Assignment::kStaticChunk;
  }

  tensor::Tensor out =
      spec.kind == ModelKind::kGat && !opts_.fused_gat
          ? run_unfused_gat(dev, g, feat, spec, cfg, opts_.register_cache,
                            norm_override)
          : run_pull(dev, g, feat, spec, cfg, opts_.register_cache,
                     norm_override);
  return finalize_run(dev, std::move(out), opts_.overhead);
}

}  // namespace tlp::systems

#include "fuzz/kernel_runners.hpp"

#include <array>

#include "common/check.hpp"
#include "kernels/conv_common.hpp"
#include "kernels/edge_centric.hpp"
#include "kernels/spmm.hpp"
#include "kernels/subwarp_pull.hpp"
#include "systems/strategies.hpp"

namespace tlp::fuzz {

using graph::Csr;
using kernels::DeviceCoo;
using kernels::DeviceGraph;
using models::ConvSpec;
using models::ModelKind;
using sim::Device;
using sim::LaunchConfig;
using systems::PullBuffers;
using tensor::Tensor;

namespace {

bool simple_conv(const ConvSpec& spec) {
  return spec.kind != ModelKind::kGat;
}

bool simple_unweighted(const ConvSpec& spec) {
  return simple_conv(spec) && !spec.has_edge_weights();
}

Tensor run_subwarp(Device& dev, const Csr& g, const Tensor& h,
                   const ConvSpec& spec, const LaunchConfig& cfg, int lpv) {
  const PullBuffers up = systems::upload_pull(dev, g, h);
  kernels::SubwarpPullKernel k(up.dg, up.feat, up.out, up.f,
                               {spec.kind, spec.gin_eps}, lpv);
  dev.launch(k, cfg);
  return up.download(dev);
}

Tensor run_spmm_pipeline(Device& dev, const Csr& g, const Tensor& h,
                         const ConvSpec& spec, const LaunchConfig& cfg) {
  TLP_CHECK(simple_conv(spec));
  const PullBuffers up = systems::upload_pull(dev, g, h);
  using Weighting = kernels::SpmmKernel::Weighting;
  const Weighting w = spec.kind == ModelKind::kGcn   ? Weighting::kGcnNormPair
                      : spec.kind == ModelKind::kGin ? Weighting::kSum
                                                     : Weighting::kMean;
  kernels::SpmmKernel agg(up.dg, up.feat, up.out, up.f, w);
  dev.launch(agg, cfg);
  // kMean already divides by the degree: Sage needs no rescale.
  if (spec.kind != ModelKind::kSage)
    systems::launch_epilogue(dev, up.dg, up.feat, up.out, up.f, spec, cfg);
  return up.download(dev);
}

Tensor run_edge_centric(Device& dev, const Csr& g, const Tensor& h,
                        const ConvSpec& spec, const LaunchConfig& cfg) {
  TLP_CHECK(simple_conv(spec));
  const PullBuffers up = systems::upload_pull(dev, g, h);
  const DeviceCoo coo = kernels::upload_coo(dev, g);
  kernels::EdgeCentricAggKernel agg(coo, up.dg.norm, up.feat, up.out, up.f,
                                    {spec.kind, spec.gin_eps});
  dev.launch(agg, cfg);
  systems::launch_epilogue(dev, up.dg, up.feat, up.out, up.f, spec, cfg);
  return up.download(dev);
}

// ---------------------------------------------------------------------------
// Seeded-bug mutants (--expect-bugs).
// ---------------------------------------------------------------------------

enum class BugKind {
  kRowBoundOffByOne,  ///< walks [start, end-1): drops each row's last edge
  kMissingSelfTerm,   ///< GCN/GIN epilogue forgets the self term
  kSwappedNorm,       ///< GCN uses norm_v^2 instead of norm_u * norm_v
  kFeatureTailDrop,   ///< ignores the final partial 32-wide feature chunk
  kUnguardedMean,     ///< Sage divides by degree without the deg>0 guard
};

/// A warp-per-vertex pull kernel that is correct except for one injected
/// bug. Mirrors GatherPullKernel's cached variant closely enough that the
/// minimizer exercises realistic access patterns while shrinking.
class BuggyPullKernel final : public sim::WarpKernel {
 public:
  BuggyPullKernel(DeviceGraph g, sim::DevPtr<float> feat,
                  sim::DevPtr<float> out, std::int64_t f,
                  kernels::SimpleConv conv, BugKind bug)
      : g_(g), feat_(feat), out_(out), f_(f), conv_(conv), bug_(bug) {}

  [[nodiscard]] std::int64_t num_items() const override { return g_.n; }
  [[nodiscard]] std::string name() const override { return "buggy_pull"; }

  void run_item(sim::WarpCtx& warp, std::int64_t v) override {
    const std::int64_t start = warp.load_scalar_i64(g_.indptr, v);
    std::int64_t end = warp.load_scalar_i64(g_.indptr, v + 1);
    if (bug_ == BugKind::kRowBoundOffByOne && end > start) --end;

    int chunks = kernels::num_chunks(f_);
    if (bug_ == BugKind::kFeatureTailDrop && f_ % sim::kWarpSize != 0)
      --chunks;  // the partial tail chunk is never aggregated or stored

    const bool is_gcn = conv_.kind == ModelKind::kGcn;
    const float norm_v = is_gcn ? warp.load_scalar_f32(g_.norm, v) : 0.0f;
    std::array<sim::WVec<float>, kernels::kMaxChunks> acc{};

    for (std::int64_t e = start; e < end; ++e) {
      const std::int32_t u = warp.load_scalar_i32(g_.indices, e);
      float w = 1.0f;
      if (is_gcn) {
        w = bug_ == BugKind::kSwappedNorm
                ? norm_v * norm_v
                : warp.load_scalar_f32(g_.norm, u) * norm_v;
        warp.charge_alu(1);
      }
      for (int c = 0; c < chunks; ++c) {
        const sim::Mask m = kernels::chunk_mask(f_, c);
        const sim::WVec<float> x =
            warp.load_f32(feat_, kernels::chunk_idx(u, f_, c), m);
        auto& a = acc[static_cast<std::size_t>(c)];
        for (int l = 0; l < sim::kWarpSize; ++l)
          a[static_cast<std::size_t>(l)] += w * x[static_cast<std::size_t>(l)];
        warp.charge_alu(1);
      }
    }

    const std::int64_t true_deg =
        warp.load_scalar_i64(g_.indptr, v + 1) - start;
    for (int c = 0; c < chunks; ++c) {
      const sim::Mask m = kernels::chunk_mask(f_, c);
      auto& a = acc[static_cast<std::size_t>(c)];
      switch (conv_.kind) {
        case ModelKind::kGcn:
        case ModelKind::kGin: {
          if (bug_ != BugKind::kMissingSelfTerm) {
            const float scale = conv_.kind == ModelKind::kGcn
                                    ? norm_v * norm_v
                                    : 1.0f + conv_.gin_eps;
            const sim::WVec<float> self =
                warp.load_f32(feat_, kernels::chunk_idx(v, f_, c), m);
            for (int l = 0; l < sim::kWarpSize; ++l)
              a[static_cast<std::size_t>(l)] +=
                  scale * self[static_cast<std::size_t>(l)];
            warp.charge_alu(2);
          }
          break;
        }
        case ModelKind::kSage: {
          if (bug_ == BugKind::kUnguardedMean) {
            // 0/0 on isolated vertices: the NaN the oracle must flag.
            const float inv = 1.0f / static_cast<float>(true_deg);
            for (auto& x : a) x *= inv;
          } else if (true_deg > 0) {
            const float inv = 1.0f / static_cast<float>(true_deg);
            for (auto& x : a) x *= inv;
          }
          warp.charge_alu(1);
          break;
        }
        case ModelKind::kGat:
          TLP_CHECK(false);
      }
      warp.store_f32(out_, kernels::chunk_idx(v, f_, c), a, m);
    }
  }

 private:
  DeviceGraph g_;
  sim::DevPtr<float> feat_;
  sim::DevPtr<float> out_;
  std::int64_t f_;
  kernels::SimpleConv conv_;
  BugKind bug_;
};

KernelRunner make_mutant(std::string name, BugKind bug,
                         std::function<bool(const ConvSpec&)> supports) {
  KernelRunner r;
  r.name = std::move(name);
  r.expected_bug = true;
  r.supports = std::move(supports);
  r.run = [bug](Device& dev, const Csr& g, const Tensor& h,
                const ConvSpec& spec, const LaunchConfig& cfg) {
    const PullBuffers up = systems::upload_pull(dev, g, h);
    BuggyPullKernel k(up.dg, up.feat, up.out, up.f, {spec.kind, spec.gin_eps},
                      bug);
    dev.launch(k, cfg);
    return up.download(dev);
  };
  return r;
}

}  // namespace

const std::vector<KernelRunner>& kernel_runners() {
  static const std::vector<KernelRunner> runners = [] {
    std::vector<KernelRunner> r;
    // gather_pull and fused_gat are systems::run_pull, the strategy behind
    // the TLPGNN and pull systems, on its GCN/GIN/Sage and GAT halves.
    const auto pull = [](Device& dev, const Csr& g, const Tensor& h,
                         const ConvSpec& spec, const LaunchConfig& cfg) {
      return systems::run_pull(dev, g, h, spec, cfg);
    };
    r.push_back({"gather_pull", false, simple_conv, pull});
    r.push_back({"gather_pull_nocache", false, simple_conv,
                 [](Device& dev, const Csr& g, const Tensor& h,
                    const ConvSpec& spec, const LaunchConfig& cfg) {
                   return systems::run_pull(dev, g, h, spec, cfg,
                                            /*register_cache=*/false);
                 }});
    for (const int lpv : {1, 4, 16}) {
      r.push_back({"subwarp_pull_lpv" + std::to_string(lpv), false,
                   simple_unweighted,
                   [lpv](Device& dev, const Csr& g, const Tensor& h,
                         const ConvSpec& spec, const LaunchConfig& cfg) {
                     return run_subwarp(dev, g, h, spec, cfg, lpv);
                   }});
    }
    r.push_back({"spmm_pipeline", false, simple_unweighted, run_spmm_pipeline});
    r.push_back({"push_atomic", false, simple_unweighted, systems::run_push});
    r.push_back({"edge_centric", false, simple_unweighted, run_edge_centric});
    r.push_back({"fused_gat", false,
                 [](const ConvSpec& spec) {
                   return spec.kind == ModelKind::kGat;
                 },
                 pull});
    return r;
  }();
  return runners;
}

const std::vector<KernelRunner>& mutant_runners() {
  static const std::vector<KernelRunner> mutants = [] {
    std::vector<KernelRunner> r;
    r.push_back(make_mutant("bug_rowbound_off_by_one",
                            BugKind::kRowBoundOffByOne, simple_unweighted));
    r.push_back(make_mutant("bug_missing_self_term", BugKind::kMissingSelfTerm,
                            [](const ConvSpec& s) {
                              return (s.kind == ModelKind::kGcn ||
                                      s.kind == ModelKind::kGin) &&
                                     !s.has_edge_weights();
                            }));
    r.push_back(make_mutant("bug_swapped_norm", BugKind::kSwappedNorm,
                            [](const ConvSpec& s) {
                              return s.kind == ModelKind::kGcn &&
                                     !s.has_edge_weights();
                            }));
    r.push_back(make_mutant("bug_feature_tail_drop", BugKind::kFeatureTailDrop,
                            simple_unweighted));
    r.push_back(make_mutant("bug_unguarded_mean", BugKind::kUnguardedMean,
                            [](const ConvSpec& s) {
                              return s.kind == ModelKind::kSage &&
                                     !s.has_edge_weights();
                            }));
    return r;
  }();
  return mutants;
}

}  // namespace tlp::fuzz

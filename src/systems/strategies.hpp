// Launch sequences shared by every harness that runs a kernel strategy.
//
// Each function is the one definition of its strategy: the systems call it
// with their fixed sim::LaunchConfig, the fuzz kernel runners with the
// case's, and the tuning bench with the swept one. The allocation order and
// the launches are part of the contract — the mech goldens, the tlpbench
// records and tlplint's traces pin both.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "kernels/conv_common.hpp"
#include "models/model.hpp"
#include "sim/device.hpp"
#include "tensor/tensor.hpp"

namespace tlp::systems {

/// The common prefix of the pull-direction strategies: on a reset device,
/// the in-CSR, the features and a zeroed output, in that order.
struct PullBuffers {
  kernels::DeviceGraph dg;
  sim::DevPtr<float> feat;
  sim::DevPtr<float> out;
  std::int64_t f = 0;

  [[nodiscard]] tensor::Tensor download(sim::Device& dev) const;
};

/// Resets `dev` and uploads the PullBuffers. `norm` replaces the GCN norms
/// computed from `g` (see TlpgnnSystem::run_with_norm).
PullBuffers upload_pull(sim::Device& dev, const graph::Csr& g,
                        const tensor::Tensor& feat,
                        const std::vector<float>* norm = nullptr);

/// TLPGNN's single-kernel strategy (§4–§6): fused GAT (FusedGatKernel, the
/// attention halves uploaded as dense-phase inputs) for GAT, warp-per-vertex
/// pull (GatherPullKernel, per-edge weights uploaded when `spec` has them)
/// otherwise. Returns the downloaded output.
tensor::Tensor run_pull(sim::Device& dev, const graph::Csr& g,
                        const tensor::Tensor& feat,
                        const models::ConvSpec& spec,
                        const sim::LaunchConfig& cfg,
                        bool register_cache = true,
                        const std::vector<float>* norm = nullptr);

/// Push updating (§3): a zero fill, PushKernel atomics along the out-CSR
/// (the kernel pushes GCN/GIN self terms itself), then Sage's mean rescale.
/// GCN/GIN/Sage only. Returns the downloaded output.
tensor::Tensor run_push(sim::Device& dev, const graph::Csr& g,
                        const tensor::Tensor& feat,
                        const models::ConvSpec& spec,
                        const sim::LaunchConfig& cfg);

/// Epilogue of the strategies that aggregate neighbors only: the GCN/GIN
/// self term, or Sage's mean rescale. Launched against the pull-direction
/// graph; nothing for GAT.
void launch_epilogue(sim::Device& dev, const kernels::DeviceGraph& pull_dg,
                     sim::DevPtr<float> dfeat, sim::DevPtr<float> dout,
                     std::int64_t f, const models::ConvSpec& spec,
                     const sim::LaunchConfig& cfg);

}  // namespace tlp::systems

// Shared device-side data layout for all graph-convolution kernels.
//
// Feature matrices are row-major (vertex-major) on the device, so one
// vertex's feature vector occupies consecutive addresses — the property
// TLPGNN's feature parallelism exploits for coalescing (§4.3).
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "models/model.hpp"
#include "sim/device.hpp"
#include "tensor/tensor.hpp"

namespace tlp::kernels {

/// Maximum feature size supported by the register-cached kernels: 16 chunks
/// of 32 dims = 512, matching the paper's largest evaluated feature size and
/// the V100's 255-registers-per-thread budget.
inline constexpr std::int64_t kMaxFeature = 512;
inline constexpr int kMaxChunks = 16;

/// CSR graph resident in device memory (pull direction: row v = in-edges).
struct DeviceGraph {
  sim::DevPtr<std::int64_t> indptr;
  sim::DevPtr<std::int32_t> indices;
  sim::DevPtr<float> norm;  ///< GCN normalization, 1/sqrt(deg+1)
  std::int64_t n = 0;       ///< vertices
  std::int64_t m = 0;       ///< edges
};

/// COO edge list in device memory (for edge-centric kernels).
struct DeviceCoo {
  sim::DevPtr<std::int32_t> src;
  sim::DevPtr<std::int32_t> dst;
  std::int64_t m = 0;
};

/// Uploads a CSR plus its GCN norm vector. `norm_override` substitutes a
/// different normalization — e.g. the push kernel walks the *out*-CSR but
/// must still use in-degree norms for GCN semantics.
DeviceGraph upload_graph(sim::Device& dev, const graph::Csr& g,
                         const std::vector<float>* norm_override = nullptr);
DeviceCoo upload_coo(sim::Device& dev, const graph::Csr& pull_csr);

sim::DevPtr<float> upload_features(sim::Device& dev, const tensor::Tensor& h);
tensor::Tensor download_features(sim::Device& dev, sim::DevPtr<float> p,
                                 std::int64_t rows, std::int64_t cols);

/// Number of 32-wide feature chunks for feature size f.
[[nodiscard]] constexpr int num_chunks(std::int64_t f) {
  return static_cast<int>((f + sim::kWarpSize - 1) / sim::kWarpSize);
}

/// Active-lane mask for chunk c of a feature vector of size f.
[[nodiscard]] constexpr sim::Mask chunk_mask(std::int64_t f, int c) {
  const std::int64_t remaining = f - static_cast<std::int64_t>(c) * sim::kWarpSize;
  return sim::lanes_below(static_cast<int>(
      remaining >= sim::kWarpSize ? sim::kWarpSize : remaining));
}

/// First element of chunk c of row `row` — lane l of the chunk accesses
/// element chunk_start + l, which is what the WarpCtx _seq fast paths
/// express directly (chunk_idx builds the same indices as an explicit
/// gather vector for the scattered entry points).
[[nodiscard]] constexpr std::int64_t chunk_start(std::int64_t row,
                                                 std::int64_t f, int c) {
  return row * f + static_cast<std::int64_t>(c) * sim::kWarpSize;
}

/// Active lane count of chunk c — popcount of chunk_mask(f, c).
[[nodiscard]] constexpr int chunk_len(std::int64_t f, int c) {
  const std::int64_t remaining = f - static_cast<std::int64_t>(c) * sim::kWarpSize;
  return static_cast<int>(remaining >= sim::kWarpSize ? sim::kWarpSize
                                                      : remaining);
}

/// Lane indices into a row-major feature matrix: row `row`, chunk `c`.
[[nodiscard]] inline sim::WVec<std::int64_t> chunk_idx(std::int64_t row,
                                                       std::int64_t f, int c) {
  sim::WVec<std::int64_t> idx{};
  const std::int64_t base = row * f + static_cast<std::int64_t>(c) * sim::kWarpSize;
  for (int l = 0; l < sim::kWarpSize; ++l)
    idx[static_cast<std::size_t>(l)] = base + l;
  return idx;
}

/// Chunk iteration over a feature *slice* [lo, hi) — used by multi-head GAT,
/// where head k owns a contiguous slice of the feature axis.
[[nodiscard]] constexpr int num_slice_chunks(std::int64_t lo, std::int64_t hi) {
  return static_cast<int>((hi - lo + sim::kWarpSize - 1) / sim::kWarpSize);
}

[[nodiscard]] constexpr std::int64_t slice_chunk_start(std::int64_t row,
                                                       std::int64_t f,
                                                       std::int64_t lo, int c) {
  return row * f + lo + static_cast<std::int64_t>(c) * sim::kWarpSize;
}

[[nodiscard]] constexpr int slice_chunk_len(std::int64_t lo, std::int64_t hi,
                                            int c) {
  const std::int64_t remaining =
      hi - lo - static_cast<std::int64_t>(c) * sim::kWarpSize;
  return static_cast<int>(remaining >= sim::kWarpSize ? sim::kWarpSize
                                                      : remaining);
}

/// The non-GAT slice of a ConvSpec (GCN/GIN/Sage all fit one gather kernel).
struct SimpleConv {
  models::ModelKind kind = models::ModelKind::kGcn;
  float gin_eps = 0.1f;
};

}  // namespace tlp::kernels

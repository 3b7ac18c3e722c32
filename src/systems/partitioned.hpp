// Partitioned execution of one TLPGNN convolution — the graceful-degradation
// path Engine::conv takes when the full-graph run throws tlp::OutOfMemory.
// Engine::conv_partitioned is its one caller outside tests and the fuzz
// partition oracle; the serving ladder reaches it through that too.
//
// The graph is split into k edge-balanced parts (graph::partition_greedy);
// each part runs as an independent device-sized job over its local subgraph
// (owned vertices plus the halo vertices their in-edges reference), and the
// owned output rows are scattered back into the global output matrix.
//
// Results are bit-identical to the unpartitioned run: local rows keep the
// exact global in-edge order (graph::extract_partition, so float
// accumulation order is unchanged),
// owned vertices keep their global GCN norms via
// TlpgnnSystem::run_with_norm, and per-edge weights are gathered in global
// edge order.
#pragma once

#include "graph/csr.hpp"
#include "systems/tlpgnn_system.hpp"

namespace tlp::systems {

/// Runs `spec` over `g` split into `k` parts. Each part resets `dev`, so the
/// per-part device footprint is what must fit the capacity limit; a part
/// that still does not fit propagates tlp::OutOfMemory to the caller (which
/// retries with the next k of tlp::FallbackPolicy::partition_counts). Metrics are aggregated across parts (times and
/// traffic sum; rates are gpu-time-weighted; peak memory is the max part).
RunResult run_partitioned(TlpgnnSystem& system, sim::Device& dev,
                          const graph::Csr& g, const tensor::Tensor& feat,
                          const models::ConvSpec& spec, int k);

}  // namespace tlp::systems

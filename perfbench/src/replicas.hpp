// The two dataset replicas of the paper sweep (and the serving workload's
// graph), built the way tlpbench's table5 builds them: 250k-edge replicas
// of Ogbn-arxiv (avg degree ~6.5, features far larger than the scaled L2)
// and Reddit (avg degree ~490, cache-resident), each simulated on a V100
// scaled down by tlpbench's gpu_for divisor.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "models/model.hpp"
#include "sim/gpu_spec.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

inline constexpr std::int64_t kReplicaEdges = 250'000;
inline constexpr std::int64_t kFeature = 32;

struct Replica {
  std::string abbr;
  const tlp::graph::DatasetSpec* spec = nullptr;
  tlp::graph::Csr g;
  tlp::tensor::Tensor feat;
  tlp::sim::GpuSpec gpu;
  double build_ms = 0;  ///< host time of graph::make_dataset
};

/// Seed-derived stream ids, so one --seed gives independent inputs per use.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline Replica make_replica(const std::string& abbr, std::uint64_t seed) {
  Replica r;
  r.abbr = abbr;
  r.spec = &tlp::graph::dataset_by_abbr(abbr);
  const auto t0 = std::chrono::steady_clock::now();
  r.g = tlp::graph::make_dataset(
      *r.spec, {.max_edges = kReplicaEdges, .seed = mix_seed(seed, 1)});
  r.build_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  tlp::Rng rng(mix_seed(seed, 2));
  r.feat = tlp::tensor::Tensor::random(r.g.num_vertices(), kFeature, rng);
  // tlpbench's gpu_divisor: 1/k of the paper's edges on ~1/k of a V100.
  const int divisor = static_cast<int>(std::clamp<std::int64_t>(
      r.spec->edges / kReplicaEdges, 1, 20));
  r.gpu = tlp::sim::GpuSpec::v100_scaled(divisor);
  return r;
}

inline tlp::models::ConvSpec make_spec(tlp::models::ModelKind kind,
                                       std::uint64_t seed) {
  tlp::Rng rng(mix_seed(seed, 3 + static_cast<std::uint64_t>(kind)));
  return tlp::models::ConvSpec::make(kind, kFeature, rng);
}

}  // namespace perfbench

// tlp::Engine — the library's public entry point.
//
// Wraps a simulated GPU device and the TLPGNN system behind a small API:
// upload a graph once, then run graph convolutions (the paper's measured
// operation) or whole GNN layers (dense transform + convolution +
// activation, §2.1's three-phase pattern). Baseline systems are reachable
// through systems::make_system for comparisons.
//
//   tlp::Engine engine;
//   auto out = engine.conv(graph, features, spec);       // one convolution
//   auto h1  = engine.layer(graph, h0, weights, spec);   // full GNN layer
//
// Robustness: the device enforces its GpuSpec memory capacity and can run
// with guarded memory / a fault plan (EngineOptions::device). When a
// convolution hits tlp::OutOfMemory, conv() degrades gracefully instead of
// failing: it re-runs the convolution over partitioned subgraphs, one
// conv_partitioned() per FallbackPolicy::partition_counts entry, and reports
// the degradation in RunResult::degradation. Output stays bit-identical to
// the unpartitioned run (see systems/partitioned.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.hpp"
#include "models/model.hpp"
#include "sim/device.hpp"
#include "systems/partitioned.hpp"
#include "systems/tlpgnn_system.hpp"
#include "tensor/tensor.hpp"

namespace tlp {

/// The partitioned fallback, shared by Engine::conv and the serving ladder.
struct FallbackPolicy {
  int initial_partitions = 2;
  int max_attempts = 4;  ///< 0 turns the fallback off

  /// Part count per attempt: max(2, initial_partitions), doubling, capped at
  /// |V| and ending there; at most max_attempts entries, none for |V| < 2.
  [[nodiscard]] std::vector<int> partition_counts(
      std::int64_t num_vertices) const;
  void validate() const;  ///< initial_partitions >= 1, max_attempts >= 0
};

struct EngineOptions {
  sim::GpuSpec gpu = sim::GpuSpec::v100();
  /// Overrides GpuSpec::memory_bytes when > 0 (CLI --device-mem-gb).
  std::int64_t device_memory_bytes = 0;
  sim::DeviceOptions device;  ///< guarded memory mode, fault plan
  systems::TlpgnnOptions tlpgnn;
  FallbackPolicy fallback;
};

class Engine {
 public:
  Engine() : Engine(EngineOptions{}) {}
  explicit Engine(const EngineOptions& opts);

  /// Runs one graph-convolution operation with TLPGNN and returns the output
  /// features plus simulator metrics. On device OutOfMemory this degrades to
  /// partitioned execution (see FallbackPolicy) rather than throwing;
  /// inspect RunResult::degradation to detect the fallback.
  systems::RunResult conv(const graph::Csr& g, const tensor::Tensor& feat,
                          const models::ConvSpec& spec);

  /// One partitioned attempt over `k` parts on this engine's system and
  /// device; errors propagate, last_run() is untouched.
  systems::RunResult conv_partitioned(const graph::Csr& g,
                                      const tensor::Tensor& feat,
                                      const models::ConvSpec& spec, int k) {
    return systems::run_partitioned(system_, *device_, g, feat, spec, k);
  }

  /// A full GNN layer: dense transform (h * weights), graph convolution,
  /// then optional ReLU — the standard three-phase layer of §2.1. The dense
  /// phases run on the host; only the convolution is simulated/measured.
  tensor::Tensor layer(const graph::Csr& g, const tensor::Tensor& h,
                       const tensor::Tensor& weights,
                       const models::ConvSpec& spec, bool relu = true);

  /// Metrics of the most recent conv()/layer() call.
  [[nodiscard]] const systems::RunResult& last_run() const { return last_; }

  [[nodiscard]] sim::Device& device() { return *device_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

 private:
  EngineOptions opts_;
  std::unique_ptr<sim::Device> device_;
  systems::TlpgnnSystem system_;
  systems::RunResult last_;
};

}  // namespace tlp

#include "core/engine.hpp"

#include <algorithm>

#include "tensor/dense_ops.hpp"

namespace tlp {

namespace {

sim::GpuSpec effective_spec(const EngineOptions& opts) {
  sim::GpuSpec spec = opts.gpu;
  if (opts.device_memory_bytes > 0) spec.memory_bytes = opts.device_memory_bytes;
  return spec;
}

}  // namespace

std::vector<int> FallbackPolicy::partition_counts(
    std::int64_t num_vertices) const {
  std::vector<int> ks;
  for (std::int64_t k = std::max(2, initial_partitions);
       num_vertices >= 2 && std::ssize(ks) < max_attempts; k *= 2) {
    ks.push_back(static_cast<int>(std::min(k, num_vertices)));
    if (ks.back() == num_vertices) break;  // one vertex per part
  }
  return ks;
}

void FallbackPolicy::validate() const {
  TLP_CHECK_GE(initial_partitions, 1);
  TLP_CHECK_GE(max_attempts, 0);
}

Engine::Engine(const EngineOptions& opts)
    : opts_(opts),
      device_(std::make_unique<sim::Device>(effective_spec(opts), opts.device)),
      system_(opts.tlpgnn) {
  opts_.fallback.validate();
}

systems::RunResult Engine::conv(const graph::Csr& g,
                                const tensor::Tensor& feat,
                                const models::ConvSpec& spec) {
  TLP_CHECK_MSG(feat.rows() == g.num_vertices(),
                "feature rows " << feat.rows() << " != vertices "
                                << g.num_vertices());
  try {
    last_ = system_.run(*device_, g, feat, spec);
    return last_;
  } catch (const OutOfMemory& oom) {
    // The last OutOfMemory of an exhausted (or empty) schedule propagates.
    const std::vector<int> ks =
        opts_.fallback.partition_counts(g.num_vertices());
    for (std::size_t attempt = 0; attempt < ks.size(); ++attempt) {
      try {
        last_ = conv_partitioned(g, feat, spec, ks[attempt]);
        last_.degradation.retries = static_cast<int>(attempt);
        last_.degradation.reason = oom.what();
        return last_;
      } catch (const OutOfMemory&) {
        if (attempt + 1 == ks.size()) throw;
      }
    }
    throw;
  }
}

tensor::Tensor Engine::layer(const graph::Csr& g, const tensor::Tensor& h,
                             const tensor::Tensor& weights,
                             const models::ConvSpec& spec, bool relu) {
  // Phase 1: dense neural op (host).
  const tensor::Tensor transformed = tensor::matmul(h, weights);
  // Phase 2: graph convolution (simulated GPU, measured).
  systems::RunResult r = conv(g, transformed, spec);
  // Phase 3: activation (host).
  tensor::Tensor out = relu ? tensor::relu(r.output) : std::move(r.output);
  last_.output = out;
  return out;
}

}  // namespace tlp

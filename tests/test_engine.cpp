// Tests for the tlp::Engine public facade.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "models/reference.hpp"
#include "tensor/dense_ops.hpp"

namespace tlp {
namespace {

using models::ConvSpec;
using models::ModelKind;
using tensor::Tensor;

TEST(Engine, ConvMatchesReference) {
  Rng rng(1);
  const graph::Csr g = graph::power_law(200, 1200, 2.3, rng);
  const Tensor h = Tensor::random(g.num_vertices(), 32, rng);
  Engine engine;
  for (const ModelKind kind : models::kAllModels) {
    const ConvSpec spec = ConvSpec::make(kind, 32, rng);
    const systems::RunResult r = engine.conv(g, h, spec);
    const Tensor ref = models::reference_conv(g, h, spec);
    EXPECT_TRUE(tensor::allclose(r.output, ref, 1e-3, 1e-4))
        << models::model_name(kind);
  }
}

TEST(Engine, ConvRejectsShapeMismatch) {
  Rng rng(2);
  const graph::Csr g = graph::path(10);
  const Tensor h = Tensor::random(5, 8, rng);
  Engine engine;
  ConvSpec spec;
  EXPECT_THROW(engine.conv(g, h, spec), CheckError);
}

TEST(Engine, LayerAppliesThreePhases) {
  Rng rng(3);
  const graph::Csr g = graph::power_law(100, 600, 2.3, rng);
  const Tensor h = Tensor::random(g.num_vertices(), 16, rng);
  const Tensor w = Tensor::random(16, 8, rng);
  Engine engine;
  ConvSpec spec;
  spec.kind = ModelKind::kGcn;
  const Tensor out = engine.layer(g, h, w, spec, /*relu=*/true);
  // Reference: matmul -> conv -> relu.
  const Tensor ref = tensor::relu(
      models::reference_conv(g, tensor::matmul(h, w), spec));
  EXPECT_TRUE(tensor::allclose(out, ref, 1e-3, 1e-4));
  // ReLU clamps: no negatives.
  for (const float v : out.flat()) EXPECT_GE(v, 0.0f);
  EXPECT_EQ(out.cols(), 8);
}

TEST(Engine, LastRunExposesMetrics) {
  Rng rng(4);
  const graph::Csr g = graph::path(64);
  const Tensor h = Tensor::random(g.num_vertices(), 8, rng);
  Engine engine;
  ConvSpec spec;
  (void)engine.conv(g, h, spec);
  EXPECT_EQ(engine.last_run().kernel_launches, 1);
  EXPECT_GT(engine.last_run().gpu_time_ms, 0.0);
}

TEST(Engine, CustomGpuSpecPropagates) {
  EngineOptions opts;
  opts.gpu.num_sms = 4;
  Engine engine(opts);
  EXPECT_EQ(engine.device().spec().num_sms, 4);
}

TEST(Engine, TwoLayerPipelineRuns) {
  // A small end-to-end 2-layer GCN forward pass, as in the examples.
  Rng rng(5);
  const graph::Csr g = graph::power_law(150, 800, 2.3, rng);
  const Tensor x = Tensor::random(g.num_vertices(), 32, rng);
  const Tensor w1 = Tensor::random(32, 16, rng, 0.3f);
  const Tensor w2 = Tensor::random(16, 4, rng, 0.3f);
  Engine engine;
  ConvSpec spec;
  spec.kind = ModelKind::kGcn;
  const Tensor h1 = engine.layer(g, x, w1, spec, true);
  const Tensor logits = engine.layer(g, h1, w2, spec, false);
  EXPECT_EQ(logits.rows(), g.num_vertices());
  EXPECT_EQ(logits.cols(), 4);
  const Tensor probs = tensor::softmax_rows(logits);
  for (std::int64_t r = 0; r < probs.rows(); ++r) {
    float sum = 0;
    for (const float v : probs.row(r)) sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-4);
  }
}

TEST(Engine, FallbackScheduleDoublesAndStopsAtVertexCount) {
  using Counts = std::vector<int>;
  const FallbackPolicy defaults;
  EXPECT_EQ(defaults.partition_counts(1), Counts{});  // nothing to split
  EXPECT_EQ(defaults.partition_counts(5), (Counts{2, 4, 5}));  // no 5 again
  EXPECT_EQ(defaults.partition_counts(1000), (Counts{2, 4, 8, 16}));
  EXPECT_EQ(FallbackPolicy{.max_attempts = 0}.partition_counts(1000), Counts{});
  EXPECT_EQ(FallbackPolicy{.initial_partitions = 1}.partition_counts(1000),
            (Counts{2, 4, 8, 16}));
}

TEST(Engine, RejectsInvalidFallbackPolicy) {
  EngineOptions bad_start;
  bad_start.fallback.initial_partitions = 0;
  EXPECT_THROW((void)Engine{bad_start}, CheckError);
  EngineOptions bad_attempts;
  bad_attempts.fallback.max_attempts = -1;
  EXPECT_THROW((void)Engine{bad_attempts}, CheckError);
}

}  // namespace
}  // namespace tlp

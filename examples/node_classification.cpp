// Node classification with a two-layer GCN — the workload the paper's
// introduction motivates. Shows the full three-phase layer pattern (§2.1):
// dense transform, graph convolution (simulated + measured), activation —
// ending in a per-class softmax, with the convolution cost of every layer
// reported. Exits 1 unless both layers match the CPU reference and every
// class probability is finite.
//
//   build/examples/node_classification [--dataset PD] [--classes 8]
#include <cmath>
#include <cstdio>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "core/engine.hpp"
#include "graph/datasets.hpp"
#include "models/reference.hpp"
#include "tensor/dense_ops.hpp"

int main(int argc, char** argv) {
  using namespace tlp;
  const Args args(argc, argv);
  const std::string abbr = args.get("dataset", "PD");
  const std::int64_t classes = args.get_int("classes", 8);
  const std::int64_t hidden = args.get_int("hidden", 16);
  const std::int64_t in_features = args.get_int("feature", 64);

  const auto& ds = graph::dataset_by_abbr(abbr);
  const graph::Csr g =
      graph::make_dataset(ds, {.max_edges = args.get_int("max-edges", 200'000)});
  std::printf("dataset %s (%s): %s\n", ds.name, ds.abbr, g.summary().c_str());

  Rng rng(11);
  tensor::Tensor x = tensor::Tensor::random(g.num_vertices(), in_features, rng);
  const tensor::Tensor w1 =
      tensor::Tensor::random(in_features, hidden, rng, 0.2f);
  const tensor::Tensor w2 = tensor::Tensor::random(hidden, classes, rng, 0.2f);

  Engine engine;
  models::ConvSpec spec;
  spec.kind = models::ModelKind::kGcn;

  // Layer 1: dropout -> linear -> convolution -> ReLU.
  x = tensor::dropout(x, 0.1, rng);
  const tensor::Tensor h1 = engine.layer(g, x, w1, spec, /*relu=*/true);
  std::printf("layer 1 convolution: %s ms simulated GPU time (%d kernel)\n",
              fixed(engine.last_run().gpu_time_ms, 3).c_str(),
              engine.last_run().kernel_launches);

  // Layer 2: linear -> convolution -> softmax readout.
  const tensor::Tensor logits = engine.layer(g, h1, w2, spec, /*relu=*/false);
  std::printf("layer 2 convolution: %s ms simulated GPU time\n",
              fixed(engine.last_run().gpu_time_ms, 3).c_str());
  const tensor::Tensor probs = tensor::softmax_rows(logits);

  // "Classify" a few vertices: argmax over class probabilities.
  std::printf("\npredictions (first 5 vertices):\n");
  for (graph::VertexId v = 0; v < std::min<graph::VertexId>(5, g.num_vertices());
       ++v) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c)
      if (probs.at(v, c) > probs.at(v, best)) best = c;
    std::printf("  vertex %d -> class %lld (p=%s)\n", v,
                static_cast<long long>(best),
                fixed(probs.at(v, best), 3).c_str());
  }

  // Self-check: each simulated convolution against the CPU reference layer.
  const tensor::Tensor ref_h1 = tensor::relu(
      models::reference_conv(g, tensor::matmul(x, w1), spec));
  const tensor::Tensor ref_logits =
      models::reference_conv(g, tensor::matmul(h1, w2), spec);
  bool ok = tensor::allclose(h1, ref_h1, 1e-3, 1e-4) &&
            tensor::allclose(logits, ref_logits, 1e-3, 1e-4);
  for (const float p : probs.flat()) ok = ok && std::isfinite(p);
  std::printf("\nmatches CPU reference: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

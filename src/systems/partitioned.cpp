#include "systems/partitioned.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "graph/partition.hpp"
#include "graph/subgraph.hpp"
#include "models/model.hpp"

namespace tlp::systems {

namespace {

using graph::EdgeOffset;
using graph::VertexId;

/// Sums additive metrics, gpu-time-weights the rate metrics, and keeps the
/// worst-case peak footprint.
void accumulate_metrics(sim::Metrics& total, const sim::Metrics& part) {
  const double wa = total.gpu_time_ms;
  const double wb = part.gpu_time_ms;
  const double wsum = wa + wb;
  const auto blend = [&](double a, double b) {
    return wsum > 0 ? (a * wa + b * wb) / wsum : 0.0;
  };
  total.sectors_per_request = blend(total.sectors_per_request,
                                    part.sectors_per_request);
  total.l1_hit_rate = blend(total.l1_hit_rate, part.l1_hit_rate);
  total.scoreboard_stall = blend(total.scoreboard_stall, part.scoreboard_stall);
  total.sm_utilization = blend(total.sm_utilization, part.sm_utilization);
  total.achieved_occupancy =
      blend(total.achieved_occupancy, part.achieved_occupancy);

  total.kernel_launches += part.kernel_launches;
  total.gpu_time_ms += part.gpu_time_ms;
  total.bytes_load += part.bytes_load;
  total.bytes_store += part.bytes_store;
  total.bytes_atomic += part.bytes_atomic;
  total.bytes_dram += part.bytes_dram;
  total.peak_device_bytes =
      std::max(total.peak_device_bytes, part.peak_device_bytes);
}

}  // namespace

RunResult run_partitioned(TlpgnnSystem& system, sim::Device& dev,
                          const graph::Csr& g, const tensor::Tensor& feat,
                          const models::ConvSpec& spec, int k) {
  TLP_CHECK_GE(k, 2);
  TLP_CHECK_EQ(feat.rows(), g.num_vertices());

  Timer prep;
  const graph::PartitionResult parts = graph::partition_greedy(g, k);
  const std::vector<float> global_norm = models::gcn_norm(g);
  const double partition_ms = prep.seconds() * 1e3;

  RunResult total;
  total.output = tensor::Tensor(g.num_vertices(), feat.cols());
  total.preprocessing_ms = partition_ms;
  int parts_run = 0;
  for (int p = 0; p < k; ++p) {
    const graph::LocalGraph lg = graph::extract_partition(g, parts.part, p);
    if (lg.num_owned == 0) continue;  // greedy partitioning can leave gaps

    // Gather the inputs into local id space: global norms, feature rows, and
    // per-edge weights in global edge order.
    const VertexId nloc = lg.csr.num_vertices();
    std::vector<float> norm;
    norm.reserve(static_cast<std::size_t>(nloc));
    tensor::Tensor local_feat(nloc, feat.cols());
    for (VertexId i = 0; i < nloc; ++i) {
      const VertexId gv = lg.to_global[static_cast<std::size_t>(i)];
      norm.push_back(global_norm[static_cast<std::size_t>(gv)]);
      const auto src = feat.row(gv);
      std::copy(src.begin(), src.end(), local_feat.row(i).begin());
    }
    models::ConvSpec local_spec = spec;
    if (spec.has_edge_weights()) {
      local_spec.edge_weights.clear();
      for (VertexId i = 0; i < lg.num_owned; ++i) {
        const VertexId gv = lg.to_global[static_cast<std::size_t>(i)];
        const EdgeOffset lo = g.indptr()[static_cast<std::size_t>(gv)];
        const EdgeOffset hi = g.indptr()[static_cast<std::size_t>(gv) + 1];
        local_spec.edge_weights.insert(
            local_spec.edge_weights.end(),
            spec.edge_weights.begin() + lo, spec.edge_weights.begin() + hi);
      }
    }
    RunResult r =
        system.run_with_norm(dev, lg.csr, local_feat, local_spec, &norm);

    for (VertexId i = 0; i < lg.num_owned; ++i) {
      const auto src = r.output.row(i);
      const auto dst =
          total.output.row(lg.to_global[static_cast<std::size_t>(i)]);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    accumulate_metrics(total.metrics, r.metrics);
    total.gpu_time_ms += r.gpu_time_ms;
    total.measured_ms += r.measured_ms;
    total.runtime_ms += r.runtime_ms;
    total.preprocessing_ms += r.preprocessing_ms;
    total.kernel_launches += r.kernel_launches;
    total.peak_device_bytes =
        std::max(total.peak_device_bytes, r.peak_device_bytes);
    ++parts_run;
  }
  TLP_CHECK_GT(parts_run, 0);
  total.degradation.degraded = true;
  total.degradation.partitions = parts_run;
  return total;
}

}  // namespace tlp::systems

// Greedy edge-balanced vertex partitioning — the METIS-style substrate the
// paper names as the enabler for its future-work multi-GPU deployment (§1,
// "Limitations"). systems::run_partitioned uses it to split a convolution
// that does not fit device memory into parts that do.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace tlp::graph {

struct PartitionResult {
  /// part[v] in [0, k) for every vertex.
  std::vector<int> part;
  /// Number of edges whose endpoints land in different parts.
  EdgeOffset cut_edges = 0;
  /// Total in-edges per part (the balance objective).
  std::vector<EdgeOffset> part_edges;
};

/// Assigns vertices to k parts, greedily placing heavy (high in-degree)
/// vertices first onto the currently lightest part, with a locality bonus for
/// the part holding most of the vertex's already-placed neighbors.
PartitionResult partition_greedy(const Csr& g, int k);

/// Edge balance = max(part_edges) / mean(part_edges); 1.0 is perfect.
double edge_balance(const PartitionResult& r);

}  // namespace tlp::graph

// Partition-local and induced subgraph extraction. A partition's local graph
// is the layout systems::run_partitioned runs each part on (and a multi-GPU
// deployment, the paper's §1 future work, would ship to each device): owned
// vertices first, then the halo vertices whose features the owned rows read.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace tlp::graph {

struct LocalGraph {
  /// Local CSR: rows [0, num_owned) are the owned vertices' in-edges with
  /// neighbor ids in local space; halo vertices have empty rows.
  Csr csr;
  /// local id -> global id, size = csr.num_vertices().
  std::vector<VertexId> to_global;
  /// Owned vertices come first in the local id space.
  VertexId num_owned = 0;

  [[nodiscard]] VertexId num_halo() const {
    return csr.num_vertices() - num_owned;
  }
};

/// Extracts partition `p`'s local graph from a global pull-CSR and a vertex
/// assignment (part[v] in [0, k)). Owned vertices keep their global order,
/// halo vertices follow in first-use order, and each owned row keeps the
/// global row's in-edge order.
LocalGraph extract_partition(const Csr& g, std::span<const int> part, int p);

/// Induced subgraph over `keep`: kept vertices are relabeled densely in id
/// order; edges with a dropped endpoint disappear. Returns the local graph
/// and the local->global map.
LocalGraph induced_subgraph(const Csr& g, const std::vector<bool>& keep);

}  // namespace tlp::graph

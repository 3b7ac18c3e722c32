#include "graph/subgraph.hpp"

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace tlp::graph {

LocalGraph extract_partition(const Csr& g, std::span<const int> part, int p) {
  TLP_CHECK(part.size() == static_cast<std::size_t>(g.num_vertices()));
  LocalGraph out;
  std::vector<VertexId> to_local(static_cast<std::size_t>(g.num_vertices()), -1);

  // Owned vertices first, preserving global order.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == p) {
      to_local[static_cast<std::size_t>(v)] =
          static_cast<VertexId>(out.to_global.size());
      out.to_global.push_back(v);
    }
  }
  out.num_owned = static_cast<VertexId>(out.to_global.size());

  // Halo: sources of owned vertices' in-edges that live elsewhere, in
  // first-use order.
  for (VertexId i = 0; i < out.num_owned; ++i) {
    const VertexId gv = out.to_global[static_cast<std::size_t>(i)];
    for (const VertexId u : g.neighbors(gv)) {
      if (to_local[static_cast<std::size_t>(u)] < 0) {
        to_local[static_cast<std::size_t>(u)] =
            static_cast<VertexId>(out.to_global.size());
        out.to_global.push_back(u);
      }
    }
  }
  const auto nloc = static_cast<VertexId>(out.to_global.size());

  // Owned rows replicate the global rows in their edge order, so a
  // per-vertex float accumulation over a local row matches the full-graph
  // one bit for bit; halo rows are empty.
  std::vector<EdgeOffset> indptr(static_cast<std::size_t>(nloc) + 1, 0);
  std::vector<VertexId> indices;
  for (VertexId i = 0; i < out.num_owned; ++i) {
    const VertexId gv = out.to_global[static_cast<std::size_t>(i)];
    indptr[static_cast<std::size_t>(i) + 1] =
        indptr[static_cast<std::size_t>(i)] + g.degree(gv);
    for (const VertexId u : g.neighbors(gv))
      indices.push_back(to_local[static_cast<std::size_t>(u)]);
  }
  for (VertexId i = out.num_owned; i < nloc; ++i) {
    indptr[static_cast<std::size_t>(i) + 1] =
        indptr[static_cast<std::size_t>(i)];
  }
  out.csr = Csr(std::move(indptr), std::move(indices));
  return out;
}

LocalGraph induced_subgraph(const Csr& g, const std::vector<bool>& keep) {
  TLP_CHECK(keep.size() == static_cast<std::size_t>(g.num_vertices()));
  LocalGraph out;
  std::vector<VertexId> to_local(static_cast<std::size_t>(g.num_vertices()), -1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (keep[static_cast<std::size_t>(v)]) {
      to_local[static_cast<std::size_t>(v)] =
          static_cast<VertexId>(out.to_global.size());
      out.to_global.push_back(v);
    }
  }
  out.num_owned = static_cast<VertexId>(out.to_global.size());
  std::vector<Edge> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!keep[static_cast<std::size_t>(v)]) continue;
    for (const VertexId u : g.neighbors(v)) {
      if (keep[static_cast<std::size_t>(u)]) {
        edges.push_back({to_local[static_cast<std::size_t>(u)],
                         to_local[static_cast<std::size_t>(v)]});
      }
    }
  }
  out.csr = build_csr(static_cast<VertexId>(out.to_global.size()),
                      std::move(edges), {.dedup = false});
  return out;
}

}  // namespace tlp::graph

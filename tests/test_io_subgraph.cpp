// Tests for graph file I/O and partition-local subgraph extraction.
#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "graph/subgraph.hpp"

namespace tlp::graph {
namespace {

bool same_structure(const Csr& a, const Csr& b) {
  return std::vector(a.indptr().begin(), a.indptr().end()) ==
             std::vector(b.indptr().begin(), b.indptr().end()) &&
         std::vector(a.indices().begin(), a.indices().end()) ==
             std::vector(b.indices().begin(), b.indices().end());
}

TEST(EdgeListIo, RoundTrip) {
  Rng rng(1);
  const Csr g = power_law(100, 700, 2.3, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Csr g2 = read_edge_list(ss, g.num_vertices());
  EXPECT_TRUE(same_structure(g, g2));
}

TEST(EdgeListIo, CommentsAndVertexCount) {
  std::stringstream ss("# comment\n% also comment\n0 1\n2 0\n");
  const Csr g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.neighbors(0)[0], 2);
}

TEST(EdgeListIo, RejectsMalformed) {
  std::stringstream bad("0 not-a-number\n");
  EXPECT_THROW(read_edge_list(bad), tlp::CheckError);
  std::stringstream neg("-1 0\n");
  EXPECT_THROW(read_edge_list(neg), tlp::CheckError);
  std::stringstream small("0 9\n");
  EXPECT_THROW(read_edge_list(small, 3), tlp::CheckError);
}

TEST(MatrixMarketIo, GeneralPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 2\n"
      "3 1\n");
  const Csr g = read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  // Entry (1,2): row 1 aggregates from column 2 -> edge 1 -> 0 (0-based).
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.neighbors(0)[0], 1);
  EXPECT_EQ(g.degree(2), 1);
}

TEST(MatrixMarketIo, SymmetricMirrors) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const Csr g = read_matrix_market(ss);
  EXPECT_EQ(g.num_edges(), 3);  // (2,1) mirrored, diagonal (3,3) not
}

TEST(MatrixMarketIo, RejectsBadHeader) {
  std::stringstream no_banner("3 3 1\n1 1\n");
  EXPECT_THROW(read_matrix_market(no_banner), tlp::CheckError);
  std::stringstream rect("%%MatrixMarket matrix coordinate pattern general\n"
                         "3 4 1\n1 1\n");
  EXPECT_THROW(read_matrix_market(rect), tlp::CheckError);
}

TEST(BinaryIo, RoundTrip) {
  Rng rng(2);
  const Csr g = power_law(500, 4000, 2.2, rng);
  std::stringstream ss;
  write_binary_csr(ss, g);
  const Csr g2 = read_binary_csr(ss);
  EXPECT_TRUE(same_structure(g, g2));
}

TEST(BinaryIo, RejectsGarbage) {
  std::stringstream ss("this is not a binary CSR stream at all");
  EXPECT_THROW(read_binary_csr(ss), tlp::CheckError);
}

TEST(Subgraph, PartitionCoversAllEdgesOnce) {
  Rng rng(3);
  const Csr g = power_law(400, 3000, 2.3, rng);
  const PartitionResult part = partition_greedy(g, 3);
  std::int64_t edges = 0, owned = 0;
  for (int p = 0; p < 3; ++p) {
    const LocalGraph lg = extract_partition(g, part.part, p);
    edges += lg.csr.num_edges();
    owned += lg.num_owned;
    // Halo rows have no in-edges in the local graph.
    for (graph::VertexId v = lg.num_owned; v < lg.csr.num_vertices(); ++v)
      EXPECT_EQ(lg.csr.degree(v), 0);
  }
  EXPECT_EQ(edges, g.num_edges());
  EXPECT_EQ(owned, g.num_vertices());
}

TEST(Subgraph, PartitionPreservesNeighborhoods) {
  Rng rng(4);
  const Csr g = power_law(200, 1500, 2.3, rng);
  const PartitionResult part = partition_greedy(g, 2);
  const LocalGraph lg = extract_partition(g, part.part, 0);
  for (graph::VertexId lv = 0; lv < lg.num_owned; ++lv) {
    const graph::VertexId gv = lg.to_global[static_cast<std::size_t>(lv)];
    const auto local_n = lg.csr.neighbors(lv);
    const auto global_n = g.neighbors(gv);
    ASSERT_EQ(local_n.size(), global_n.size());
    // Mapped back to global ids, the local row is the global row in the
    // same order: run_partitioned's bit-identity rests on it.
    std::vector<graph::VertexId> mapped;
    for (const auto lu : local_n)
      mapped.push_back(lg.to_global[static_cast<std::size_t>(lu)]);
    const std::vector<graph::VertexId> expect(global_n.begin(),
                                              global_n.end());
    EXPECT_EQ(mapped, expect);
  }
}

TEST(Subgraph, InducedDropsCrossEdges) {
  // Path 0->1->2->3, keep {0,1,3}: only edge 0->1 survives.
  const Csr g = path(4);
  const LocalGraph lg = induced_subgraph(g, {true, true, false, true});
  EXPECT_EQ(lg.csr.num_vertices(), 3);
  EXPECT_EQ(lg.csr.num_edges(), 1);
  EXPECT_EQ(lg.to_global[2], 3);
  EXPECT_EQ(lg.csr.neighbors(1)[0], 0);
}

TEST(Subgraph, InducedEmptyAndFull) {
  const Csr g = complete(5);
  const LocalGraph none = induced_subgraph(g, std::vector<bool>(5, false));
  EXPECT_EQ(none.csr.num_vertices(), 0);
  const LocalGraph all = induced_subgraph(g, std::vector<bool>(5, true));
  EXPECT_EQ(all.csr.num_edges(), g.num_edges());
}

}  // namespace
}  // namespace tlp::graph

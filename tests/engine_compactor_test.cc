#include "engine/compactor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;

TEST(CompactorTest, CompactsExactlyTheActiveRuns) {
  const CsrGraph g = PaperFigure1Graph();
  const std::vector<VertexId> actives = {0, 3};  // a and d
  const auto result = CompactActiveEdges(g, actives, /*include_weights=*/true);
  const SubCsr& sub = result.sub;
  ASSERT_EQ(sub.vertices.size(), 2u);
  EXPECT_EQ(sub.row_offsets, (std::vector<EdgeId>{0, 2, 4}));
  // a -> {b(2), c(6)}; d -> {c(1), e(1)}.
  EXPECT_EQ(sub.column_index, (std::vector<VertexId>{1, 2, 2, 4}));
  EXPECT_EQ(sub.weights, (std::vector<Weight>{2, 6, 1, 1}));
}

TEST(CompactorTest, UnweightedSkipsWeightArray) {
  const CsrGraph g = PaperFigure1Graph();
  const auto result = CompactActiveEdges(g, std::vector<VertexId>{0},
                                         /*include_weights=*/false);
  EXPECT_TRUE(result.sub.weights.empty());
  EXPECT_EQ(result.sub.num_edges(), 2u);
}

TEST(CompactorTest, TransferBytesIncludeIndexTerm) {
  // Formula (2): A_e * d1 + |A| * d2 (plus weights when shipped).
  const CsrGraph g = PaperFigure1Graph();
  const auto result =
      CompactActiveEdges(g, std::vector<VertexId>{0, 1}, true);
  const uint64_t edges = result.sub.num_edges();
  EXPECT_EQ(result.sub.TransferBytes(),
            edges * 4 + edges * 4 + 2 * kBytesPerIndexEntry);
}

TEST(CompactorTest, EmptyActiveSet) {
  const CsrGraph g = PaperFigure1Graph();
  const auto result = CompactActiveEdges(g, std::vector<VertexId>{}, true);
  EXPECT_EQ(result.sub.num_edges(), 0u);
  EXPECT_EQ(result.sub.row_offsets.size(), 1u);
}

TEST(CompactorTest, ZeroDegreeVerticesAllowed) {
  const CsrGraph g = testing::StarGraph(10);
  const auto result =
      CompactActiveEdges(g, std::vector<VertexId>{0, 5, 9}, false);
  EXPECT_EQ(result.sub.num_edges(), 9u);  // only the hub has edges
  EXPECT_EQ(result.sub.row_offsets, (std::vector<EdgeId>{0, 9, 9, 9}));
}

TEST(CompactorTest, FullFrontierEqualsWholeGraph) {
  const CsrGraph g = SmallRmat(9, 8);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  const auto result = CompactActiveEdges(g, all, true);
  EXPECT_EQ(result.sub.num_edges(), g.num_edges());
  EXPECT_TRUE(std::ranges::equal(result.sub.column_index, g.column_index()));
  EXPECT_TRUE(std::ranges::equal(result.sub.weights, g.edge_weights()));
}

TEST(CompactorTest, ReportsMeasuredTimeAndBytes) {
  const CsrGraph g = SmallRmat(12, 16);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  const auto result = CompactActiveEdges(g, all, true);
  EXPECT_GT(result.measured_seconds, 0.0);
  // Read+write of neighbours and weights: 16 bytes per edge, plus index.
  EXPECT_EQ(result.bytes_moved,
            g.num_edges() * 16 + all.size() * kBytesPerIndexEntry);
}

TEST(CompactorTest, SubCsrKernelEquivalentToGraphKernel) {
  // Processing the compacted subgraph must relax exactly the same edges as
  // processing those vertices on the original CSR.
  const CsrGraph g = SmallRmat(8, 6);
  std::vector<VertexId> actives;
  for (VertexId v = 0; v < g.num_vertices(); v += 3) actives.push_back(v);
  const auto result = CompactActiveEdges(g, actives, true);
  const SubCsr& sub = result.sub;
  uint64_t expected_edges = 0;
  for (VertexId v : actives) expected_edges += g.out_degree(v);
  EXPECT_EQ(sub.num_edges(), expected_edges);
  for (size_t i = 0; i < sub.vertices.size(); ++i) {
    const VertexId v = sub.vertices[i];
    const auto nbrs = g.neighbors(v);
    for (EdgeId e = sub.row_offsets[i]; e < sub.row_offsets[i + 1]; ++e) {
      EXPECT_EQ(sub.column_index[e], nbrs[e - sub.row_offsets[i]]);
    }
  }
}

}  // namespace
}  // namespace hytgraph

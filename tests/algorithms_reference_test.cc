#include "algorithms/reference.h"

#include <gtest/gtest.h>

#include <numeric>

#include "algorithms/programs.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::ChainGraph;
using testing::PaperFigure1Graph;
using testing::StarGraph;
using testing::TwoCyclesGraph;

TEST(ReferenceBfsTest, ChainLevels) {
  const CsrGraph g = ChainGraph(10);
  const auto levels = ReferenceBfs(g, 0);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(levels[v], v);
}

TEST(ReferenceBfsTest, UnreachableIsMarked) {
  const CsrGraph g = ChainGraph(5);
  const auto levels = ReferenceBfs(g, 2);
  EXPECT_EQ(levels[0], kUnreachable);
  EXPECT_EQ(levels[1], kUnreachable);
  EXPECT_EQ(levels[2], 0u);
  EXPECT_EQ(levels[4], 2u);
}

TEST(ReferenceBfsTest, StarIsOneHop) {
  const CsrGraph g = StarGraph(50);
  const auto levels = ReferenceBfs(g, 0);
  EXPECT_EQ(levels[0], 0u);
  for (VertexId v = 1; v < 50; ++v) EXPECT_EQ(levels[v], 1u);
}

TEST(ReferenceSsspTest, Figure1Distances) {
  const CsrGraph g = PaperFigure1Graph();
  const auto dists = ReferenceSssp(g, 0);
  EXPECT_EQ(dists, (std::vector<uint32_t>{0, 2, 4, 3, 4, 6}));
}

TEST(ReferenceSsspTest, WeightedChainAccumulates) {
  const CsrGraph g = ChainGraph(6, /*w=*/7);
  const auto dists = ReferenceSssp(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(dists[v], 7u * v);
}

TEST(ReferenceCcTest, TwoCyclesGetTwoLabels) {
  const CsrGraph g = TwoCyclesGraph(10);
  const auto labels = ReferenceCc(g);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(labels[v], 0u);
  for (VertexId v = 5; v < 10; ++v) EXPECT_EQ(labels[v], 5u);
}

TEST(ReferenceCcTest, SingleComponentCollapsesToZero) {
  const CsrGraph g = testing::SmallRmat(8, 8, /*seed=*/3, /*symmetrize=*/true);
  const auto labels = ReferenceCc(g);
  // The giant component of a symmetrized RMAT contains vertex 0's label for
  // the overwhelming majority of vertices.
  const uint64_t zeros =
      std::count(labels.begin(), labels.end(), labels[0]);
  EXPECT_GT(zeros, g.num_vertices() / 2);
}

TEST(ReferencePageRankTest, RanksArePositiveAndBoundedBelow) {
  const CsrGraph g = testing::SmallRmat(8, 8);
  const auto ranks = ReferencePageRank(g);
  for (double r : ranks) EXPECT_GE(r, 1.0 - 0.85 - 1e-9);
}

TEST(ReferencePageRankTest, TotalMassConserved) {
  // Unnormalized delta-PR on a graph with no dangling vertices: total rank
  // converges to n*(1-d)/(1-d) = n (each vertex injects (1-d), the damping
  // geometric series sums to 1/(1-d)).
  const CsrGraph g = TwoCyclesGraph(10);  // every vertex has out-degree 1
  const auto ranks = ReferencePageRank(g, 0.85, 1e-12);
  const double total = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  EXPECT_NEAR(total, 10.0, 1e-6);
}

TEST(ReferencePageRankTest, SymmetricStructureGivesEqualRanks) {
  const CsrGraph g = TwoCyclesGraph(8);
  const auto ranks = ReferencePageRank(g, 0.85, 1e-12);
  for (size_t v = 1; v < ranks.size(); ++v) {
    EXPECT_NEAR(ranks[v], ranks[0], 1e-9);
  }
}

TEST(ReferencePageRankTest, HubReceivesMoreRankThanLeaves) {
  // Star with edges both ways: hub has in-degree n-1.
  auto g = BuildCsr(10, [] {
    PageVector<Edge> edges;
    for (VertexId v = 1; v < 10; ++v) {
      edges.push_back({0, v, 1});
      edges.push_back({v, 0, 1});
    }
    return edges;
  }());
  ASSERT_TRUE(g.ok());
  const auto ranks = ReferencePageRank(*g, 0.85, 1e-10);
  for (VertexId v = 1; v < 10; ++v) EXPECT_GT(ranks[0], ranks[v]);
}

TEST(ReferencePhpTest, SourceHasHighestProximity) {
  const CsrGraph g = PaperFigure1Graph();
  const auto values = ReferencePhp(g, 0);
  for (VertexId v = 1; v < 6; ++v) EXPECT_GT(values[0], values[v]);
  EXPECT_NEAR(values[0], 1.0, 1e-9);  // source mass is never re-entered
}

TEST(ReferencePhpTest, ValuesDecayWithDistance) {
  const CsrGraph g = ChainGraph(5);
  const auto values = ReferencePhp(g, 0, 0.8, 1e-12);
  for (VertexId v = 1; v < 5; ++v) EXPECT_LT(values[v], values[v - 1]);
}

TEST(ReferencePhpTest, UnreachableVerticesStayZero) {
  const CsrGraph g = ChainGraph(5);
  const auto values = ReferencePhp(g, 3);
  EXPECT_EQ(values[0], 0.0);
  EXPECT_EQ(values[2], 0.0);
  EXPECT_GT(values[4], 0.0);
}

}  // namespace
}  // namespace hytgraph

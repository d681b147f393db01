#include "graph/graph_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "util/random.h"
#include "util/thread_pool.h"

namespace hytgraph {
namespace {

TEST(GraphBuilderTest, BuildsSortedRuns) {
  auto g = BuildCsr(4, {{2, 1, 5}, {0, 3, 1}, {0, 1, 2}, {2, 0, 7}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 4u);
  EXPECT_EQ(g->neighbors(0)[0], 1u);
  EXPECT_EQ(g->neighbors(0)[1], 3u);
  EXPECT_EQ(g->weights(0)[0], 2u);
  EXPECT_EQ(g->neighbors(2)[0], 0u);
  EXPECT_EQ(g->neighbors(2)[1], 1u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoints) {
  EXPECT_FALSE(BuildCsr(2, {{0, 2, 1}}).ok());
  EXPECT_FALSE(BuildCsr(2, {{5, 0, 1}}).ok());
}

TEST(GraphBuilderTest, SelfLoopRemoval) {
  BuilderOptions opts;
  opts.remove_self_loops = true;
  auto g = BuildCsr(3, {{0, 0, 1}, {0, 1, 1}, {2, 2, 1}}, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(GraphBuilderTest, Deduplicate) {
  BuilderOptions opts;
  opts.deduplicate = true;
  auto g = BuildCsr(3, {{0, 1, 4}, {0, 1, 9}, {1, 2, 1}}, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->weights(0)[0], 4u);  // lowest weight survives the sort+unique
}

TEST(GraphBuilderTest, SymmetrizeAddsReverseEdges) {
  BuilderOptions opts;
  opts.symmetrize = true;
  auto g = BuildCsr(3, {{0, 1, 7}, {1, 2, 3}}, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 4u);
  EXPECT_EQ(g->neighbors(1)[0], 0u);  // reverse of 0->1
  EXPECT_EQ(g->weights(1)[0], 7u);    // same weight both directions
}

TEST(GraphBuilderTest, SymmetrizeSkipsSelfLoops) {
  BuilderOptions opts;
  opts.symmetrize = true;
  auto g = BuildCsr(2, {{0, 0, 1}}, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);  // self loop not duplicated
}

TEST(GraphBuilderTest, UnweightedBuild) {
  BuilderOptions opts;
  opts.weighted = false;
  auto g = BuildCsr(3, {{0, 1, 42}}, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->is_weighted());
}

TEST(GraphBuilderTest, IsolatedVerticesAllowed) {
  auto g = BuildCsr(10, {{0, 9, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 10u);
  for (VertexId v = 1; v < 9; ++v) EXPECT_EQ(g->out_degree(v), 0u);
}

TEST(GraphBuilderTest, EmptyEdgeList) {
  auto g = BuildCsr(5, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 0u);
  EXPECT_EQ(g->num_vertices(), 5u);
}

TEST(GraphBuilderTest, TriplesConvenience) {
  auto g = BuildFromTriples(3, {{0, 1, 2}, {1, 2, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->weights(1)[0], 3u);
}

// The sort-based builder that the counting-sort BuildCsr replaced: append
// reverses, drop self loops, sort by (src, dst, weight), keep the first edge
// of every (src, dst) run.
Result<CsrGraph> ReferenceBuild(VertexId n, PageVector<Edge> edges,
                                const BuilderOptions& options) {
  for (const Edge& e : edges) {
    if (e.src >= n || e.dst >= n) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.src) + "," + std::to_string(e.dst) +
          ") out of range for n=" + std::to_string(n));
    }
  }
  if (options.symmetrize) {
    const size_t original = edges.size();
    for (size_t i = 0; i < original; ++i) {
      const Edge e = edges[i];
      if (e.src != e.dst) edges.push_back(Edge{e.dst, e.src, e.weight});
    }
  }
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.src, a.dst, a.weight) < std::tie(b.src, b.dst, b.weight);
  });
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  PageVector<EdgeId> row_offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++row_offsets[e.src + 1];
  for (size_t i = 1; i < row_offsets.size(); ++i) {
    row_offsets[i] += row_offsets[i - 1];
  }
  PageVector<VertexId> column_index;
  PageVector<Weight> edge_weights;
  for (const Edge& e : edges) {
    column_index.push_back(e.dst);
    if (options.weighted) edge_weights.push_back(e.weight);
  }
  return CsrGraph::Create(std::move(row_offsets), std::move(column_index),
                          std::move(edge_weights));
}

// Runs BuildCsr on a pool worker, where its nested ParallelFor calls run
// serially on that worker.
Result<CsrGraph> BuildSerially(VertexId n, PageVector<Edge> edges,
                               const BuilderOptions& options) {
  ThreadPool pool(2);
  std::optional<Result<CsrGraph>> result;
  pool.ParallelFor(
      2,
      [&](int /*shard*/, uint64_t begin, uint64_t /*end*/) {
        if (begin == 0) result.emplace(BuildCsr(n, std::move(edges), options));
      },
      /*min_grain=*/1);
  return std::move(*result);
}

// Random edges over the first n - 64 vertices (the rest stay isolated), with
// a hub holding a fifth of all edges, a self loop in every 13 edges, and a
// repeat of an earlier (src, dst) pair under a fresh weight in every 7.
PageVector<Edge> RandomEdges(uint64_t seed, VertexId n, size_t m,
                             VertexId hub) {
  Rng rng(seed);
  const VertexId active = n - 64;
  PageVector<Edge> edges;
  edges.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const auto weight = static_cast<Weight>(rng.NextInRange(1, 8));
    Edge e;
    if (i % 7 == 6) {
      e = edges[rng.NextBounded(i)];
    } else {
      e.src = i % 5 == 0 ? hub : static_cast<VertexId>(rng.NextBounded(active));
      e.dst = static_cast<VertexId>(rng.NextBounded(active));
      if (i % 13 == 0) e.dst = e.src;
    }
    e.weight = weight;
    edges.push_back(e);
  }
  return edges;
}

void ExpectSameGraph(const CsrGraph& got, const CsrGraph& want) {
  EXPECT_EQ(got.row_offsets(), want.row_offsets());
  EXPECT_EQ(got.column_index(), want.column_index());
  EXPECT_EQ(got.edge_weights(), want.edge_weights());
}

TEST(GraphBuilderTest, MatchesSortReferenceForEveryOptionCombination) {
  constexpr VertexId kHub = 17;
  struct Input {
    const char* name;
    VertexId n;
    PageVector<Edge> edges;
  };
  // 5000 vertices make 625 buckets of 8 sources, so the hub's ~24K-edge row
  // is far larger than a bucket's ~190 edges on average.
  const std::vector<Input> inputs = {
      {"random", 5000, RandomEdges(/*seed=*/1, 5000, 120000, kHub)},
      {"random-other-seed", 3000, RandomEdges(/*seed=*/2, 3000, 70000, kHub)},
      {"small", 300, RandomEdges(/*seed=*/3, 300, 500, kHub)},
      {"empty", 7, {}},
      {"no-vertices", 0, {}},
  };
  for (const Input& input : inputs) {
    for (int mask = 0; mask < 16; ++mask) {
      BuilderOptions options;
      options.symmetrize = (mask & 1) != 0;
      options.remove_self_loops = (mask & 2) != 0;
      options.deduplicate = (mask & 4) != 0;
      options.weighted = (mask & 8) != 0;
      SCOPED_TRACE(std::string(input.name) + " options mask " +
                   std::to_string(mask));
      auto want = ReferenceBuild(input.n, input.edges, options);
      auto parallel = BuildCsr(input.n, input.edges, options);
      auto serial = BuildSerially(input.n, input.edges, options);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ExpectSameGraph(*parallel, *want);
      ExpectSameGraph(*serial, *want);
      EXPECT_EQ(parallel->num_vertices(), input.n);
    }
  }
}

TEST(GraphBuilderTest, DeduplicateKeepsLowestWeightOfEachPair) {
  BuilderOptions options;
  options.deduplicate = true;
  options.symmetrize = true;
  auto g = BuildCsr(3, {{0, 1, 9}, {1, 0, 4}, {0, 1, 6}, {1, 2, 3}}, options);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->out_degree(0), 1u);
  EXPECT_EQ(g->weights(0)[0], 4u);  // 1->0 weight 4 mirrored onto 0->1
  ASSERT_EQ(g->out_degree(1), 2u);
  EXPECT_EQ(g->weights(1)[0], 4u);
}

TEST(GraphBuilderTest, OutOfRangeErrorNamesFirstOffendingEdgeInInputOrder) {
  constexpr VertexId kN = 5000;
  PageVector<Edge> edges = RandomEdges(/*seed=*/4, kN, 120000, /*hub=*/3);
  // Offenders in three of the parallel pass's static chunks, two of them
  // adjacent; the error names the earliest in input order.
  edges[100000] = Edge{kN + 9, 1, 1};
  edges[40000] = Edge{2, kN, 1};
  edges[40001] = Edge{kN + 1, 2, 1};
  edges[90000] = Edge{kN + 7, kN + 8, 1};
  for (bool symmetrize : {false, true}) {
    BuilderOptions options;
    options.symmetrize = symmetrize;
    auto want = ReferenceBuild(kN, edges, options);
    auto parallel = BuildCsr(kN, edges, options);
    auto serial = BuildSerially(kN, edges, options);
    ASSERT_TRUE(want.status().IsInvalidArgument());
    EXPECT_EQ(want.status().message(), "edge (2,5000) out of range for n=5000");
    EXPECT_EQ(parallel.status(), want.status());
    EXPECT_EQ(serial.status(), want.status());
  }
}

}  // namespace
}  // namespace hytgraph

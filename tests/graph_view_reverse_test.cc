// The reverse side of GraphView: in-neighbor iteration over the cached
// transpose + reverse-indexed overlay must agree with transposing the
// materialized (folded) CSR — tombstones, inserts, and hub-sort relabeling
// included — and the transpose must be built at most once per physical
// layout (seeded across mutation epochs, dropped on Compact()).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "dynamic/delta_overlay.h"
#include "dynamic/mutation.h"
#include "graph/graph_view.h"
#include "graph/hub_sort.h"
#include "graph/transforms.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;
using testing::StarGraph;

std::shared_ptr<const CsrGraph> Shared(CsrGraph graph) {
  return std::make_shared<const CsrGraph>(std::move(graph));
}

MutationBatch MixedBatch(const CsrGraph& base, uint64_t inserts,
                         uint64_t deletes, uint64_t seed) {
  MutationBatch batch;
  const VertexId n = base.num_vertices();
  uint64_t state = seed;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (uint64_t i = 0; i < deletes; ++i) {
    const VertexId src = static_cast<VertexId>(next() % n);
    const auto nbrs = base.neighbors(src);
    if (nbrs.empty()) continue;
    batch.DeleteEdge(src, nbrs[next() % nbrs.size()]);
  }
  for (uint64_t i = 0; i < inserts; ++i) {
    batch.InsertEdge(static_cast<VertexId>(next() % n),
                     static_cast<VertexId>(next() % n),
                     static_cast<Weight>(1 + next() % 32));
  }
  return batch;
}

/// In-adjacency of v as a sorted (source, weight) multiset.
std::vector<std::pair<VertexId, Weight>> InEdgesOf(const GraphView& view,
                                                   VertexId v) {
  std::vector<std::pair<VertexId, Weight>> edges;
  view.ForEachInNeighbor(
      v, [&](VertexId u, Weight w) { edges.emplace_back(u, w); });
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Reference in-adjacency: transpose the folded CSR of `view` and read row
/// v (a plain CSR has no overlay, so its reverse side is just the
/// transpose).
std::vector<std::pair<VertexId, Weight>> ReferenceInEdgesOf(
    const CsrGraph& folded, VertexId v) {
  auto reversed = ReverseGraph(folded);
  EXPECT_TRUE(reversed.ok()) << reversed.status().ToString();
  std::vector<std::pair<VertexId, Weight>> edges;
  const auto nbrs = reversed->neighbors(v);
  const auto wts = reversed->weights(v);
  for (size_t e = 0; e < nbrs.size(); ++e) {
    edges.emplace_back(nbrs[e], wts.empty() ? Weight{1} : wts[e]);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

void ExpectReverseMatchesFolded(const GraphView& view) {
  auto folded = view.Materialize();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  auto reversed = ReverseGraph(*folded);
  ASSERT_TRUE(reversed.ok()) << reversed.status().ToString();
  for (VertexId v = 0; v < view.num_vertices(); ++v) {
    std::vector<std::pair<VertexId, Weight>> expected;
    const auto nbrs = reversed->neighbors(v);
    const auto wts = reversed->weights(v);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      expected.emplace_back(nbrs[e], wts.empty() ? Weight{1} : wts[e]);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(InEdgesOf(view, v), expected) << "vertex " << v;
  }
}

TEST(GraphViewReverseTest, TransparentViewMatchesTranspose) {
  auto base = Shared(PaperFigure1Graph());
  const GraphView view(base);
  for (VertexId v = 0; v < view.num_vertices(); ++v) {
    EXPECT_EQ(InEdgesOf(view, v), ReferenceInEdgesOf(*base, v));
    EXPECT_FALSE(view.HasReverseDelta(v));
  }
}

TEST(GraphViewReverseTest, TombstonesSuppressReverseEdges) {
  auto base = Shared(PaperFigure1Graph());
  auto overlay = std::make_shared<DeltaOverlay>(base);
  MutationBatch batch;
  batch.DeleteEdge(0, 2);  // a->c: c loses in-neighbor a
  batch.DeleteEdge(3, 2);  // d->c: c loses in-neighbor d
  ASSERT_TRUE(overlay->Apply(batch).ok());

  const GraphView view(base, overlay);
  ExpectReverseMatchesFolded(view);
  // Vertex 2 (c) keeps only b -> c.
  const auto in_c = InEdgesOf(view, 2);
  ASSERT_EQ(in_c.size(), 1u);
  EXPECT_EQ(in_c[0].first, 1u);
  EXPECT_TRUE(view.HasReverseDelta(2));
}

TEST(GraphViewReverseTest, InsertsAppearAsReverseEdges) {
  auto base = Shared(PaperFigure1Graph());
  auto overlay = std::make_shared<DeltaOverlay>(base);
  MutationBatch batch;
  batch.InsertEdge(5, 3, 7);  // f->d: d gains in-neighbor f
  batch.InsertEdge(4, 3, 9);  // e->d
  ASSERT_TRUE(overlay->Apply(batch).ok());

  const GraphView view(base, overlay);
  ExpectReverseMatchesFolded(view);
  const auto in_d = InEdgesOf(view, 3);
  // Base in-edge b->d (weight 1) plus the two inserts.
  const std::vector<std::pair<VertexId, Weight>> expected = {
      {1, 1}, {4, 9}, {5, 7}};
  EXPECT_EQ(in_d, expected);
}

TEST(GraphViewReverseTest, MixedBatchPropertyOnRmat) {
  auto base = Shared(SmallRmat(/*scale=*/9, /*edge_factor=*/6, /*seed=*/21));
  auto overlay = std::make_shared<DeltaOverlay>(base);
  ASSERT_TRUE(overlay->Apply(MixedBatch(*base, 400, 200, 99)).ok());
  const GraphView view(base, overlay);
  ExpectReverseMatchesFolded(view);
}

TEST(GraphViewReverseTest, RelabeledViewUnderHubSort) {
  auto base = Shared(SmallRmat(/*scale=*/8, /*edge_factor=*/8, /*seed=*/5));
  auto overlay = std::make_shared<DeltaOverlay>(base);
  ASSERT_TRUE(overlay->Apply(MixedBatch(*base, 150, 80, 7)).ok());
  const GraphView view(base, overlay);

  auto sorted = HubSortView(view, /*hub_fraction=*/0.08);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  // The relabeled view's reverse side must agree with transposing its own
  // folded CSR — the permutation applies to both directions consistently.
  ExpectReverseMatchesFolded(sorted->view);
}

TEST(GraphViewReverseTest, ForEachInNeighborWhileStopsEarly) {
  auto base = Shared(StarGraph(16));  // every v > 0 has in-edge from 0 only
  GraphView view(base);
  // Give vertex 3 extra in-edges through an overlay so the scan has
  // something to stop within.
  auto overlay = std::make_shared<DeltaOverlay>(base);
  MutationBatch batch;
  batch.InsertEdge(1, 3);
  batch.InsertEdge(2, 3);
  ASSERT_TRUE(overlay->Apply(batch).ok());
  const GraphView mutated(base, overlay);
  mutated.EnsureReverse();

  int visited = 0;
  const bool completed = mutated.ForEachInNeighborWhile(
      3, [&](VertexId /*u*/, Weight /*w*/) { return ++visited < 2; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 2);

  visited = 0;
  EXPECT_TRUE(mutated.ForEachInNeighborWhile(
      3, [&](VertexId /*u*/, Weight /*w*/) {
        ++visited;
        return true;
      }));
  EXPECT_EQ(visited, 3);  // base in-edge 0->3 plus two inserts
}

TEST(GraphViewReverseTest, TransposeBuiltOncePerLayoutAndDroppedOnCompact) {
  CompactionPolicy manual;
  manual.mode = CompactionMode::kManual;
  Engine engine(SmallRmat(/*scale=*/8, /*edge_factor=*/4, /*seed=*/3),
                SolverOptions::Defaults(SystemKind::kCpu), manual);

  // Copies of the live view share one transpose.
  const auto first = engine.View().reverse_base_ptr();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(engine.View().reverse_base_ptr().get(), first.get());

  // A mutation epoch keeps the base snapshot, so the new view shares the
  // base's already-built transpose instead of rebuilding it.
  MutationBatch batch;
  batch.InsertEdge(1, 2);
  batch.DeleteEdge(0, engine.graph().neighbors(0).empty()
                          ? 1
                          : engine.graph().neighbors(0)[0]);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());
  EXPECT_EQ(engine.View().reverse_base_ptr().get(), first.get());

  // Back-to-back epochs with no pull in between still share it: the
  // transpose belongs to the base, not to any one epoch's view.
  MutationBatch second;
  second.InsertEdge(2, 3);
  ASSERT_TRUE(engine.ApplyMutations(second).ok());
  MutationBatch third;
  third.InsertEdge(3, 4);
  ASSERT_TRUE(engine.ApplyMutations(third).ok());
  EXPECT_EQ(engine.View().reverse_base_ptr().get(), first.get());
  EXPECT_EQ(engine.cache_stats().transposes, 1u);

  // A fold publishes a new base: the transpose is invalidated with it.
  ASSERT_TRUE(engine.Compact().ok());
  const auto after_fold = engine.View().reverse_base_ptr();
  ASSERT_NE(after_fold, nullptr);
  EXPECT_NE(after_fold.get(), first.get());
  // ... and the post-fold reverse adjacency is that of the folded graph.
  ExpectReverseMatchesFolded(engine.View());
}

TEST(GraphViewReverseTest, ViewsSharingADerivedRecordShareOneTranspose) {
  auto base = Shared(PaperFigure1Graph());
  const GraphView first(base);
  // A second view over the same base with the first one's record (what the
  // Engine does across epochs) adopts its transpose; a view without a
  // record builds a private one.
  const GraphView sharing(base, nullptr, nullptr, first.derived());
  const GraphView separate(base);
  EXPECT_EQ(sharing.reverse_base_ptr().get(), first.reverse_base_ptr().get());
  EXPECT_NE(separate.reverse_base_ptr().get(), first.reverse_base_ptr().get());
  for (VertexId v = 0; v < sharing.num_vertices(); ++v) {
    EXPECT_EQ(InEdgesOf(sharing, v), ReferenceInEdgesOf(*base, v));
  }
}

}  // namespace
}  // namespace hytgraph

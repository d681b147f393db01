// GraphView: logical (folded-CSR) geometry over base + delta without a
// fold. Degrees, offsets, merged iteration, in-degrees, and per-range edge
// deltas must all agree with the materialized CSR.

#include "graph/graph_view.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dynamic/mutation.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;

std::shared_ptr<const CsrGraph> Shared(CsrGraph graph) {
  return std::make_shared<const CsrGraph>(std::move(graph));
}

/// A mixed batch of deterministic pseudo-random inserts and deletions of
/// existing base edges.
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

TEST(GraphViewTest, TransparentViewMatchesTheBase) {
  auto base = Shared(PaperFigure1Graph());
  const GraphView view(base);
  EXPECT_FALSE(view.has_overlay());
  EXPECT_EQ(view.num_vertices(), base->num_vertices());
  EXPECT_EQ(view.num_edges(), base->num_edges());
  for (VertexId v = 0; v < view.num_vertices(); ++v) {
    EXPECT_EQ(view.out_degree(v), base->out_degree(v));
    EXPECT_EQ(view.edge_begin(v), base->edge_begin(v));
    EXPECT_FALSE(view.HasDelta(v));
  }
}

TEST(GraphViewTest, EmptyOverlayIsDroppedAtConstruction) {
  auto base = Shared(PaperFigure1Graph());
  auto overlay = std::make_shared<const DeltaOverlay>(base);
  const GraphView view(base, overlay);
  EXPECT_FALSE(view.has_overlay());
  EXPECT_EQ(view.delta_edges(), 0u);
}

TEST(GraphViewTest, LogicalOffsetsEqualTheFoldedRowOffsets) {
  auto base = Shared(SmallRmat(9, 6));
  auto overlay = std::make_shared<DeltaOverlay>(base);
  ASSERT_TRUE(overlay->Apply(MixedBatch(*base, 200, 120, 11)).ok());
  const GraphView view(base, std::shared_ptr<const DeltaOverlay>(overlay));

  auto folded = view.Materialize();
  ASSERT_TRUE(folded.ok());
  ASSERT_EQ(view.num_edges(), folded->num_edges());
  for (VertexId v = 0; v < view.num_vertices(); ++v) {
    EXPECT_EQ(view.out_degree(v), folded->out_degree(v));
    EXPECT_EQ(view.edge_begin(v), folded->edge_begin(v));
    EXPECT_EQ(view.edge_end(v), folded->edge_end(v));
  }
}

TEST(GraphViewTest, MergedIterationMatchesTheFoldedAdjacency) {
  auto base = Shared(SmallRmat(9, 6));
  auto overlay = std::make_shared<DeltaOverlay>(base);
  ASSERT_TRUE(overlay->Apply(MixedBatch(*base, 150, 100, 23)).ok());
  const GraphView view(base, std::shared_ptr<const DeltaOverlay>(overlay));

  auto folded = view.Materialize();
  ASSERT_TRUE(folded.ok());
  for (VertexId v = 0; v < view.num_vertices(); ++v) {
    std::vector<VertexId> targets;
    std::vector<Weight> weights;
    view.ForEachNeighbor(v, [&](VertexId dst, Weight w) {
      targets.push_back(dst);
      weights.push_back(w);
    });
    const auto nbrs = folded->neighbors(v);
    const auto wts = folded->weights(v);
    ASSERT_EQ(targets.size(), nbrs.size()) << "vertex " << v;
    for (size_t e = 0; e < nbrs.size(); ++e) {
      EXPECT_EQ(targets[e], nbrs[e]);
      EXPECT_EQ(weights[e], wts[e]);
    }
  }
}

TEST(GraphViewTest, EdgeDeltaInRangeAccountsForInsertsAndTombstones) {
  auto base = Shared(PaperFigure1Graph());
  auto overlay = std::make_shared<DeltaOverlay>(base);
  MutationBatch batch;
  batch.InsertEdge(1, 5, 2);
  batch.InsertEdge(1, 0, 2);
  batch.DeleteEdge(4, 5);
  ASSERT_TRUE(overlay->Apply(batch).ok());
  const GraphView view(base, std::shared_ptr<const DeltaOverlay>(overlay));

  EXPECT_EQ(view.EdgeDeltaInRange(0, view.num_vertices()), 1);  // +2 -1
  EXPECT_EQ(view.EdgeDeltaInRange(1, 2), 2);
  EXPECT_EQ(view.EdgeDeltaInRange(4, 5), -1);
  EXPECT_EQ(view.EdgeDeltaInRange(0, 1), 0);
  EXPECT_EQ(view.EdgesInRange(0, view.num_vertices()), view.num_edges());
}

TEST(GraphViewTest, WrapViewsAreTransparentBorrows) {
  const CsrGraph graph = PaperFigure1Graph();
  const GraphView view = GraphView::Wrap(graph);
  EXPECT_EQ(&view.base(), &graph);
  EXPECT_EQ(view.num_edges(), graph.num_edges());

  auto base = Shared(PaperFigure1Graph());
  DeltaOverlay overlay(base);
  MutationBatch batch;
  batch.InsertEdge(0, 4, 9);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  const GraphView overlaid = GraphView::Wrap(overlay);
  EXPECT_TRUE(overlaid.has_overlay());
  EXPECT_EQ(overlaid.num_edges(), base->num_edges() + 1);
  EXPECT_TRUE(overlaid.HasDelta(0));
}

}  // namespace
}  // namespace hytgraph

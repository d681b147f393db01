#include "graph/hub_sort.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "dynamic/mutation.h"

namespace hytgraph {

namespace {

/// Shared hub-order construction: select the top-k vertices by score
/// (ties broken by id), gather them at the front in natural order, keep
/// everyone else in natural order behind them.
struct HubOrder {
  std::vector<VertexId> old_to_new;
  std::vector<VertexId> new_to_old;
  VertexId num_hubs = 0;
};

HubOrder BuildHubOrder(const std::vector<double>& scores,
                       double hub_fraction) {
  const auto n = static_cast<VertexId>(scores.size());
  HubOrder order;
  order.num_hubs = static_cast<VertexId>(hub_fraction * n);

  // partial_sort on an index array keeps this O(n log k); ties broken by
  // vertex id for determinism.
  std::vector<VertexId> by_score(n);
  std::iota(by_score.begin(), by_score.end(), VertexId{0});
  const auto cmp = [&](VertexId a, VertexId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::partial_sort(by_score.begin(), by_score.begin() + order.num_hubs,
                    by_score.end(), cmp);

  // Hubs keep their relative *natural* order at the front (the paper
  // gathers hubs but keeps non-hubs in natural order; we sort the chosen
  // hub set by original id so both halves are natural-ordered).
  std::vector<VertexId> hubs(by_score.begin(),
                             by_score.begin() + order.num_hubs);
  std::sort(hubs.begin(), hubs.end());

  std::vector<bool> is_hub(n, false);
  for (VertexId h : hubs) is_hub[h] = true;

  order.new_to_old.resize(n);
  order.old_to_new.resize(n);
  VertexId next = 0;
  for (VertexId h : hubs) {
    order.new_to_old[next] = h;
    order.old_to_new[h] = next;
    ++next;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!is_hub[v]) {
      order.new_to_old[next] = v;
      order.old_to_new[v] = next;
      ++next;
    }
  }
  return order;
}

/// Rebuilds `graph` under the labeling `order` (targets remapped too).
/// `store` streams the adjacency when the graph's edge arrays are out of
/// core (null for a resident graph).
Result<CsrGraph> RelabelCsr(const CsrGraph& graph, const EdgeBlockStore* store,
                            const HubOrder& order) {
  const VertexId n = graph.num_vertices();
  std::vector<EdgeId> row_offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId new_v = 0; new_v < n; ++new_v) {
    row_offsets[new_v + 1] =
        row_offsets[new_v] + graph.out_degree(order.new_to_old[new_v]);
  }
  std::vector<VertexId> column_index(graph.num_edges());
  std::vector<Weight> edge_weights;
  if (graph.is_weighted()) edge_weights.resize(graph.num_edges());
  BlockRef lease;
  for (VertexId new_v = 0; new_v < n; ++new_v) {
    const VertexId old_v = order.new_to_old[new_v];
    std::span<const VertexId> nbrs;
    std::span<const Weight> wts;
    if (store != nullptr) {
      const AdjacencyRun run = store->Fetch(old_v, &lease);
      nbrs = run.targets;
      wts = run.weights;
    } else {
      nbrs = graph.neighbors(old_v);
      wts = graph.weights(old_v);
    }
    EdgeId out = row_offsets[new_v];
    for (size_t i = 0; i < nbrs.size(); ++i) {
      column_index[out] = order.old_to_new[nbrs[i]];
      if (graph.is_weighted()) edge_weights[out] = wts[i];
      ++out;
    }
  }
  return CsrGraph::Create(std::move(row_offsets), std::move(column_index),
                          std::move(edge_weights));
}

}  // namespace

std::vector<double> ComputeHubScores(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<double> scores(n, 0.0);
  if (n == 0) return scores;
  const std::vector<uint32_t>& in_degrees = graph.in_degrees();
  uint64_t do_max = 0;
  uint32_t di_max = 0;
  for (VertexId v = 0; v < n; ++v) {
    do_max = std::max<uint64_t>(do_max, graph.out_degree(v));
    di_max = std::max(di_max, in_degrees[v]);
  }
  const double denom = std::max(1.0, static_cast<double>(do_max)) *
                       std::max(1.0, static_cast<double>(di_max));
  for (VertexId v = 0; v < n; ++v) {
    scores[v] = static_cast<double>(graph.out_degree(v)) *
                static_cast<double>(in_degrees[v]) / denom;
  }
  return scores;
}

Result<HubSortResult> HubSort(const CsrGraph& graph, double hub_fraction,
                              const EdgeBlockStore* store) {
  if (hub_fraction < 0.0 || hub_fraction > 1.0) {
    return Status::InvalidArgument("hub_fraction must be in [0, 1]");
  }
  HubOrder order = BuildHubOrder(ComputeHubScores(graph), hub_fraction);
  HubSortResult result;
  result.num_hubs = order.num_hubs;
  HYT_ASSIGN_OR_RETURN(result.graph, RelabelCsr(graph, store, order));
  result.old_to_new = std::move(order.old_to_new);
  result.new_to_old = std::move(order.new_to_old);
  return result;
}

Result<HubSortViewResult> HubSortView(const GraphView& view,
                                      double hub_fraction) {
  HubSortViewResult result;
  HYT_ASSIGN_OR_RETURN(result.sorted, view.derived()->HubSorted(hub_fraction));
  const HubSortedBase& sorted = *result.sorted;

  std::shared_ptr<const DeltaOverlay> remapped;
  if (view.has_overlay()) {
    // Replay the overlay in relabeled id space: tombstones first (each
    // suppresses the same relabeled base edges it suppressed originally —
    // Apply's "delete all src->dst" semantics match tombstones exactly),
    // then the inserts, so a deletion never erases a surviving insert.
    const std::vector<VertexId>& old_to_new = sorted.old_to_new;
    const DeltaOverlay& overlay = *view.overlay_ptr();
    MutationBatch replay;
    overlay.ForEachDeltaVertex([&](VertexId v) {
      overlay.ForEachTombstone(v, [&](VertexId dst) {
        replay.DeleteEdge(old_to_new[v], old_to_new[dst]);
      });
    });
    overlay.ForEachDeltaVertex([&](VertexId v) {
      overlay.ForEachInsert(v, [&](VertexId dst, Weight w) {
        replay.InsertEdge(old_to_new[v], old_to_new[dst], w);
      });
    });
    auto target = std::make_shared<DeltaOverlay>(sorted.graph, sorted.store);
    HYT_RETURN_NOT_OK(target->Apply(replay).status());
    remapped = std::move(target);
  }
  result.view =
      GraphView(sorted.graph, std::move(remapped), sorted.store, sorted.derived);
  return result;
}

}  // namespace hytgraph

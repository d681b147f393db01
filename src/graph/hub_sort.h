// Hub sorting (Section VI-A of the paper, after Zhang et al., "Making caches
// work for graph analytics"). Vertices are scored by
//
//     H(v) = Do(v) * Di(v) / (Do_max * Di_max)          (formula (4))
//
// and the top `hub_fraction` (8% in the paper) are gathered at the front of
// the vertex id space, preserving their relative order; all other vertices
// keep their natural order after them. The returned graph is relabeled
// accordingly. This is a one-off preprocessing step: all algorithms run on
// the reordered graph, and results can be mapped back with `new_to_old`.
//
// On a mutating graph the order belongs to the base snapshot: it is scored
// on the base CSR's degrees, built once per base (BaseDerivedData), and
// recomputed only when a fold publishes a new base. Every epoch's view
// reuses that relabeled base and remaps only its O(delta) overlay.

#ifndef HYTGRAPH_GRAPH_HUB_SORT_H_
#define HYTGRAPH_GRAPH_HUB_SORT_H_

#include <memory>
#include <vector>

#include "graph/base_derived.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "storage/edge_block_store.h"
#include "util/status.h"

namespace hytgraph {

struct HubSortResult {
  CsrGraph graph;                     // relabeled graph
  std::vector<VertexId> old_to_new;   // old id -> new id
  std::vector<VertexId> new_to_old;   // new id -> old id
  VertexId num_hubs = 0;              // hubs occupy new ids [0, num_hubs)
};

/// Computes importance H(v) for every vertex (formula (4)).
std::vector<double> ComputeHubScores(const CsrGraph& graph);

/// Reorders `graph` gathering the top `hub_fraction` of vertices by H(v) at
/// the front. hub_fraction must be in [0, 1]. `store` streams the adjacency
/// when the graph's edge arrays are out of core (null for a resident graph).
Result<HubSortResult> HubSort(const CsrGraph& graph, double hub_fraction = 0.08,
                              const EdgeBlockStore* store = nullptr);

struct HubSortViewResult {
  /// Relabeled view: the hub-sorted base with the overlay remapped through
  /// the permutation on top. The view's edge set equals the relabeled
  /// mutated graph, but no fold is performed — the relabeled base is shared
  /// by every view over the same base, and the overlay remap is O(delta).
  GraphView view;
  /// The shared relabeled base and its permutation.
  std::shared_ptr<const HubSortedBase> sorted;
};

/// Hub-sorts a live view. The permutation is the one of the view's base
/// snapshot (built once per base, see BaseDerivedData::HubSorted), so every
/// epoch between two folds relabels the same way; it lags the view's
/// mutated degrees by at most the pending delta.
Result<HubSortViewResult> HubSortView(const GraphView& view,
                                      double hub_fraction = 0.08);

}  // namespace hytgraph

#endif  // HYTGRAPH_GRAPH_HUB_SORT_H_

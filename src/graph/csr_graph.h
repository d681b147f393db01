// Compressed Sparse Row graph: the storage format every engine in this
// library operates on (Fig. 1 of the paper). The `row_offsets` (neighbor
// index) array is what the paper keeps GPU-resident; `column_index` and
// `edge_weights` are the host-resident edge-associated arrays whose transfer
// the whole system is about.
//
// The three arrays are PageVectors (util/page_vector.h): any of them of
// 1 MiB or more is its own mapping from the OS, so ReleaseEdgeData() (the
// out-of-core spill) and the destruction of a folded-away snapshot return
// those pages at once, on whatever thread drops the last reference.

#ifndef HYTGRAPH_GRAPH_CSR_GRAPH_H_
#define HYTGRAPH_GRAPH_CSR_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.h"
#include "util/page_vector.h"
#include "util/status.h"

namespace hytgraph {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds a CSR directly from its arrays. `row_offsets` must have
  /// num_vertices+1 entries, be non-decreasing, start at 0 and end at
  /// column_index.size(); `edge_weights` must be empty or match
  /// column_index.size().
  static Result<CsrGraph> Create(PageVector<EdgeId> row_offsets,
                                 PageVector<VertexId> column_index,
                                 PageVector<Weight> edge_weights);

  VertexId num_vertices() const {
    return row_offsets_.empty()
               ? 0
               : static_cast<VertexId>(row_offsets_.size() - 1);
  }
  EdgeId num_edges() const { return num_edges_; }
  bool is_weighted() const { return weighted_; }

  /// False after ReleaseEdgeData(): the topology (row offsets, counts,
  /// degree caches) stays valid but neighbors()/weights()/column_index()/
  /// edge_weights() must not be read — an EdgeBlockStore serves the edge
  /// arrays instead (see storage/edge_block_store.h).
  bool edges_resident() const { return edges_resident_; }

  /// Drops the host-resident edge arrays after they have been spilled to an
  /// edge-block store. Degree-derived caches (in_degrees, max degrees) are
  /// materialized first so every offsets-only query keeps working.
  void ReleaseEdgeData();

  EdgeId out_degree(VertexId v) const {
    return row_offsets_[v + 1] - row_offsets_[v];
  }

  /// Start offset of v's neighbour run in column_index.
  EdgeId edge_begin(VertexId v) const { return row_offsets_[v]; }
  EdgeId edge_end(VertexId v) const { return row_offsets_[v + 1]; }

  /// Neighbours of v as a view over the host-resident edge array.
  std::span<const VertexId> neighbors(VertexId v) const {
    return std::span<const VertexId>(column_index_.data() + row_offsets_[v],
                                     out_degree(v));
  }

  /// Weights of v's out-edges; empty span when unweighted.
  std::span<const Weight> weights(VertexId v) const {
    if (!is_weighted()) return {};
    return std::span<const Weight>(edge_weights_.data() + row_offsets_[v],
                                   out_degree(v));
  }

  const PageVector<EdgeId>& row_offsets() const { return row_offsets_; }
  const PageVector<VertexId>& column_index() const { return column_index_; }
  const PageVector<Weight>& edge_weights() const { return edge_weights_; }

  /// In-degrees (computed lazily once, cached). Needed by hub sorting
  /// (formula (4) uses Di(v)).
  const std::vector<uint32_t>& in_degrees() const;

  /// Bytes of the host-resident edge-associated data: column_index plus
  /// weights if present. This is the quantity compared against GPU memory
  /// capacity for oversubscription.
  uint64_t EdgeDataBytes() const {
    const uint64_t per_edge =
        kBytesPerNeighbor + (is_weighted() ? sizeof(Weight) : 0);
    return num_edges() * per_edge;
  }

  /// Bytes of the GPU-resident vertex-associated data for a `value_bytes`-
  /// sized vertex value (row offsets + values + activity bitmap).
  uint64_t VertexDataBytes(uint64_t value_bytes) const {
    const uint64_t n = num_vertices();
    return (n + 1) * sizeof(EdgeId) + n * value_bytes + n / 8 + 1;
  }

  /// Maximum out-degree over all vertices (0 for the empty graph).
  EdgeId max_out_degree() const;
  /// Maximum in-degree over all vertices.
  uint32_t max_in_degree() const;

  /// Structural sanity checks (offsets monotone, targets in range). Used by
  /// tests and after deserialization.
  Status Validate() const;

 private:
  CsrGraph(PageVector<EdgeId> row_offsets, PageVector<VertexId> column_index,
           PageVector<Weight> edge_weights)
      : row_offsets_(std::move(row_offsets)),
        column_index_(std::move(column_index)),
        edge_weights_(std::move(edge_weights)),
        num_edges_(column_index_.size()),
        weighted_(!edge_weights_.empty()) {}

  PageVector<EdgeId> row_offsets_;
  PageVector<VertexId> column_index_;
  PageVector<Weight> edge_weights_;

  // Survive ReleaseEdgeData(): the answers no longer derivable from the
  // (cleared) edge arrays.
  EdgeId num_edges_ = 0;
  bool weighted_ = false;
  bool edges_resident_ = true;

  // Lazy caches; logically const. The in-degree cache builds once under
  // a once_flag: concurrent preparations (QueryServer lanes hub-scoring
  // the same snapshot) may all ask first. Heap-held behind a shared_ptr
  // so the graph stays movable (once_flag is not) and copies share the
  // built cache — copies have identical adjacency, so sharing is sound.
  struct InDegreeCache {
    std::once_flag once;
    std::vector<uint32_t> degrees;
  };
  std::shared_ptr<InDegreeCache> in_degrees_ =
      std::make_shared<InDegreeCache>();
};

}  // namespace hytgraph

#endif  // HYTGRAPH_GRAPH_CSR_GRAPH_H_

#include "graph/csr_graph.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace hytgraph {

Result<CsrGraph> CsrGraph::Create(PageVector<EdgeId> row_offsets,
                                  PageVector<VertexId> column_index,
                                  PageVector<Weight> edge_weights) {
  if (row_offsets.empty()) {
    return Status::InvalidArgument("row_offsets must have >= 1 entry");
  }
  if (row_offsets.front() != 0) {
    return Status::InvalidArgument("row_offsets must start at 0");
  }
  if (row_offsets.back() != column_index.size()) {
    return Status::InvalidArgument(
        "row_offsets must end at column_index.size()");
  }
  if (!edge_weights.empty() && edge_weights.size() != column_index.size()) {
    return Status::InvalidArgument(
        "edge_weights must be empty or match column_index size");
  }
  CsrGraph graph(std::move(row_offsets), std::move(column_index),
                 std::move(edge_weights));
  HYT_RETURN_NOT_OK(graph.Validate());
  return graph;
}

const std::vector<uint32_t>& CsrGraph::in_degrees() const {
  std::call_once(in_degrees_->once, [&] {
    if (num_vertices() == 0) return;
    HYT_CHECK(edges_resident_)
        << "in_degrees requested after ReleaseEdgeData without a "
           "materialized cache";
    in_degrees_->degrees.assign(num_vertices(), 0);
    for (VertexId dst : column_index_) {
      ++in_degrees_->degrees[dst];
    }
  });
  return in_degrees_->degrees;
}

void CsrGraph::ReleaseEdgeData() {
  if (!edges_resident_) return;
  // Materialize every degree-derived cache while the arrays are still here.
  in_degrees();
  edges_resident_ = false;
  PageVector<VertexId>().swap(column_index_);
  PageVector<Weight>().swap(edge_weights_);
}

EdgeId CsrGraph::max_out_degree() const {
  EdgeId max_deg = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    max_deg = std::max(max_deg, out_degree(v));
  }
  return max_deg;
}

uint32_t CsrGraph::max_in_degree() const {
  const auto& degs = in_degrees();
  return degs.empty() ? 0 : *std::max_element(degs.begin(), degs.end());
}

Status CsrGraph::Validate() const {
  for (size_t i = 1; i < row_offsets_.size(); ++i) {
    if (row_offsets_[i] < row_offsets_[i - 1]) {
      return Status::InvalidArgument("row_offsets not non-decreasing at " +
                                     std::to_string(i));
    }
  }
  if (!edges_resident_) return Status::OK();  // targets live in the store
  const VertexId n = num_vertices();
  for (VertexId dst : column_index_) {
    if (dst >= n) {
      return Status::InvalidArgument("edge target " + std::to_string(dst) +
                                     " out of range (n=" + std::to_string(n) +
                                     ")");
    }
  }
  return Status::OK();
}

}  // namespace hytgraph

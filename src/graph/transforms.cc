#include "graph/transforms.h"

#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace hytgraph {

Result<CsrGraph> ReverseGraph(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  PageVector<EdgeId> row_offsets(static_cast<size_t>(n) + 1, 0);
  // Counting pass over in-degrees.
  for (VertexId dst : graph.column_index()) {
    ++row_offsets[dst + 1];
  }
  for (size_t i = 1; i < row_offsets.size(); ++i) {
    row_offsets[i] += row_offsets[i - 1];
  }
  PageVector<VertexId> column_index(graph.num_edges());
  PageVector<Weight> weights;
  if (graph.is_weighted()) weights.resize(graph.num_edges());
  std::vector<EdgeId> cursor(row_offsets.begin(), row_offsets.end() - 1);
  const bool weighted = graph.is_weighted();
  for (VertexId u = 0; u < n; ++u) {
    const auto nbrs = graph.neighbors(u);
    const auto wts = graph.weights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      const EdgeId slot = cursor[nbrs[e]]++;
      column_index[slot] = u;
      if (weighted) weights[slot] = wts[e];
    }
  }
  return CsrGraph::Create(std::move(row_offsets), std::move(column_index),
                          std::move(weights));
}

Result<CsrGraph> SymmetrizeGraph(const CsrGraph& graph, bool deduplicate) {
  PageVector<Edge> edges;
  edges.reserve(graph.num_edges() * 2);
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const auto nbrs = graph.neighbors(u);
    const auto wts = graph.weights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      const Weight w = wts.empty() ? Weight{1} : wts[e];
      edges.push_back(Edge{u, nbrs[e], w});
      if (nbrs[e] != u) edges.push_back(Edge{nbrs[e], u, w});
    }
  }
  BuilderOptions options;
  options.weighted = graph.is_weighted();
  options.deduplicate = deduplicate;
  return BuildCsr(graph.num_vertices(), std::move(edges), options);
}

Result<CsrGraph> InducedSubgraph(const CsrGraph& graph,
                                 std::span<const VertexId> vertices,
                                 std::vector<VertexId>* new_to_old) {
  std::vector<VertexId> old_to_new(graph.num_vertices(), kInvalidVertex);
  for (size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    if (v >= graph.num_vertices()) {
      return Status::InvalidArgument("vertex " + std::to_string(v) +
                                     " out of range");
    }
    if (old_to_new[v] != kInvalidVertex) {
      return Status::InvalidArgument("duplicate vertex " + std::to_string(v));
    }
    old_to_new[v] = static_cast<VertexId>(i);
  }
  PageVector<Edge> edges;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const VertexId u = vertices[i];
    const auto nbrs = graph.neighbors(u);
    const auto wts = graph.weights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      const VertexId mapped = old_to_new[nbrs[e]];
      if (mapped == kInvalidVertex) continue;  // endpoint outside the set
      const Weight w = wts.empty() ? Weight{1} : wts[e];
      edges.push_back(Edge{static_cast<VertexId>(i), mapped, w});
    }
  }
  if (new_to_old != nullptr) {
    new_to_old->assign(vertices.begin(), vertices.end());
  }
  BuilderOptions options;
  options.weighted = graph.is_weighted();
  return BuildCsr(static_cast<VertexId>(vertices.size()), std::move(edges),
                  options);
}

bool IsSymmetric(const CsrGraph& graph) {
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (VertexId v : graph.neighbors(u)) {
      const auto back = graph.neighbors(v);
      if (std::find(back.begin(), back.end(), u) == back.end()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace hytgraph

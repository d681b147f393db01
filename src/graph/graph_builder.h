// Builds CsrGraph from COO edge lists: a parallel counting sort by source,
// optional self-loop removal, optional deduplication, optional
// symmetrization (for undirected datasets like the friendster graphs).

#ifndef HYTGRAPH_GRAPH_GRAPH_BUILDER_H_
#define HYTGRAPH_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "graph/csr_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace hytgraph {

struct BuilderOptions {
  bool remove_self_loops = false;
  bool deduplicate = false;
  /// Adds the reverse of every edge (same weight) before building.
  bool symmetrize = false;
  /// Keep per-edge weights; if false the result is unweighted.
  bool weighted = true;
};

/// Builds a CSR with exactly `num_vertices` vertices (isolated vertices are
/// allowed) from the given edges. Each row is sorted by (dst, weight); with
/// `deduplicate` only the lowest-weight edge of each (src, dst) pair stays.
/// Fails, naming the first such edge in input order, if any endpoint is out
/// of range. Runs on ThreadPool::Default(); the result does not depend on
/// the thread count.
Result<CsrGraph> BuildCsr(VertexId num_vertices, std::vector<Edge> edges,
                          const BuilderOptions& options = {});

/// Convenience: small graphs in tests, e.g.
///   BuildFromTriples(6, {{0,1,2}, {0,2,6}, ...})
Result<CsrGraph> BuildFromTriples(
    VertexId num_vertices,
    const std::vector<std::tuple<VertexId, VertexId, Weight>>& triples,
    const BuilderOptions& options = {});

}  // namespace hytgraph

#endif  // HYTGRAPH_GRAPH_GRAPH_BUILDER_H_

// Graph persistence: a simple versioned binary CSR format plus a text
// edge-list loader ("src dst [weight]" per line, '#' comments), so users can
// bring their own graphs.

#ifndef HYTGRAPH_GRAPH_GRAPH_IO_H_
#define HYTGRAPH_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/csr_graph.h"
#include "util/status.h"

namespace hytgraph {

/// Writes `graph` to `path` in the HYTG binary format (magic + version +
/// sizes + raw arrays, little endian).
Status SaveCsrBinary(const CsrGraph& graph, const std::string& path);

/// Reads a graph previously written by SaveCsrBinary. Validates structure;
/// a truncated or corrupt file is an IOError, never an abort.
Result<CsrGraph> LoadCsrBinary(const std::string& path);

/// Parses a whitespace-separated edge list. Lines starting with '#' or '%'
/// are comments. Vertices are numbered by their ids in the file; the vertex
/// count is 1 + max id seen (or `num_vertices_hint` if larger). A missing
/// weight column means weight 1; a weight that is not a decimal integer in
/// [0, 2^32) is an IOError naming path:line.
Result<CsrGraph> LoadEdgeListText(const std::string& path,
                                  VertexId num_vertices_hint = 0,
                                  bool weighted = true);

}  // namespace hytgraph

#endif  // HYTGRAPH_GRAPH_GRAPH_IO_H_

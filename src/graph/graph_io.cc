#include "graph/graph_io.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_builder.h"

namespace hytgraph {

namespace {

constexpr uint64_t kMagic = 0x48595447'43535231ULL;  // "HYTGCSR1"
constexpr uint32_t kVersion = 1;

template <typename T>
bool WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return out.good();
}

template <typename T>
bool WriteVector(std::ofstream& out, const std::vector<T>& data) {
  const uint64_t count = data.size();
  if (!WritePod(out, count)) return false;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
  return out.good();
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

/// Reads a count-prefixed array. A count larger than the bytes left in the
/// file fails before anything is allocated.
template <typename T>
bool ReadVector(std::ifstream& in, uint64_t file_size, std::vector<T>* data) {
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return false;
  const auto pos = static_cast<uint64_t>(in.tellg());
  if (pos > file_size || count > (file_size - pos) / sizeof(T)) return false;
  data->resize(count);
  in.read(reinterpret_cast<char*>(data->data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return count == 0 || in.good();
}

}  // namespace

Status SaveCsrBinary(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  if (!WritePod(out, kMagic) || !WritePod(out, kVersion) ||
      !WriteVector(out, graph.row_offsets()) ||
      !WriteVector(out, graph.column_index()) ||
      !WriteVector(out, graph.edge_weights())) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<CsrGraph> LoadCsrBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  const auto file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!ReadPod(in, &magic) || magic != kMagic) {
    return Status::IOError("bad magic (not a HYTG CSR file): " + path);
  }
  if (!ReadPod(in, &version) || version != kVersion) {
    return Status::IOError("unsupported HYTG CSR version in " + path);
  }
  std::vector<EdgeId> row_offsets;
  std::vector<VertexId> column_index;
  std::vector<Weight> edge_weights;
  if (!ReadVector(in, file_size, &row_offsets) ||
      !ReadVector(in, file_size, &column_index) ||
      !ReadVector(in, file_size, &edge_weights)) {
    return Status::IOError("truncated HYTG CSR file: " + path);
  }
  return CsrGraph::Create(std::move(row_offsets), std::move(column_index),
                          std::move(edge_weights));
}

Result<CsrGraph> LoadEdgeListText(const std::string& path,
                                  VertexId num_vertices_hint, bool weighted) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::vector<Edge> edges;
  VertexId max_vertex = 0;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    uint64_t src = 0;
    uint64_t dst = 0;
    uint64_t weight = 1;
    if (!(ss >> src >> dst)) {
      return Status::IOError("parse error at " + path + ":" +
                             std::to_string(line_no));
    }
    std::string weight_token;
    if (ss >> weight_token) {  // optional third column
      const char* first = weight_token.data();
      const char* last = first + weight_token.size();
      const auto [end, ec] = std::from_chars(first, last, weight);
      if (ec != std::errc() || end != last ||
          weight > std::numeric_limits<Weight>::max()) {
        return Status::IOError("bad weight '" + weight_token + "' at " +
                               path + ":" + std::to_string(line_no));
      }
    }
    if (src > kInvalidVertex - 1 || dst > kInvalidVertex - 1) {
      return Status::IOError("vertex id too large at " + path + ":" +
                             std::to_string(line_no));
    }
    edges.push_back(Edge{static_cast<VertexId>(src),
                         static_cast<VertexId>(dst),
                         static_cast<Weight>(weight)});
    max_vertex = std::max(max_vertex, static_cast<VertexId>(
                                          std::max(src, dst)));
  }
  const VertexId n =
      std::max(num_vertices_hint,
               edges.empty() ? num_vertices_hint : max_vertex + 1);
  BuilderOptions options;
  options.weighted = weighted;
  return BuildCsr(n, std::move(edges), options);
}

}  // namespace hytgraph

// Shared fixture graphs and helpers for the test suite.

#ifndef HYTGRAPH_TESTS_TEST_GRAPHS_H_
#define HYTGRAPH_TESTS_TEST_GRAPHS_H_

#include <thread>
#include <tuple>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph_builder.h"
#include "graph/rmat_generator.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hytgraph::testing {

/// Runs `body` on a thread marked as a pool worker and waits for it. Every
/// kernel ParallelFor then runs serially, so two runs of one query repeat
/// each other exactly; pool-sharded runs differ in per-iteration counts.
template <typename Body>
void RunSerially(const Body& body) {
  std::thread worker([&] {
    ThreadPool::MarkWorkerThread();
    body();
  });
  worker.join();
}

/// The worked SSSP example of Fig. 1 in the paper: 6 vertices a..f = 0..5,
/// weighted, directed. Shortest distances from a: {0, 2, 4, 3, 4, 6}.
inline CsrGraph PaperFigure1Graph() {
  auto result = BuildFromTriples(
      6, {
             {0, 1, 2},  // a->b 2
             {0, 2, 6},  // a->c 6
             {1, 2, 3},  // b->c 3
             {1, 3, 1},  // b->d 1
             {2, 4, 1},  // c->e 1
             {3, 2, 1},  // d->c 1
             {3, 4, 1},  // d->e 1
             {4, 5, 2},  // e->f 2
             {2, 5, 4},  // c->f 4
             {5, 0, 3},  // f->a 3
         });
  HYT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// 0 -> 1 -> 2 -> ... -> n-1, unit weights.
inline CsrGraph ChainGraph(VertexId n, Weight w = 1) {
  std::vector<std::tuple<VertexId, VertexId, Weight>> triples;
  for (VertexId v = 0; v + 1 < n; ++v) triples.push_back({v, v + 1, w});
  auto result = BuildFromTriples(n, triples);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

/// Hub 0 points at every other vertex.
inline CsrGraph StarGraph(VertexId n) {
  std::vector<std::tuple<VertexId, VertexId, Weight>> triples;
  for (VertexId v = 1; v < n; ++v) triples.push_back({0, v, 1});
  auto result = BuildFromTriples(n, triples);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

/// Two disjoint directed cycles: {0..n/2-1} and {n/2..n-1}.
inline CsrGraph TwoCyclesGraph(VertexId n) {
  HYT_CHECK_GE(n, 4u);
  const VertexId half = n / 2;
  std::vector<std::tuple<VertexId, VertexId, Weight>> triples;
  for (VertexId v = 0; v < half; ++v) triples.push_back({v, (v + 1) % half, 1});
  for (VertexId v = half; v < n; ++v) {
    triples.push_back({v, v + 1 == n ? half : v + 1, 1});
  }
  auto result = BuildFromTriples(n, triples);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

/// Small deterministic power-law graph for randomized-ish tests.
inline CsrGraph SmallRmat(uint32_t scale = 12, uint32_t edge_factor = 8,
                          uint64_t seed = 7, bool symmetrize = false) {
  RmatOptions opts;
  opts.scale = scale;
  opts.edge_factor = edge_factor;
  opts.seed = seed;
  opts.symmetrize = symmetrize;
  auto result = GenerateRmat(opts);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace hytgraph::testing

#endif  // HYTGRAPH_TESTS_TEST_GRAPHS_H_

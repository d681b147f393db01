// Dropped graph arrays leave the process: the out-of-core spill lowers the
// resident set by the edge bytes it released, and background folds do not
// pile up superseded base snapshots. Reads only this process's own
// /proc/self/status.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>

#include "core/engine.h"
#include "graph/rmat_generator.h"
#include "util/page_vector.h"

namespace hytgraph {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

/// Sanitizer runtimes keep freed memory (ASan's quarantine) or add shadow
/// pages per touched page (TSan), so VmRSS does not measure the arrays.
bool RssMeasuresArrays() {
  return page_vector_internal::kMapPages && !kThreadSanitizer;
}

/// This process's resident set, in bytes.
uint64_t VmRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(1 << 16, '\n');
  }
  ADD_FAILURE() << "no VmRSS line in /proc/self/status";
  return 0;
}

/// The default R-MAT: 2^18 vertices and 2^22 weighted edges, 32 MiB of
/// edge arrays. A graph of half that size is built and dropped first, as a
/// process that reloads its dataset does: freeing its 25 MB edge list
/// raises glibc's mmap threshold to 25 MB, so arrays that go through malloc
/// after it land in heaps that keep their pages when they are freed.
CsrGraph LargeGraph() {
  RmatOptions half;
  half.scale = 17;
  EXPECT_TRUE(GenerateRmat(half).ok());
  auto graph = GenerateRmat(RmatOptions{});
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

TEST(ResidentMemoryTest, SpillReturnsTheEdgeArraysToTheOs) {
  if (!RssMeasuresArrays()) GTEST_SKIP() << "sanitizer build";
  CsrGraph graph = LargeGraph();
  const uint64_t edge_bytes = graph.EdgeDataBytes();
  ASSERT_GE(edge_bytes, uint64_t{32} << 20);

  const uint64_t before = VmRssBytes();
  StorageOptions storage;
  storage.memory_budget_bytes = edge_bytes / 4;
  Engine engine(std::move(graph), SolverOptions::Defaults(SystemKind::kHyTGraph),
                CompactionPolicy{}, storage);
  ASSERT_TRUE(engine.out_of_core());
  const uint64_t after = VmRssBytes();
  EXPECT_GE(before, after + edge_bytes / 2)
      << "VmRSS before the spill " << before << " B, after " << after
      << " B, edge arrays " << edge_bytes << " B";
}

TEST(ResidentMemoryTest, BackgroundFoldsKeepFewerThanThreeSnapshots) {
  if (!RssMeasuresArrays()) GTEST_SKIP() << "sanitizer build";
  const uint64_t baseline = VmRssBytes();
  CsrGraph graph = LargeGraph();
  const VertexId n = graph.num_vertices();
  const uint64_t snapshot_bytes =
      graph.EdgeDataBytes() + (uint64_t{n} + 1) * sizeof(EdgeId);

  CompactionPolicy policy;
  policy.mode = CompactionMode::kBackground;
  policy.min_delta_edges = 256;
  policy.delta_fraction = 0.0;
  Engine engine(std::move(graph), SolverOptions::Defaults(SystemKind::kHyTGraph),
                policy);

  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  constexpr int kFolds = 10;
  for (int fold = 1; fold <= kFolds; ++fold) {
    MutationBatch batch;
    for (int i = 0; i < 256; ++i) {
      batch.InsertEdge(static_cast<VertexId>(next() % n),
                       static_cast<VertexId>(next() % n), 1);
    }
    auto applied = engine.ApplyMutations(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    engine.WaitForCompaction();
    ASSERT_EQ(engine.compactor_stats().folds, static_cast<uint64_t>(fold));
    const uint64_t rss = VmRssBytes();
    EXPECT_LT(rss, baseline + 3 * snapshot_bytes)
        << "after fold " << fold << ": VmRSS " << rss << " B over a baseline"
        << " of " << baseline << " B, snapshot " << snapshot_bytes << " B";
  }
}

}  // namespace
}  // namespace hytgraph

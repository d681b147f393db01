// Preparation reuse across mutation epochs: the hub-sorted relabel and the
// reverse transpose belong to the base snapshot (BaseDerivedData), so every
// epoch between two folds shares one of each, concurrent misses on a new
// base build once, a fold releases the old base's derived data once the
// last in-flight holder drops it, and a build that lost a block load is
// never memoized.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/reference.h"
#include "core/engine.h"
#include "dynamic/mutation.h"
#include "graph/base_derived.h"
#include "test_graphs.h"
#include "util/fault_injection.h"

namespace hytgraph {
namespace {

using testing::SmallRmat;

constexpr double kHubFraction = 0.08;

/// A deterministic batch of `inserts` random edges and `deletes` existing
/// edges of `base`.
MutationBatch MixedBatch(const CsrGraph& base, uint64_t inserts,
                         uint64_t deletes, uint64_t seed) {
  MutationBatch batch;
  const VertexId n = base.num_vertices();
  uint64_t state = seed;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (uint64_t i = 0; i < deletes; ++i) {
    const VertexId src = static_cast<VertexId>(next() % n);
    const auto nbrs = base.neighbors(src);
    if (nbrs.empty()) continue;
    batch.DeleteEdge(src, nbrs[next() % nbrs.size()]);
  }
  for (uint64_t i = 0; i < inserts; ++i) {
    batch.InsertEdge(static_cast<VertexId>(next() % n),
                     static_cast<VertexId>(next() % n),
                     static_cast<Weight>(1 + next() % 32));
  }
  return batch;
}

CompactionPolicy ManualFolds() {
  CompactionPolicy policy;
  policy.mode = CompactionMode::kManual;
  return policy;
}

/// The engine's current hub-sorted base (built on first use).
std::shared_ptr<const HubSortedBase> SortedBase(const Engine& engine) {
  auto sorted = engine.View().derived()->HubSorted(kHubFraction);
  EXPECT_TRUE(sorted.ok()) << sorted.status().ToString();
  return sorted.ok() ? sorted.value() : nullptr;
}

class EnginePreparedReuseTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(EnginePreparedReuseTest, MutationEpochsShareOneRelabelAndTranspose) {
  const CsrGraph graph = SmallRmat(/*scale=*/10, /*edge_factor=*/8, 11);
  Engine engine(CsrGraph(graph), SolverOptions::Defaults(SystemKind::kHyTGraph),
                ManualFolds());
  // Pull iterations read the relabeled base's transpose.
  SolverOptions pull = engine.default_options();
  pull.direction = TraversalDirection::kPull;
  const Query bfs{.algorithm = AlgorithmId::kBfs, .source = 0};

  ASSERT_TRUE(engine.Run(bfs, pull).ok());
  const std::shared_ptr<const HubSortedBase> sorted = SortedBase(engine);
  ASSERT_NE(sorted, nullptr);
  auto transpose = sorted->derived->Transpose();
  ASSERT_TRUE(transpose.ok());

  constexpr int kEpochs = 6;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    ASSERT_TRUE(
        engine.ApplyMutations(MixedBatch(graph, 40, 20, 100 + epoch)).ok());
    auto result = engine.Run(bfs, pull);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->epoch, static_cast<uint64_t>(epoch));
    EXPECT_FALSE(result->prepared_cache_hit);  // each epoch re-prepares ...
    EXPECT_EQ(SortedBase(engine).get(), sorted.get());  // ... on one base
    auto again = SortedBase(engine)->derived->Transpose();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->get(), transpose->get());
  }
  const EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.relabels, 1u);
  EXPECT_EQ(stats.transposes, 1u);
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kEpochs + 1));
}

TEST_F(EnginePreparedReuseTest, ValuesMatchAnEngineOnTheFoldedGraph) {
  const CsrGraph graph = SmallRmat(/*scale=*/10, /*edge_factor=*/8, 5);
  Engine engine(CsrGraph(graph), SolverOptions::Defaults(SystemKind::kHyTGraph),
                ManualFolds());
  for (int epoch = 0; epoch < 5; ++epoch) {
    ASSERT_TRUE(
        engine.ApplyMutations(MixedBatch(graph, 120, 60, 7 + epoch)).ok());
  }
  // The mutated engine relabels with the base's hub order; the folded one
  // with the order of the mutated degrees. Values must not care.
  auto folded = engine.View().Materialize();
  ASSERT_TRUE(folded.ok());
  Engine reference(std::move(folded).value());
  const VertexId source = reference.DefaultSource();

  for (AlgorithmId id : {AlgorithmId::kBfs, AlgorithmId::kSssp,
                         AlgorithmId::kSswp, AlgorithmId::kCc}) {
    const Query query{.algorithm = id, .source = source};
    auto got = engine.Run(query);
    auto want = reference.Run(query);
    ASSERT_TRUE(got.ok() && want.ok()) << AlgorithmName(id);
    EXPECT_EQ(got->u32(), want->u32()) << AlgorithmName(id);
  }
  for (AlgorithmId id : {AlgorithmId::kPageRank, AlgorithmId::kPhp}) {
    const Query query{.algorithm = id, .source = source};
    auto got = engine.Run(query);
    auto want = reference.Run(query);
    ASSERT_TRUE(got.ok() && want.ok()) << AlgorithmName(id);
    ASSERT_EQ(got->f64().size(), want->f64().size());
    for (size_t v = 0; v < got->f64().size(); ++v) {
      EXPECT_NEAR(got->f64()[v], want->f64()[v], 1e-4)
          << AlgorithmName(id) << " vertex " << v;
    }
  }
  EXPECT_EQ(engine.cache_stats().relabels, 1u);
}

TEST_F(EnginePreparedReuseTest, RacingMissesOnAFreshBaseRelabelOnce) {
  const CsrGraph graph = SmallRmat(/*scale=*/11, /*edge_factor=*/8, 3);
  Engine engine(CsrGraph(graph), SolverOptions::Defaults(SystemKind::kHyTGraph),
                ManualFolds());
  auto race = [&] {
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&engine, t] {
        const Query query{.algorithm = AlgorithmId::kBfs,
                          .source = static_cast<VertexId>(t)};
        EXPECT_TRUE(engine.Run(query).ok());
      });
    }
    for (std::thread& thread : threads) thread.join();
  };
  race();
  EXPECT_EQ(engine.cache_stats().relabels, 1u);

  // A fold publishes a fresh base: the next racing wave relabels it once.
  ASSERT_TRUE(engine.ApplyMutations(MixedBatch(graph, 50, 25, 9)).ok());
  ASSERT_TRUE(engine.Compact().ok());
  race();
  EXPECT_EQ(engine.cache_stats().relabels, 2u);
}

TEST_F(EnginePreparedReuseTest, FoldReleasesTheOldBaseOnceHoldersDrop) {
  const CsrGraph graph = SmallRmat(/*scale=*/10, /*edge_factor=*/8, 13);
  Engine engine(CsrGraph(graph), SolverOptions::Defaults(SystemKind::kHyTGraph),
                ManualFolds());
  const Query bfs{.algorithm = AlgorithmId::kBfs, .source = 1};
  ASSERT_TRUE(engine.ApplyMutations(MixedBatch(graph, 30, 15, 21)).ok());
  ASSERT_TRUE(engine.Run(bfs).ok());

  // An in-flight query pins the view it planned on.
  GraphView in_flight = engine.View();
  const std::weak_ptr<BaseDerivedData> old_derived = in_flight.derived();
  const std::weak_ptr<const HubSortedBase> old_sorted = SortedBase(engine);
  ASSERT_FALSE(old_sorted.expired());

  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_NE(engine.View().derived().get(), in_flight.derived().get());
  ASSERT_TRUE(engine.Run(bfs).ok());  // relabels the new base
  EXPECT_EQ(engine.cache_stats().relabels, 2u);
  EXPECT_FALSE(old_derived.expired());

  in_flight = GraphView();
  EXPECT_TRUE(old_derived.expired());
  EXPECT_TRUE(old_sorted.expired());
}

TEST_F(EnginePreparedReuseTest, RelabelOverAFailedBlockLoadIsNotMemoized) {
  const CsrGraph graph = SmallRmat(/*scale=*/9, /*edge_factor=*/8, 23);
  StorageOptions storage;
  storage.memory_budget_bytes =
      std::max<uint64_t>(1, graph.EdgeDataBytes() / 5);
  storage.block_bytes = 4096;
  storage.retry.initial_backoff = std::chrono::microseconds{1};
  Engine engine(CsrGraph(graph), SolverOptions::Defaults(SystemKind::kHyTGraph),
                ManualFolds(), storage);
  ASSERT_TRUE(engine.out_of_core());
  ASSERT_TRUE(engine.ApplyMutations(MixedBatch(graph, 60, 30, 31)).ok());
  const VertexId source = engine.DefaultSource();  // reaches most vertices
  const Query bfs{.algorithm = AlgorithmId::kBfs, .source = source};

  // Every uncached block fails verification during the first relabel.
  FaultRegistry::Global().Arm(faults::kStorageChecksum,
                              FaultSchedule::FailAlways());
  auto failed = engine.Run(bfs);
  ASSERT_FALSE(failed.ok()) << "query served off unverifiable blocks";
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  EXPECT_EQ(engine.cache_stats().relabels, 0u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);

  // Disarmed, the next query on the same base rebuilds the relabel and
  // serves exact values.
  FaultRegistry::Global().DisarmAll();
  auto healed = engine.Run(bfs);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(engine.cache_stats().relabels, 1u);
  auto folded = engine.View().Materialize();
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(healed->u32(), ReferenceBfs(*folded, source));
}

}  // namespace
}  // namespace hytgraph

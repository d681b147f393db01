// Parallel partition execution: per-partition solver lanes must be a pure
// performance feature. For every algorithm and execution context — static
// graph, mutated delta overlay, pull-direction traversal, tight-budget
// out-of-core streaming — the values at every lane count must match the
// serial textbook algorithms of algorithms/reference.cc, and the values at
// 2/4/8 worker lanes must equal the num_workers=1 (one-lane) run: bitwise
// for the value-selection family (their fixed points are unique and u32),
// within accumulation tolerance for the f64 delta-accumulation family
// (PR/PHP), whose update order legitimately varies across lane counts.
//
// The merged-frontier determinism check runs on BFS with the in-iteration
// extra rounds off, because those rounds are the one intentionally
// asynchronous piece: when two lanes race the first-touch CAS on a shared
// neighbor, the winner decides whether the owner lane's extra rounds
// consume the vertex this iteration or the barrier defers it to the next —
// same values either way (the identity checks prove it), different
// per-iteration counts. With extra rounds disabled every activation waits
// for the next iteration, and the owner writes plus the outbox merge must
// reproduce the exact per-iteration active-vertex sequence run after run:
// BFS candidates in iteration i are all level i+1, never an improvement on
// a settled vertex, so the activation SET of each iteration is unique —
// any run-to-run wobble would be a bug in the lane sink or the merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/reference.h"
#include "core/engine.h"
#include "dynamic/mutation.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::SmallRmat;

enum class Context { kStatic, kMutated, kPull, kOutOfCore };

const char* ContextName(Context context) {
  switch (context) {
    case Context::kStatic:
      return "Static";
    case Context::kMutated:
      return "MutatedOverlay";
    case Context::kPull:
      return "PullDirection";
    case Context::kOutOfCore:
      return "OutOfCore";
  }
  return "?";
}

CsrGraph TestGraph() { return SmallRmat(12, 8, /*seed=*/7); }

/// Deterministic mutation workload for the overlay context: four batches
/// of pseudo-random inserts plus a few deletes of base edges, applied
/// identically at every worker count.
void ApplyDeterministicMutations(Engine* engine) {
  const CsrGraph base = TestGraph();
  const VertexId n = base.num_vertices();
  uint64_t state = 99;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int b = 0; b < 4; ++b) {
    MutationBatch batch;
    for (int i = 0; i < 64; ++i) {
      batch.InsertEdge(static_cast<VertexId>(next() % n),
                       static_cast<VertexId>(next() % n),
                       static_cast<Weight>(1 + next() % 16));
    }
    for (int i = 0; i < 8; ++i) {
      const VertexId src = static_cast<VertexId>(next() % n);
      const auto nbrs = base.neighbors(src);
      if (!nbrs.empty()) batch.DeleteEdge(src, nbrs[next() % nbrs.size()]);
    }
    auto applied = engine->ApplyMutations(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
}

std::unique_ptr<Engine> MakeEngine(Context context, int num_workers,
                                   int extra_rounds = 1) {
  CsrGraph graph = TestGraph();
  SolverOptions options = SolverOptions::Defaults(SystemKind::kHyTGraph);
  // Oversubscribed device so the hybrid filter/compaction/zero-copy mix —
  // the path the lanes split — actually engages.
  options.device_memory_override = graph.EdgeDataBytes() / 2;
  options.num_workers = num_workers;
  // Enough partitions that even 8 lanes get multi-partition ranges.
  options.partition_bytes = 8 << 10;
  options.extra_rounds = extra_rounds;
  CompactionPolicy compaction;
  StorageOptions storage;
  switch (context) {
    case Context::kStatic:
      break;
    case Context::kMutated:
      // Manual compaction: queries keep running on the delta overlay.
      compaction.mode = CompactionMode::kManual;
      break;
    case Context::kPull:
      options.direction = TraversalDirection::kPull;
      break;
    case Context::kOutOfCore:
      // Tight streaming regime: cache under 25% of the edge data.
      storage.memory_budget_bytes = graph.EdgeDataBytes() / 5;
      break;
  }
  auto engine = std::make_unique<Engine>(std::move(graph), options,
                                         compaction, storage);
  if (context == Context::kOutOfCore) {
    EXPECT_TRUE(engine->out_of_core()) << "spill failed, context not tested";
  }
  if (context == Context::kMutated) ApplyDeterministicMutations(engine.get());
  return engine;
}

QueryResult RunOne(Engine& engine, AlgorithmId algorithm) {
  Query query;
  query.algorithm = algorithm;
  if (GetAlgorithmInfo(algorithm).needs_source) query.source = 1;
  auto result = engine.Run(query);
  HYT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The serial textbook result of `algorithm` on `graph` from `source`.
QueryValues ReferenceValues(const CsrGraph& graph, AlgorithmId algorithm,
                            VertexId source) {
  switch (algorithm) {
    case AlgorithmId::kBfs:
      return ReferenceBfs(graph, source);
    case AlgorithmId::kSssp:
      return ReferenceSssp(graph, source);
    case AlgorithmId::kCc:
      return ReferenceCc(graph);
    case AlgorithmId::kPageRank:
      return ReferencePageRank(graph);
    case AlgorithmId::kPhp:
      return ReferencePhp(graph, source);
    case AlgorithmId::kSswp:
      return ReferenceSswp(graph, source);
  }
  return {};
}

/// Exact for the value-selection family; PR/PHP within 1e-3 of the largest
/// reference value (at least 1), as the benchmark checks them.
void ExpectMatchesReference(const QueryResult& got, const QueryValues& want,
                            int workers) {
  const std::string label = std::string(AlgorithmName(got.algorithm)) +
                            " at " + std::to_string(workers) + " workers";
  ASSERT_EQ(got.values.index(), want.index()) << label;
  if (!got.is_f64()) {
    EXPECT_EQ(got.u32(), std::get<std::vector<uint32_t>>(want))
        << label << " diverged from algorithms/reference.cc";
    return;
  }
  const auto& ref = std::get<std::vector<double>>(want);
  ASSERT_EQ(got.f64().size(), ref.size()) << label;
  double max_ref = 1.0;
  for (double v : ref) max_ref = std::max(max_ref, std::abs(v));
  for (size_t v = 0; v < ref.size(); ++v) {
    ASSERT_NEAR(got.f64()[v], ref[v], 1e-3 * max_ref)
        << label << " vertex " << v << " vs algorithms/reference.cc";
  }
}

class ParallelExecutionTest : public ::testing::TestWithParam<Context> {};

TEST_P(ParallelExecutionTest, ValuesMatchReferenceAndOneLaneAtEveryWidth) {
  const Context context = GetParam();
  auto one_lane_engine = MakeEngine(context, /*num_workers=*/1);
  // The graph every context's queries see: base plus pending delta.
  auto graph = one_lane_engine->View().Materialize();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::map<AlgorithmId, QueryValues> textbook;
  std::map<AlgorithmId, QueryResult> one_lane;
  for (AlgorithmId algorithm : kAllAlgorithms) {
    QueryResult result = RunOne(*one_lane_engine, algorithm);
    textbook.emplace(algorithm,
                     ReferenceValues(*graph, algorithm, result.source));
    ExpectMatchesReference(result, textbook.at(algorithm), 1);
    one_lane.emplace(algorithm, std::move(result));
  }
  for (int workers : {2, 4, 8}) {
    auto engine = MakeEngine(context, workers);
    for (AlgorithmId algorithm : kAllAlgorithms) {
      const QueryResult got = RunOne(*engine, algorithm);
      ExpectMatchesReference(got, textbook.at(algorithm), workers);
      const QueryResult& want = one_lane.at(algorithm);
      if (got.is_f64()) {
        ASSERT_EQ(got.f64().size(), want.f64().size());
        double max_ref = 1e-12;
        for (double v : want.f64()) max_ref = std::max(max_ref, std::abs(v));
        for (size_t v = 0; v < got.f64().size(); ++v) {
          ASSERT_NEAR(got.f64()[v], want.f64()[v], 1e-3 * max_ref)
              << AlgorithmName(algorithm) << " vertex " << v << " at "
              << workers << " workers";
        }
      } else {
        EXPECT_EQ(got.u32(), want.u32())
            << AlgorithmName(algorithm) << " diverged from the one-lane "
            << "run at " << workers << " workers";
      }
    }
  }
}

TEST_P(ParallelExecutionTest, MergedFrontierIsDeterministicAcrossRuns) {
  const Context context = GetParam();
  auto first_engine =
      MakeEngine(context, /*num_workers=*/4, /*extra_rounds=*/0);
  const QueryResult first = RunOne(*first_engine, AlgorithmId::kBfs);
  ASSERT_FALSE(first.trace.iterations.empty());
  for (int run = 0; run < 3; ++run) {
    auto engine = MakeEngine(context, /*num_workers=*/4, /*extra_rounds=*/0);
    const QueryResult again = RunOne(*engine, AlgorithmId::kBfs);
    EXPECT_EQ(again.u32(), first.u32()) << "BFS values varied on run " << run;
    ASSERT_EQ(again.trace.iterations.size(), first.trace.iterations.size())
        << "iteration count varied on run " << run;
    for (size_t i = 0; i < first.trace.iterations.size(); ++i) {
      EXPECT_EQ(again.trace.iterations[i].active_vertices,
                first.trace.iterations[i].active_vertices)
          << "merged frontier diverged at iteration " << i << " on run "
          << run;
    }
  }
}

/// The lane count is a performance knob, not a semantic one: oversized
/// requests clamp to the partition count and still answer correctly.
TEST(ParallelExecutionClampTest, MoreLanesThanPartitionsStillCorrect) {
  CsrGraph graph = testing::ChainGraph(64);
  SolverOptions one_lane = SolverOptions::Defaults(SystemKind::kHyTGraph);
  one_lane.num_workers = 1;
  Engine reference(testing::ChainGraph(64), one_lane);
  const QueryResult want = RunOne(reference, AlgorithmId::kSssp);

  SolverOptions wide = one_lane;
  wide.num_workers = 64;  // far beyond the partition count of a 64-chain
  Engine engine(std::move(graph), wide);
  const QueryResult got = RunOne(engine, AlgorithmId::kSssp);
  EXPECT_EQ(got.u32(), want.u32());
}

/// num_workers = 0 resolves to hardware concurrency; values still match.
TEST(ParallelExecutionClampTest, AutoWorkerCountMatchesOneLane) {
  SolverOptions one_lane = SolverOptions::Defaults(SystemKind::kHyTGraph);
  one_lane.num_workers = 1;
  Engine reference(TestGraph(), one_lane);
  const QueryResult want = RunOne(reference, AlgorithmId::kBfs);

  SolverOptions automatic = one_lane;
  automatic.num_workers = 0;
  Engine engine(TestGraph(), automatic);
  const QueryResult got = RunOne(engine, AlgorithmId::kBfs);
  EXPECT_EQ(got.u32(), want.u32());
}

INSTANTIATE_TEST_SUITE_P(
    AllContexts, ParallelExecutionTest,
    ::testing::Values(Context::kStatic, Context::kMutated, Context::kPull,
                      Context::kOutOfCore),
    [](const ::testing::TestParamInfo<Context>& info) {
      return ContextName(info.param);
    });

}  // namespace
}  // namespace hytgraph

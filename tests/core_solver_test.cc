// End-to-end solver tests: every SystemKind produces correct results on the
// paper's Fig. 1 example and on small synthetic graphs; device-memory
// accounting, trace invariants, and option validation.

#include "core/solver.h"

#include <gtest/gtest.h>

#include "algorithms/programs.h"
#include "algorithms/reference.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::ChainGraph;
using testing::PaperFigure1Graph;
using testing::SmallRmat;

SolverOptions SmallOptions(SystemKind system) {
  SolverOptions opts = SolverOptions::Defaults(system);
  opts.partition_bytes = 64;  // force several partitions even on toy graphs
  return opts;
}

class SolverAllSystemsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(SolverAllSystemsTest, SsspMatchesFigure1) {
  const CsrGraph graph = PaperFigure1Graph();
  Solver<SsspProgram> solver(GraphView::Wrap(graph), SmallOptions(GetParam()));
  ASSERT_TRUE(solver.Init().ok());
  SsspProgram program(graph, /*source=*/0);
  auto trace = solver.Run(&program);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace->converged);
  // Paper Fig. 1 iterative table, final column.
  const std::vector<uint32_t> expected = {0, 2, 4, 3, 4, 6};
  EXPECT_EQ(program.Values(), expected);
}

TEST_P(SolverAllSystemsTest, BfsMatchesReferenceOnRmat) {
  const CsrGraph graph = SmallRmat(10, 8);
  Solver<BfsProgram> solver(GraphView::Wrap(graph), SmallOptions(GetParam()));
  ASSERT_TRUE(solver.Init().ok());
  BfsProgram program(graph, /*source=*/1);
  auto trace = solver.Run(&program);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(program.Values(), ReferenceBfs(graph, 1));
}

TEST_P(SolverAllSystemsTest, TraceAccountsTransfersAndKernels) {
  const CsrGraph graph = SmallRmat(10, 8);
  // Start from the highest-degree vertex so the traversal reaches the giant
  // component (vertex 0 may be isolated in a permuted RMAT graph).
  VertexId source = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.out_degree(v) > graph.out_degree(source)) source = v;
  }
  Solver<BfsProgram> solver(GraphView::Wrap(graph), SmallOptions(GetParam()));
  ASSERT_TRUE(solver.Init().ok());
  BfsProgram program(graph, source);
  auto trace = solver.Run(&program);
  ASSERT_TRUE(trace.ok());
  EXPECT_GT(trace->NumIterations(), 0u);
  EXPECT_GT(trace->total_sim_seconds, 0.0);
  EXPECT_GT(trace->TotalKernelEdges(), 0u);
  if (GetParam() != SystemKind::kCpu) {
    EXPECT_GT(trace->TotalTransferredBytes(), 0u);
  } else {
    EXPECT_EQ(trace->TotalTransferredBytes(), 0u);
  }
  // Makespan of each iteration can never exceed the serialized phase sum and
  // never undercut the largest single resource busy time.
  for (const IterationTrace& it : trace->iterations) {
    EXPECT_GE(it.transfer_seconds + it.kernel_seconds + it.compaction_seconds,
              it.sim_seconds - 1e-12);
    EXPECT_GE(it.sim_seconds + 1e-12,
              std::max({it.transfer_seconds, it.kernel_seconds,
                        it.compaction_seconds}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, SolverAllSystemsTest,
    ::testing::Values(SystemKind::kHyTGraph, SystemKind::kExpFilter,
                      SystemKind::kSubway, SystemKind::kEmogi,
                      SystemKind::kImpUm, SystemKind::kGrus, SystemKind::kCpu),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name = SystemKindName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SolverTest, RunBeforeInitFails) {
  const CsrGraph graph = PaperFigure1Graph();
  Solver<BfsProgram> solver(GraphView::Wrap(graph),
                            SmallOptions(SystemKind::kHyTGraph));
  BfsProgram program(graph, 0);
  auto result = solver.Run(&program);
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(SolverTest, VertexDataExceedingDeviceMemoryIsOom) {
  const CsrGraph graph = SmallRmat(12, 8);
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  opts.device_memory_override = 1024;  // absurdly small GPU
  Solver<SsspProgram> solver(GraphView::Wrap(graph), opts);
  const Status status = solver.Init();
  EXPECT_TRUE(status.IsOutOfMemory()) << status.ToString();
}

TEST(SolverTest, InvalidOptionsRejected) {
  const CsrGraph graph = PaperFigure1Graph();
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  opts.alpha = 1.5;
  Solver<BfsProgram> solver(GraphView::Wrap(graph), opts);
  EXPECT_TRUE(solver.Init().IsInvalidArgument());
}

TEST(SolverTest, EmptyFrontierConvergesImmediately) {
  // A BFS from an isolated vertex: one iteration (the source), then done.
  auto graph_result = BuildFromTriples(3, {{1, 2, 1}});
  ASSERT_TRUE(graph_result.ok());
  const CsrGraph graph = std::move(graph_result).value();
  Solver<BfsProgram> solver(GraphView::Wrap(graph),
                            SmallOptions(SystemKind::kHyTGraph));
  ASSERT_TRUE(solver.Init().ok());
  BfsProgram program(graph, 0);
  auto trace = solver.Run(&program);
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->converged);
  EXPECT_EQ(trace->NumIterations(), 1u);
  EXPECT_EQ(program.Values()[0], 0u);
  EXPECT_EQ(program.Values()[1], kUnreachable);
}

TEST(SolverTest, HyTGraphUsesMultipleEnginesOverPageRankRun) {
  // On a skewed graph, PageRank's dense early iterations should pick
  // filter/compaction while sparse late iterations pick zero-copy —
  // the execution-path behaviour of Fig. 7.
  const CsrGraph graph = SmallRmat(12, 8);
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  // Half-TLP partitions: big enough that the per-partition overhead term
  // does not drown the transfer costs, small enough for several partitions.
  opts.partition_bytes = 16384;
  Solver<PageRankProgram> solver(GraphView::Wrap(graph), opts);
  ASSERT_TRUE(solver.Init().ok());
  PageRankProgram program(graph);
  auto trace = solver.Run(&program);
  ASSERT_TRUE(trace.ok());
  uint64_t filter = 0;
  uint64_t zc = 0;
  uint64_t compaction = 0;
  for (const IterationTrace& it : trace->iterations) {
    filter += it.partitions_filter;
    zc += it.partitions_zero_copy;
    compaction += it.partitions_compaction;
  }
  EXPECT_GT(filter + compaction, 0u);
  EXPECT_GT(zc, 0u);
}

TEST(SolverTest, SubwayLocalRoundsReduceIterationsVsEmogiOnChain) {
  // CC starts with every vertex active, so Subway's loaded subgraph is the
  // whole chain: multi-round local processing propagates the min label to a
  // fixpoint within very few global iterations, while synchronous EMOGI
  // needs ~n label-propagation rounds. (Subway's rounds only help when the
  // frontier has internal edges — a single-vertex BFS wavefront gains
  // nothing, which is why the paper reports Subway's worst results on BFS.)
  const CsrGraph graph = ChainGraph(64);
  SolverOptions subway = SmallOptions(SystemKind::kSubway);
  SolverOptions emogi = SmallOptions(SystemKind::kEmogi);

  Solver<CcProgram> s1(GraphView::Wrap(graph), subway);
  ASSERT_TRUE(s1.Init().ok());
  CcProgram p1(graph);
  auto t1 = s1.Run(&p1);
  ASSERT_TRUE(t1.ok());

  Solver<CcProgram> s2(GraphView::Wrap(graph), emogi);
  ASSERT_TRUE(s2.Init().ok());
  CcProgram p2(graph);
  auto t2 = s2.Run(&p2);
  ASSERT_TRUE(t2.ok());

  EXPECT_LT(t1->NumIterations(), t2->NumIterations());
  EXPECT_EQ(p1.Values(), p2.Values());
}

}  // namespace
}  // namespace hytgraph

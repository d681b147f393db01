#include "core/task_combiner.h"

#include <gtest/gtest.h>

#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::SmallRmat;

/// Builds a synthetic IterationState + costs over `n` partitions where every
/// partition is active and partition p's engine choice is `choices[p]`.
struct CombinerFixture {
  explicit CombinerFixture(const std::vector<EngineKind>& choices) {
    const uint32_t n = static_cast<uint32_t>(choices.size());
    partitions.resize(n);
    state.stats.resize(n);
    state.slice_offsets.resize(n + 1);
    costs.resize(n);
    for (uint32_t p = 0; p < n; ++p) {
      partitions[p].id = p;
      partitions[p].first_vertex = p * 10;
      partitions[p].last_vertex = (p + 1) * 10;
      partitions[p].edge_begin = p * 100;
      partitions[p].edge_end = (p + 1) * 100;
      state.stats[p].active_vertices = 5;
      state.stats[p].active_edges = 50;
      state.stats[p].zc_requests = 5;
      state.slice_offsets[p] = p * 5;
      for (int i = 0; i < 5; ++i) {
        state.actives.push_back(p * 10 + static_cast<VertexId>(i));
      }
      costs[p].choice = choices[p];
    }
    state.slice_offsets[n] = state.actives.size();
  }

  /// The task list over every partition (a single lane's range).
  std::vector<Task> Combine(const TaskCombinerOptions& tco) const {
    return CombineTasks(partitions, state, costs, tco, 0,
                        static_cast<uint32_t>(partitions.size()));
  }

  std::vector<Partition> partitions;
  IterationState state;
  std::vector<PartitionCosts> costs;
};

TaskCombinerOptions DefaultTco() {
  TaskCombinerOptions tco;
  tco.combine_k = 4;
  return tco;
}

TEST(TaskCombinerTest, ConsecutiveFilterPartitionsMergeUpToK) {
  CombinerFixture fx(std::vector<EngineKind>(10, EngineKind::kFilter));
  const auto tasks = fx.Combine(DefaultTco());
  // 10 filter partitions, k=4 -> tasks of size 4, 4, 2.
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].partitions.size(), 4u);
  EXPECT_EQ(tasks[1].partitions.size(), 4u);
  EXPECT_EQ(tasks[2].partitions.size(), 2u);
  for (const Task& t : tasks) EXPECT_EQ(t.engine, EngineKind::kFilter);
}

TEST(TaskCombinerTest, AllCompactionPartitionsFormOneTask) {
  CombinerFixture fx(std::vector<EngineKind>(6, EngineKind::kCompaction));
  const auto tasks = fx.Combine(DefaultTco());
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].engine, EngineKind::kCompaction);
  EXPECT_EQ(tasks[0].partitions.size(), 6u);
  EXPECT_EQ(tasks[0].active_vertices, 30u);
}

TEST(TaskCombinerTest, AllZeroCopyPartitionsFormOneTask) {
  CombinerFixture fx(std::vector<EngineKind>(5, EngineKind::kZeroCopy));
  const auto tasks = fx.Combine(DefaultTco());
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].engine, EngineKind::kZeroCopy);
  EXPECT_EQ(tasks[0].zc_requests, 25u);
}

TEST(TaskCombinerTest, NonFilterPartitionBreaksFilterRun) {
  // F F Z F F: the zero-copy partition splits the filter run (Algorithm 1
  // resets the run on a non-filter partition).
  CombinerFixture fx({EngineKind::kFilter, EngineKind::kFilter,
                      EngineKind::kZeroCopy, EngineKind::kFilter,
                      EngineKind::kFilter});
  const auto tasks = fx.Combine(DefaultTco());
  // Tasks: filter{0,1}, filter{3,4}, zc{2}.
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].engine, EngineKind::kFilter);
  EXPECT_EQ(tasks[0].partitions, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(tasks[1].engine, EngineKind::kFilter);
  EXPECT_EQ(tasks[1].partitions, (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(tasks[2].engine, EngineKind::kZeroCopy);
}

TEST(TaskCombinerTest, MixedEnginesProduceExpectedGrouping) {
  CombinerFixture fx({EngineKind::kFilter, EngineKind::kCompaction,
                      EngineKind::kZeroCopy, EngineKind::kCompaction,
                      EngineKind::kFilter});
  const auto tasks = fx.Combine(DefaultTco());
  // filter{0}, filter{4}, zc{2}, compaction{1,3}.
  ASSERT_EQ(tasks.size(), 4u);
  int filters = 0;
  for (const Task& t : tasks) {
    if (t.engine == EngineKind::kFilter) ++filters;
    if (t.engine == EngineKind::kCompaction) {
      EXPECT_EQ(t.partitions, (std::vector<uint32_t>{1, 3}));
    }
  }
  EXPECT_EQ(filters, 2);
}

TEST(TaskCombinerTest, DisabledCombiningYieldsOneTaskPerPartition) {
  CombinerFixture fx(std::vector<EngineKind>(7, EngineKind::kFilter));
  TaskCombinerOptions tco = DefaultTco();
  tco.enabled = false;
  const auto tasks = fx.Combine(tco);
  EXPECT_EQ(tasks.size(), 7u);
  for (const Task& t : tasks) EXPECT_EQ(t.partitions.size(), 1u);
}

TEST(TaskCombinerTest, InactivePartitionsAreSkipped) {
  CombinerFixture fx(std::vector<EngineKind>(4, EngineKind::kFilter));
  fx.state.stats[1].active_vertices = 0;  // deactivate partition 1
  const auto tasks = fx.Combine(DefaultTco());
  uint64_t covered = 0;
  for (const Task& t : tasks) {
    covered += t.partitions.size();
    for (uint32_t p : t.partitions) EXPECT_NE(p, 1u);
  }
  EXPECT_EQ(covered, 3u);
}

TEST(TaskCombinerTest, AggregatesSumPartitionStats) {
  CombinerFixture fx(std::vector<EngineKind>(3, EngineKind::kFilter));
  const auto tasks = fx.Combine(DefaultTco());
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].active_vertices, 15u);
  EXPECT_EQ(tasks[0].active_edges, 150u);
  EXPECT_EQ(tasks[0].total_edges, 300u);
}

TEST(TaskCombinerTest, EmptyStateProducesNoTasks) {
  CombinerFixture fx(std::vector<EngineKind>(3, EngineKind::kFilter));
  for (auto& s : fx.state.stats) s.active_vertices = 0;
  const auto tasks = fx.Combine(DefaultTco());
  EXPECT_TRUE(tasks.empty());
}

}  // namespace
}  // namespace hytgraph

// Golden solver traces: FNV-1a digests of every simulated IterationTrace
// field plus the result values, for every SystemKind x algorithm x
// direction (push/auto/pull) on a static engine, a mutated-overlay engine
// and an out-of-core engine with prefetch off. The digests pin the
// simulated behaviour of the solver loop, so a refactor of the iteration
// path must reproduce the paper's numbers bit for bit.
//
// Measured wall-clock fields (measured_compaction_seconds, the lane
// busy/critical sums) are left out. The queries run on a thread marked as a
// pool worker, so every kernel runs serially and the PR/PHP update order —
// and with it their iteration counts — repeats exactly run to run.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/engine.h"
#include "dynamic/mutation.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::SmallRmat;

class Fnv1a {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double x) { Add(std::bit_cast<uint64_t>(x)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddTrace(const QueryResult& result, Fnv1a* h) {
  const RunTrace& trace = result.trace;
  h->Add(static_cast<uint64_t>(trace.iterations.size()));
  for (const IterationTrace& it : trace.iterations) {
    h->Add(it.active_vertices);
    h->Add(it.active_edges);
    h->Add(static_cast<uint64_t>(it.direction));
    h->Add(uint64_t{it.partitions_filter});
    h->Add(uint64_t{it.partitions_compaction});
    h->Add(uint64_t{it.partitions_zero_copy});
    h->Add(uint64_t{it.partitions_um});
    h->Add(uint64_t{it.partitions_active});
    h->Add(uint64_t{it.num_tasks});
    h->Add(it.sim_seconds);
    h->Add(it.transfer_seconds);
    h->Add(it.kernel_seconds);
    h->Add(it.compaction_seconds);
    h->Add(it.um_pages_touched);
    const TransferStatsSnapshot& t = it.transfers;
    for (uint64_t x : {t.explicit_bytes, t.zero_copy_bytes,
                       t.zero_copy_requests, t.um_bytes, t.page_faults,
                       t.tlps, t.kernel_edges, t.compacted_bytes}) {
      h->Add(x);
    }
  }
  h->Add(trace.total_sim_seconds);
  h->Add(uint64_t{trace.converged});
  h->Add(static_cast<uint64_t>(trace.num_lanes));
  if (result.is_f64()) {
    for (double v : result.f64()) h->Add(v);
  } else {
    for (uint32_t v : result.u32()) h->Add(uint64_t{v});
  }
}

enum class Context { kStatic, kMutated, kOutOfCore };

CsrGraph TestGraph() { return SmallRmat(12, 8, /*seed=*/7); }

SolverOptions BaseOptions(const CsrGraph& graph, SystemKind system) {
  SolverOptions options = SolverOptions::Defaults(system);
  // Oversubscribed device, so the hybrid filter/compaction/zero-copy mix
  // and the UM page cache's evictions engage.
  options.device_memory_override = graph.EdgeDataBytes() / 2;
  options.partition_bytes = 8 << 10;
  return options;
}

/// Four batches of pseudo-random inserts plus a few base-edge deletes.
void ApplyMutations(Engine* engine) {
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
    HYT_CHECK(applied.ok()) << applied.status().ToString();
  }
}

std::unique_ptr<Engine> MakeEngine(Context context) {
  CsrGraph graph = TestGraph();
  const SolverOptions options = BaseOptions(graph, SystemKind::kHyTGraph);
  CompactionPolicy compaction;
  StorageOptions storage;
  if (context == Context::kMutated) {
    compaction.mode = CompactionMode::kManual;  // stay on the overlay
  }
  if (context == Context::kOutOfCore) {
    storage.memory_budget_bytes = graph.EdgeDataBytes() / 5;
    storage.prefetch = false;  // demand paging only: no IO-thread races
  }
  auto engine = std::make_unique<Engine>(std::move(graph), options,
                                         compaction, storage);
  if (context == Context::kOutOfCore) HYT_CHECK(engine->out_of_core());
  if (context == Context::kMutated) ApplyMutations(engine.get());
  return engine;
}

constexpr SystemKind kAllSystems[] = {
    SystemKind::kHyTGraph, SystemKind::kExpFilter, SystemKind::kSubway,
    SystemKind::kEmogi,    SystemKind::kImpUm,     SystemKind::kGrus,
    SystemKind::kCpu,
};

/// One digest per (system, algorithm), folding push/auto/pull on the
/// static, mutated-overlay and out-of-core engines, in that order.
std::vector<uint64_t> ComputeDigests() {
  std::vector<std::unique_ptr<Engine>> engines;
  for (Context c : {Context::kStatic, Context::kMutated, Context::kOutOfCore}) {
    engines.push_back(MakeEngine(c));
  }
  const CsrGraph graph = TestGraph();
  std::vector<uint64_t> digests;
  for (SystemKind system : kAllSystems) {
    for (AlgorithmId algorithm : kAllAlgorithms) {
      Fnv1a h;
      for (const auto& engine : engines) {
        for (TraversalDirection direction :
             {TraversalDirection::kPush, TraversalDirection::kAuto,
              TraversalDirection::kPull}) {
          SolverOptions options = BaseOptions(graph, system);
          options.direction = direction;
          Query query;
          query.algorithm = algorithm;
          auto result = engine->Run(query, options);
          HYT_CHECK(result.ok()) << result.status().ToString();
          AddTrace(*result, &h);
        }
      }
      digests.push_back(h.value());
    }
  }
  return digests;
}

/// Runs ComputeDigests on a thread marked as a pool worker: every kernel
/// then runs serially and the schedule is fixed.
std::vector<uint64_t> ComputeDigestsSerially() {
  std::vector<uint64_t> digests;
  testing::RunSerially([&] { digests = ComputeDigests(); });
  return digests;
}

TEST(GoldenTraceTest, TraceDigestsMatchGolden) {
  // Captured before the solver's sequential iteration path was folded into
  // the lane executor. Row-major over kAllSystems x kAllAlgorithms
  // (PR, SSSP, CC, BFS, PHP, SSWP).
  const std::vector<uint64_t> golden = {
      // HyTGraph
      0xbe2615888da5cd5bULL, 0x43b9f25c0b723d58ULL, 0x01a7e33d02fdbe80ULL,
      0x8406f6e85206214aULL, 0xa2fd608a9cf50adbULL, 0x51a3bf0c2eda580aULL,
      // ExpTM-F
      0x995811be120ec124ULL, 0x5b76205040a00d04ULL, 0x94b4b3f76cf01059ULL,
      0xbc0f845ddbe1ffffULL, 0xd8da8b02c5768d37ULL, 0xb9288167f1cc964fULL,
      // Subway
      0x8c48924ded627864ULL, 0x1c47e5db1cdbb01eULL, 0xe3d96e6e961c6387ULL,
      0xed6bba6e7e8214a6ULL, 0x4ea98a80411ed65cULL, 0x1a860c6445da142eULL,
      // EMOGI
      0xf21855d316b18d16ULL, 0x6d500db49265ede0ULL, 0x1997440d6a278842ULL,
      0x43712202062e13e8ULL, 0x2afb74b1d0172481ULL, 0x83de295377506328ULL,
      // ImpTM-UM
      0xcb971783ebec4034ULL, 0x68a57c0eab8f53c6ULL, 0x9d8fcfff4fe30296ULL,
      0x6d2aa210a443d6e6ULL, 0x912ab355533a8d63ULL, 0x8f840c4852723396ULL,
      // Grus
      0x664446b34b08bae9ULL, 0x44de5c3504597f30ULL, 0x55de708b244f64bdULL,
      0xa01ccc23cb91f1beULL, 0xb70a327080f2b1b6ULL, 0x09890246012c783cULL,
      // CPU
      0x92e9fe81d7c61492ULL, 0xfb934064e11b05c8ULL, 0x20fb30cb2a99f86eULL,
      0xd2e273cf344c944aULL, 0x5244262de9c81cb3ULL, 0xcaced1c6e6830535ULL,
  };
  const std::vector<uint64_t> got = ComputeDigestsSerially();
  ASSERT_EQ(got.size(), std::size(kAllSystems) * std::size(kAllAlgorithms));
  ASSERT_EQ(golden.size(), got.size());
  size_t i = 0;
  for (SystemKind system : kAllSystems) {
    for (AlgorithmId algorithm : kAllAlgorithms) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                    static_cast<unsigned long long>(got[i]));
      EXPECT_EQ(got[i], golden[i])
          << SystemKindName(system) << " / " << AlgorithmName(algorithm)
          << ": got " << hex;
      ++i;
    }
  }
}

}  // namespace
}  // namespace hytgraph

#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "graph/hub_sort.h"

namespace hytbench {

using namespace hytgraph;

namespace {

// Load parameters, fixed so every later run replays the identical schedule.
// Calibrated on a 4-thread shared host whose throughput drops by up to 2x
// for minutes at a time. Offered at half of saturation, a serving workload
// tipped into a growing backlog in such a slow phase (p99 up 6x), so each
// is offered well below it: serve_hot a quarter of the 128 req/s it
// saturates at closed-loop, serve_ingest 40% of the 79 req/s it sustains
// at 20 batches/s, with the writer at 10 batches/s.
const WorkloadSpec kWorkloads[] = {
    {.name = "analytics"},
    {.name = "analytics_ooc", .out_of_core = true},
    {.name = "serve_hot",
     .serving = true,
     .offered_qps = 32,
     .burst = 8,
     .hot_sources = 16,
     .latency_limit_ms = 500},
    {.name = "serve_ingest",
     .serving = true,
     .ingest = true,
     .offered_qps = 32,
     .burst = 4,
     .hot_sources = 0,
     .latency_limit_ms = 1000,
     .batch_edges = 256,
     .batches_per_s = 10},
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "hytbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ' ';
    names += spec.name;
  }
  return names;
}

const char* AlgoKey(AlgorithmId algorithm) {
  switch (algorithm) {
    case AlgorithmId::kBfs: return "bfs";
    case AlgorithmId::kSssp: return "sssp";
    case AlgorithmId::kCc: return "cc";
    case AlgorithmId::kPageRank: return "pr";
    case AlgorithmId::kPhp: return "php";
    case AlgorithmId::kSswp: return "sswp";
  }
  return "?";
}

DatasetSpec BenchSpec() {
  auto spec = FindDataset(kDataset);
  if (!spec.ok()) Die("dataset", spec.status());
  spec->scale -= kScaleDelta;
  return *spec;
}

CsrGraph GenerateGraph(const DatasetSpec& spec) {
  auto graph = LoadDataset(spec);
  if (!graph.ok()) Die("LoadDataset", graph.status());
  return std::move(graph).value();
}

Deployment Deploy(const WorkloadSpec& workload, Tracer& tracer,
                  const std::function<void(const CsrGraph&)>& before_engine) {
  Deployment d;
  const DatasetSpec spec = BenchSpec();
  std::vector<double> setups;
  std::vector<double> generates;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    // Tear the previous deployment down outside the timed region.
    d.server.reset();
    d.engine.reset();

    const int64_t root = tracer.Open("harness.setup", Now(), repeat);
    CsrGraph graph;
    const double generate = Timed(
        tracer, "graph.generate",
        [&] { graph = GenerateGraph(spec); }, root, repeat);
    if (before_engine) before_engine(graph);

    SolverOptions options = SolverOptions::Defaults(SystemKind::kHyTGraph);
    options.device_memory_override = DeviceMemoryBudget(spec, graph);
    CompactionPolicy compaction;
    if (workload.ingest) compaction.mode = CompactionMode::kBackground;
    StorageOptions storage;
    if (workload.out_of_core) {
      storage.memory_budget_bytes = static_cast<uint64_t>(
          kOocBudgetFraction * static_cast<double>(graph.EdgeDataBytes()));
    }
    const double construct = Timed(
        tracer, "core.engine_ctor",
        [&] {
          d.engine = std::make_unique<Engine>(std::move(graph), options,
                                              compaction, storage);
        },
        root, repeat);
    double start_server = 0;
    if (workload.serving) {
      start_server = Timed(
          tracer, "serving.start",
          [&] { d.server = std::make_unique<QueryServer>(d.engine.get()); },
          root, repeat);
    }
    tracer.Close(root, Now());
    if (workload.out_of_core && !d.engine->out_of_core()) {
      Die("set-up", Status::Internal("engine did not spill to storage"));
    }
    generates.push_back(generate);
    setups.push_back(generate + construct + start_server);
  }
  d.setup_s = Median(setups);
  d.generate_s = Median(generates);
  return d;
}

void TraceTotals::Add(const RunTrace& trace) {
  sim_s += trace.total_sim_seconds;
  pull_iterations += static_cast<double>(trace.PullIterations());
  for (const IterationTrace& it : trace.iterations) {
    kernel_edges += static_cast<double>(it.transfers.kernel_edges);
    explicit_bytes += static_cast<double>(it.transfers.explicit_bytes);
    zero_copy_bytes += static_cast<double>(it.transfers.zero_copy_bytes);
    um_bytes += static_cast<double>(it.transfers.um_bytes);
    partitions_filter += it.partitions_filter;
    partitions_compaction += it.partitions_compaction;
    partitions_zero_copy += it.partitions_zero_copy;
    busy_transfer_s += it.transfer_seconds;
    busy_kernel_s += it.kernel_seconds;
    busy_compaction_s += it.compaction_seconds;
    compaction_measured_s += it.measured_compaction_seconds;
  }
}

void SetTraceMetrics(const std::vector<TraceTotals>& units,
                     MetricSheet& metrics) {
  auto mean = [&](double TraceTotals::*field) {
    std::vector<double> values;
    for (const TraceTotals& unit : units) values.push_back(unit.*field);
    return Mean(values);
  };
  metrics.Set("engine.kernel_edges", mean(&TraceTotals::kernel_edges));
  metrics.Set("engine.pull_iterations", mean(&TraceTotals::pull_iterations));
  metrics.Set("sim.transfer_bytes.explicit",
              mean(&TraceTotals::explicit_bytes));
  metrics.Set("sim.transfer_bytes.zero_copy",
              mean(&TraceTotals::zero_copy_bytes));
  metrics.Set("sim.transfer_bytes.um", mean(&TraceTotals::um_bytes));
  metrics.Set("sim.partitions.filter", mean(&TraceTotals::partitions_filter));
  metrics.Set("sim.partitions.compaction",
              mean(&TraceTotals::partitions_compaction));
  metrics.Set("sim.partitions.zero_copy",
              mean(&TraceTotals::partitions_zero_copy));
  metrics.Set("sim.busy_s.transfer", mean(&TraceTotals::busy_transfer_s));
  metrics.Set("sim.busy_s.kernel", mean(&TraceTotals::busy_kernel_s));
  metrics.Set("sim.busy_s.compaction", mean(&TraceTotals::busy_compaction_s));
  metrics.Set("sim.compaction_measured_s",
              mean(&TraceTotals::compaction_measured_s));
}

void ProbeEngineLayers(Engine& engine, Tracer& tracer, MetricSheet& metrics) {
  // Counters first: the probes below add cache traffic of their own.
  const EngineCacheStats cache = engine.cache_stats();
  const uint64_t lookups = cache.hits + cache.misses;
  metrics.Set("core.cache.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(cache.hits) /
                                 static_cast<double>(lookups));
  metrics.Set("core.cache.invalidated", static_cast<double>(cache.invalidated));

  const StorageStats storage = engine.storage_stats();
  metrics.Set("storage.hit_ratio", storage.HitRate());
  metrics.Set("storage.bytes_read", static_cast<double>(storage.bytes_read));
  metrics.Set("storage.evictions", static_cast<double>(storage.evictions));
  metrics.Set("storage.prefetch_accuracy", storage.PrefetchAccuracy());
  metrics.Set("storage.read_retries",
              static_cast<double>(storage.read_retries));
  metrics.Set("storage.fetch_failures",
              static_cast<double>(storage.fetch_failures));

  const SnapshotCompactor::Stats folds = engine.compactor_stats();
  metrics.Set("dynamic.folds", static_cast<double>(folds.folds));
  metrics.Set("dynamic.fold_s", folds.total_seconds);

  uint64_t degraded = 0;
  for (const SubsystemHealth& s : engine.Health().subsystems) {
    if (s.state == HealthState::kDegraded) ++degraded;
  }
  metrics.Set("util.health_degraded", static_cast<double>(degraded));

  // Prepare-miss cost: a default-source BFS right after the prepared
  // cache is dropped, minus the median of three warm repeats.
  const Query bfs = QueryFor(AlgorithmId::kBfs);
  auto run = [&] {
    auto result = engine.Run(bfs);
    if (!result.ok()) Die("prepare probe", result.status());
  };
  engine.ClearPreparedCache();
  const double miss = Timed(tracer, "core.run.bfs_prepare_miss", run);
  std::vector<double> warm;
  for (int i = 0; i < 3; ++i) {
    warm.push_back(Timed(tracer, "core.run.bfs_warm", run));
  }
  metrics.Set("core.prepare_miss_ms", (miss - Median(warm)) * 1e3);

  // A direct hub sort of the base snapshot (regenerated when the engine
  // streams its edges from storage).
  CsrGraph regenerated;
  const CsrGraph* base = &engine.graph();
  if (!base->edges_resident()) {
    regenerated = GenerateGraph(BenchSpec());
    base = &regenerated;
  }
  const double hub_sort = Timed(tracer, "graph.hub_sort", [&] {
    auto sorted = HubSort(*base, 0.08);
    if (!sorted.ok()) Die("HubSort", sorted.status());
  });
  metrics.Set("graph.hub_sort_ms", hub_sort * 1e3);
}

}  // namespace hytbench

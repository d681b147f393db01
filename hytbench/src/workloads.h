// The four benchmark workloads, their fixed load parameters, and the
// common set-up every one of them times.

#ifndef HYTBENCH_WORKLOADS_H_
#define HYTBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "graph/dataset.h"
#include "harness.h"
#include "serving/query_server.h"

namespace hytbench {

/// The TW stand-in at the benches' default scale delta of 2.
inline constexpr const char* kDataset = "TW";
inline constexpr uint32_t kScaleDelta = 2;
/// Out-of-core block-cache budget as a share of the base edge bytes.
inline constexpr double kOocBudgetFraction = 0.25;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

struct WorkloadSpec {
  const char* name;
  bool out_of_core = false;
  bool serving = false;
  bool ingest = false;
  /// Open-loop query load (serving workloads): requests per second,
  /// arriving in bursts of `burst` at Poisson instants.
  double offered_qps = 0;
  int burst = 0;
  /// Sources drawn from the `hot_sources` highest out-degree vertices
  /// (Zipf-skewed); 0 = uniform over all vertices.
  int hot_sources = 0;
  /// A request slower than this (or failed, shed or refused) does not
  /// count towards goodput.
  double latency_limit_ms = 0;
  /// Open-loop writer (serve_ingest): fixed-size batches, half inserts and
  /// half deletions of existing edges, at a fixed rate.
  int batch_edges = 0;
  double batches_per_s = 0;
};

/// Looks a workload up by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Space-separated workload names, for usage messages.
std::string WorkloadNames();

struct RunConfig {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What set-up built: the engine (and server) the measured phase drives.
struct Deployment {
  std::unique_ptr<hytgraph::Engine> engine;
  std::unique_ptr<hytgraph::QueryServer> server;
  double setup_s = 0;     // median over kSetupRepeats
  double generate_s = 0;  // median LoadDataset wall time
};

/// A query with default algorithm parameters.
inline hytgraph::Query QueryFor(hytgraph::AlgorithmId algorithm,
                                hytgraph::VertexId source =
                                    hytgraph::kInvalidVertex) {
  hytgraph::Query query;
  query.algorithm = algorithm;
  query.source = source;
  return query;
}

/// The algorithm's lower-case short name, as used in metric names.
const char* AlgoKey(hytgraph::AlgorithmId algorithm);

/// The TW stand-in spec at benchmark scale.
hytgraph::DatasetSpec BenchSpec();

/// Generates the dataset (dies on failure: the input is fixed).
hytgraph::CsrGraph GenerateGraph(const hytgraph::DatasetSpec& spec);

/// Times the workload's set-up kSetupRepeats times and keeps the last.
/// `before_engine`, when set, sees each generated graph before the engine
/// takes it (the writer samples its deletions there).
Deployment Deploy(const WorkloadSpec& workload, Tracer& tracer,
                  const std::function<void(const hytgraph::CsrGraph&)>&
                      before_engine = nullptr);

/// Per-layer totals of one unit of work (a pass, or a served request),
/// summed over the RunTraces that unit produced.
struct TraceTotals {
  double sim_s = 0;
  double pull_iterations = 0;
  double kernel_edges = 0;
  double explicit_bytes = 0;
  double zero_copy_bytes = 0;
  double um_bytes = 0;
  double partitions_filter = 0;
  double partitions_compaction = 0;
  double partitions_zero_copy = 0;
  double busy_transfer_s = 0;
  double busy_kernel_s = 0;
  double busy_compaction_s = 0;
  double compaction_measured_s = 0;

  void Add(const hytgraph::RunTrace& trace);
};

/// Sets the engine.* and sim.* per-layer metrics to the mean over `units`.
void SetTraceMetrics(const std::vector<TraceTotals>& units,
                     MetricSheet& metrics);

/// A workload's measured outcome.
struct Outcome {
  MetricSheet metrics;
  PhaseCounts queries;    // requests (serving) or Engine::Run calls
  PhaseCounts mutations;  // mutation batches (serve_ingest)
  bool correct = true;
  std::string mismatch;   // first correctness failure, for the log
};

Outcome RunAnalytics(const RunConfig& config, Tracer& tracer);
Outcome RunServing(const RunConfig& config, Tracer& tracer);

/// Per-layer readings shared by every traced run: the engine's cache,
/// storage, fold and health counters, then two probes — the prepare-miss
/// cost of a default-source BFS and a direct hub sort of the base.
void ProbeEngineLayers(hytgraph::Engine& engine, Tracer& tracer,
                       MetricSheet& metrics);

}  // namespace hytbench

#endif  // HYTBENCH_WORKLOADS_H_

// analytics / analytics_ooc: one closed-loop caller runs passes of the
// paper's six algorithms through Engine::Run, in memory or with the base
// edges streamed from a budgeted block store.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "algorithms/reference.h"
#include "graph/degree_stats.h"
#include "workloads.h"

namespace hytbench {

using namespace hytgraph;

namespace {

constexpr AlgorithmId kPassOrder[] = {
    AlgorithmId::kBfs, AlgorithmId::kSssp, AlgorithmId::kCc,
    AlgorithmId::kPageRank, AlgorithmId::kPhp, AlgorithmId::kSswp,
};

// Relative tolerance of PageRank against the synchronous reference (as a
// share of the largest rank) and absolute tolerance of PHP: both stop at
// an epsilon residual but consume deltas in different orders.
constexpr double kPageRankTolerance = 1e-3;
constexpr double kPhpTolerance = 1e-3;

// Reference values of every algorithm of the pass, from the source the
// engine resolves by default (the highest out-degree vertex).
std::map<AlgorithmId, QueryValues> ComputeReferences() {
  const CsrGraph graph = GenerateGraph(BenchSpec());
  const VertexId source = HighestOutDegreeVertex(graph);
  std::map<AlgorithmId, QueryValues> refs;
  refs[AlgorithmId::kBfs] = ReferenceBfs(graph, source);
  refs[AlgorithmId::kSssp] = ReferenceSssp(graph, source);
  refs[AlgorithmId::kCc] = ReferenceCc(graph);
  refs[AlgorithmId::kPageRank] = ReferencePageRank(graph);
  refs[AlgorithmId::kPhp] = ReferencePhp(graph, source);
  refs[AlgorithmId::kSswp] = ReferenceSswp(graph, source);
  return refs;
}

// Empty when `got` matches the reference; otherwise what differs.
std::string Compare(AlgorithmId algorithm, const QueryResult& got,
                    const QueryValues& want) {
  const std::string name = AlgorithmName(algorithm);
  if (got.values.index() != want.index()) return name + ": value type";
  if (!got.is_f64()) {
    const auto& a = got.u32();
    const auto& b = std::get<std::vector<uint32_t>>(want);
    if (a.size() != b.size()) return name + ": size";
    for (size_t v = 0; v < a.size(); ++v) {
      if (a[v] != b[v]) {
        return name + ": vertex " + std::to_string(v) + " got " +
               std::to_string(a[v]) + " want " + std::to_string(b[v]);
      }
    }
    return "";
  }
  const auto& a = got.f64();
  const auto& b = std::get<std::vector<double>>(want);
  if (a.size() != b.size()) return name + ": size";
  double tolerance = kPhpTolerance;
  if (algorithm == AlgorithmId::kPageRank) {
    double max_rank = 1.0;
    for (double r : b) max_rank = std::max(max_rank, r);
    tolerance = kPageRankTolerance * max_rank;
  }
  for (size_t v = 0; v < a.size(); ++v) {
    if (!(std::fabs(a[v] - b[v]) <= tolerance)) {
      return name + ": vertex " + std::to_string(v) + " off by " +
             std::to_string(std::fabs(a[v] - b[v]));
    }
  }
  return "";
}

// What one measured phase saw.
struct PassLog {
  std::vector<double> pass_s;
  std::vector<double> pass_sim_ms;
  std::vector<double> run_ms;  // every Run call
  std::map<AlgorithmId, std::vector<double>> run_ms_by_algo;
  std::map<AlgorithmId, std::vector<double>> iterations_by_algo;
  std::vector<TraceTotals> totals;  // one per pass
  double run_wall_s = 0;
  // Per pass: process CPU time of its Run calls over their number.
  std::vector<double> cpu_ms_per_query;
};

// Runs passes until `seconds` have elapsed (at least one), checking every
// result against the references outside the timed calls.
PassLog RunPasses(Engine& engine, double seconds,
                  const std::map<AlgorithmId, QueryValues>& refs,
                  Tracer& tracer, Outcome& out) {
  PassLog log;
  const double deadline = Now() + seconds;
  uint64_t pass = 0;
  do {
    const int64_t root = tracer.Open("harness.pass", Now(), pass);
    double pass_wall = 0;
    double pass_cpu = 0;
    int runs = 0;
    TraceTotals totals;
    for (AlgorithmId algorithm : kPassOrder) {
      const std::string span = std::string("core.run.") + AlgoKey(algorithm);
      Result<QueryResult> result = Status::Internal("not run");
      const double cpu = ProcessCpuSeconds();
      const double wall = Timed(
          tracer, span.c_str(),
          [&] { result = engine.Run(QueryFor(algorithm)); }, root, pass);
      const double run_cpu = ProcessCpuSeconds() - cpu;
      ++out.queries.sent;
      if (!result.ok()) {
        ++out.queries.failed;
        continue;
      }
      const std::string mismatch =
          Compare(algorithm, *result, refs.at(algorithm));
      if (!mismatch.empty()) {
        ++out.queries.failed;
        if (out.correct) out.mismatch = mismatch;
        out.correct = false;
        continue;
      }
      ++out.queries.succeeded;
      pass_wall += wall;
      log.run_wall_s += wall;
      pass_cpu += run_cpu;
      ++runs;
      log.run_ms.push_back(wall * 1e3);
      log.run_ms_by_algo[algorithm].push_back(wall * 1e3);
      log.iterations_by_algo[algorithm].push_back(
          static_cast<double>(result->trace.NumIterations()));
      totals.Add(result->trace);
    }
    tracer.Close(root, Now());
    log.pass_s.push_back(pass_wall);
    if (runs > 0) log.cpu_ms_per_query.push_back(pass_cpu * 1e3 / runs);
    log.pass_sim_ms.push_back(totals.sim_s * 1e3);
    log.totals.push_back(totals);
    ++pass;
  } while (Now() < deadline);
  return log;
}

}  // namespace

Outcome RunAnalytics(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  // References first: the engine reuses the memory they free.
  const auto refs = ComputeReferences();
  Deployment d = Deploy(*config.workload, tracer);
  Engine& engine = *d.engine;
  out.metrics.Set("setup_s", d.setup_s);
  out.metrics.Set("graph.generate_s", d.generate_s);

  // Warm-up pass: builds the prepared graphs (lazy set-up) and is checked
  // like every other pass, but not timed into any metric.
  const bool tracing = tracer.enabled();
  tracer.set_enabled(false);
  Outcome warmup;
  RunPasses(engine, 0, refs, tracer, warmup);
  if (!warmup.correct || warmup.queries.failed > 0) {
    out.correct = warmup.correct;
    out.mismatch = warmup.correct ? "warm-up run failed" : warmup.mismatch;
    out.queries = warmup.queries;
    return out;
  }

  ResetPeakRss();
  // A traced run measures an untraced half first, so the traced half's
  // overhead has a base on the same engine.
  PassLog untraced = RunPasses(
      engine, tracing ? config.seconds / 2 : config.seconds, refs, tracer,
      out);
  PassLog log = untraced;
  if (tracing) {
    tracer.set_enabled(true);
    log = RunPasses(engine, config.seconds / 2, refs, tracer, out);
  }
  out.metrics.Set("rss_mb", PeakRssMb());

  MetricSheet& m = out.metrics;
  m.Set("pass_s", Median(untraced.pass_s));
  m.Set("sim_gpu_ms", Median(untraced.pass_sim_ms));
  m.Set("latency_p50_ms", Quantile(untraced.run_ms, 0.50));
  m.Set("latency_p99_ms", Quantile(untraced.run_ms, 0.99));
  m.Set("cpu_ms_per_query", Median(untraced.cpu_ms_per_query));
  m.Set("goodput_qps", untraced.run_wall_s > 0
                           ? static_cast<double>(untraced.run_ms.size()) /
                                 untraced.run_wall_s
                           : 0.0);
  if (!tracing) return out;

  for (AlgorithmId algorithm : kPassOrder) {
    const std::string name = AlgoKey(algorithm);
    m.Set("core.run_ms." + name, Median(log.run_ms_by_algo[algorithm]));
    m.Set("core.iterations." + name,
          Median(log.iterations_by_algo[algorithm]));
  }
  const auto& pr_iterations = log.iterations_by_algo[AlgorithmId::kPageRank];
  m.Set("core.iterations.pr_iqr", Quantile(pr_iterations, 0.75) -
                                      Quantile(pr_iterations, 0.25));
  SetTraceMetrics(log.totals, m);
  double kernel_edges = 0;
  for (const TraceTotals& t : log.totals) kernel_edges += t.kernel_edges;
  m.Set("engine.edges_per_s",
        log.run_wall_s > 0 ? kernel_edges / log.run_wall_s : 0.0);
  m.Set("harness.trace_overhead_base", Median(untraced.pass_s) * 1e3);
  m.Set("harness.trace_overhead",
        Median(log.pass_s) / std::max(1e-12, Median(untraced.pass_s)));
  ProbeEngineLayers(engine, tracer, m);
  return out;
}

}  // namespace hytbench

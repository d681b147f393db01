// Parallel partition execution: worker-lane scaling sweep. Runs all six
// algorithms at 1/2/4/8 solver lanes (SolverOptions::num_workers) over one
// RMAT graph in the hybrid oversubscribed regime and reports wall-clock
// per sweep, speedup over the one-lane run, and total simulated time.
// Not a paper reproduction — the paper executes partitions on one GPU;
// the lanes parallelize the host-side reenactment across partitions.
//
// Hard assertions (nonzero exit on violation):
//   * cross-worker value identity: every algorithm's values at 2/4/8
//     lanes equal the num_workers=1 run — bitwise for the u32
//     value-selection family, accumulation tolerance for f64 PR/PHP;
//   * an explicit num_workers=1 run must reproduce the engine's
//     default-options run (also one lane) in simulated time bit for bit.
//     The pair runs on a thread marked as a pool worker, so its kernels
//     run serially and the two runs repeat each other exactly; two
//     pool-sharded runs of one query differ in per-iteration counts, and
//     with them in simulated time;
//   * on hardware with >= 8 threads, the 8-lane sweep must finish in
//     <= half the 1-lane wall clock. On smaller hosts (CI runners, this
//     container) the threshold is reported but not enforced — wall
//     scaling there measures the scheduler, not the lanes.
//
// Emits BENCH_parallel.json. Smoke mode: HYT_BENCH_SCALE_DELTA shrinks
// the RMAT scale.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "graph/rmat_generator.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace hytgraph;

namespace {

constexpr int kWorkerCounts[] = {1, 2, 4, 8};
constexpr int kRepeats = 3;  // wall-clock averaging

struct SweepRow {
  int workers = 0;
  double wall_seconds = 0;   // all six algorithms x kRepeats
  double speedup = 0;        // vs the 1-worker sweep
  double sim_seconds = 0;    // total simulated time of one pass
  double lane_utilization = 0;
  bool values_identical = true;
};

bool ValuesMatch(const QueryResult& got, const QueryResult& want,
                 const char* label) {
  if (got.is_f64()) {
    const auto& g = got.f64();
    const auto& w = want.f64();
    HYT_CHECK(g.size() == w.size());
    double max_ref = 1e-12;
    for (double v : w) max_ref = std::max(max_ref, std::abs(v));
    for (size_t v = 0; v < g.size(); ++v) {
      if (std::abs(g[v] - w[v]) > 1e-3 * max_ref) {
        std::fprintf(stderr, "%s: f64 value diverged at vertex %zu "
                     "(%.12g vs %.12g)\n", label, v, g[v], w[v]);
        return false;
      }
    }
    return true;
  }
  if (got.u32() != want.u32()) {
    std::fprintf(stderr, "%s: u32 values diverged from the 1-worker run\n",
                 label);
    return false;
  }
  return true;
}

void WriteJson(const std::vector<SweepRow>& rows, unsigned hw_threads,
               bool speedup_enforced) {
  FILE* out = std::fopen("BENCH_parallel.json", "w");
  HYT_CHECK(out != nullptr) << "cannot write BENCH_parallel.json";
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    std::fprintf(out,
                 "  {\"workers\": %d, \"wall_seconds\": %.6f, "
                 "\"speedup\": %.4f, \"sim_seconds\": %.9f, "
                 "\"lane_utilization\": %.4f, \"values_identical\": %s, "
                 "\"hw_threads\": %u, \"speedup_enforced\": %s}%s\n",
                 row.workers, row.wall_seconds, row.speedup, row.sim_seconds,
                 row.lane_utilization, row.values_identical ? "true" : "false",
                 hw_threads, speedup_enforced ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace

int main() {
  bench::PrintHeader("Parallel partition execution: worker-lane scaling",
                     "per-partition solver lanes (beyond the paper)");

  RmatOptions gen;
  gen.scale = 18 - std::min<uint32_t>(bench::ScaleDelta(), 8);  // floor: 10
  gen.edge_factor = 16;
  gen.seed = 42;
  auto generated = GenerateRmat(gen);
  HYT_CHECK(generated.ok()) << generated.status().ToString();
  const CsrGraph base = std::move(generated).value();
  const uint64_t edge_bytes = base.EdgeDataBytes();

  SolverOptions options = SolverOptions::Defaults(SystemKind::kHyTGraph);
  options.device_memory_override = edge_bytes / 2;  // hybrid mix engages
  // ~64 partitions even at smoke scale, so 8 lanes own real ranges.
  options.partition_bytes = std::max<uint64_t>(edge_bytes / 64, 4 << 10);
  Engine engine(base, options);

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("RMAT scale %u: %u vertices, %llu edges; %u hardware "
              "thread(s); %d repeats per sweep\n\n",
              gen.scale, base.num_vertices(),
              static_cast<unsigned long long>(base.num_edges()), hw_threads,
              kRepeats);

  std::vector<Query> queries;
  for (AlgorithmId algorithm : kAllAlgorithms) {
    Query query;
    query.algorithm = algorithm;
    if (GetAlgorithmInfo(algorithm).needs_source) query.source = 1;
    queries.push_back(query);
  }

  // The one-lane reference pass, and the sim-identity check: running
  // with explicit num_workers=1 must reproduce the default-options run.
  // Serial kernels (a thread marked as a pool worker) make the pair
  // repeatable, so the comparison can stay bit for bit.
  std::map<AlgorithmId, QueryResult> reference;
  bool ok = true;
  std::thread serial([&] {
    ThreadPool::MarkWorkerThread();
    for (const Query& query : queries) {
      auto default_run = engine.Run(query);
      HYT_CHECK(default_run.ok()) << default_run.status().ToString();
      SolverOptions w1 = options;
      w1.num_workers = 1;
      auto explicit_run = engine.Run(query, w1);
      HYT_CHECK(explicit_run.ok()) << explicit_run.status().ToString();
      if (explicit_run->trace.total_sim_seconds !=
          default_run->trace.total_sim_seconds) {
        std::fprintf(stderr,
                     "%s: num_workers=1 sim time %.12g != default-path "
                     "%.12g\n",
                     AlgorithmName(query.algorithm),
                     explicit_run->trace.total_sim_seconds,
                     default_run->trace.total_sim_seconds);
        ok = false;
      }
      reference.emplace(query.algorithm, std::move(explicit_run).value());
    }
  });
  serial.join();

  std::vector<SweepRow> rows;
  for (int workers : kWorkerCounts) {
    SolverOptions sweep = options;
    sweep.num_workers = workers;
    SweepRow row;
    row.workers = workers;

    WallTimer timer;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      for (const Query& query : queries) {
        auto result = engine.Run(query, sweep);
        HYT_CHECK(result.ok()) << result.status().ToString();
        if (repeat == 0) {
          row.sim_seconds += result->trace.total_sim_seconds;
          row.lane_utilization =
              std::max(row.lane_utilization, result->trace.LaneUtilization());
          const std::string label = std::string(
              AlgorithmName(query.algorithm)) + " @" +
              std::to_string(workers) + " workers";
          if (!ValuesMatch(*result, reference.at(query.algorithm),
                           label.c_str())) {
            row.values_identical = false;
            ok = false;
          }
        }
      }
    }
    row.wall_seconds = timer.Seconds();
    rows.push_back(row);
  }
  for (SweepRow& row : rows) {
    row.speedup = row.wall_seconds > 0
                      ? rows.front().wall_seconds / row.wall_seconds
                      : 0;
  }

  TablePrinter table({"workers", "wall s", "speedup", "sim ms",
                      "lane util", "values"});
  for (const SweepRow& row : rows) {
    table.AddRow({std::to_string(row.workers),
                  FormatDouble(row.wall_seconds, 3),
                  FormatDouble(row.speedup, 2),
                  FormatDouble(row.sim_seconds * 1e3, 3),
                  FormatDouble(row.lane_utilization, 3),
                  row.values_identical ? "identical" : "DIVERGED"});
  }
  table.Print();

  // The >= 2x wall-clock gate only means something with the hardware to
  // run 8 lanes: below 8 threads the sweep measures time-slicing.
  const bool speedup_enforced = hw_threads >= 8;
  const double speedup8 = rows.back().speedup;
  if (speedup_enforced) {
    if (speedup8 < 2.0) {
      std::fprintf(stderr, "8-lane speedup %.2fx < required 2x on %u "
                   "hardware threads\n", speedup8, hw_threads);
      ok = false;
    } else {
      std::printf("\n8-lane speedup %.2fx (>= 2x required): yes\n", speedup8);
    }
  } else {
    std::printf("\n8-lane speedup %.2fx (2x gate skipped: only %u hardware "
                "thread(s))\n", speedup8, hw_threads);
  }
  std::printf("cross-worker values identical and num_workers=1 sim time "
              "matches the default-options run: %s\n", ok ? "yes" : "NO");

  WriteJson(rows, hw_threads, speedup_enforced);
  std::printf("BENCH_parallel.json written\n");
  return ok ? 0 : 1;
}

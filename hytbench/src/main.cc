// hytbench: the repository benchmark. Runs one workload against the public
// Engine / QueryServer API, checks the outputs, and prints the metrics.
//
//   hytbench --workload NAME --seed N --seconds S --trace 0|1
//            [--revision REV] [--span-file PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: spans are kept in memory around every public
// call the benchmark makes, written to --span-file at the end, and the
// per-layer metrics are reported. The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 on a correctness mismatch, 2 on bad arguments.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef HYTBENCH_BUILD_TYPE
#define HYTBENCH_BUILD_TYPE "unknown"
#endif

namespace hytbench {
namespace {

struct Args {
  RunConfig config;
  std::string revision = "unknown";
  std::string span_file;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hytbench: %s\nusage: hytbench --workload {%s} --seed N "
               "--seconds S --trace 0|1 [--revision REV] [--span-file PATH]\n",
               why, WorkloadNames().c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.config.workload = FindWorkload(value);
      if (args.config.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      args.config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.config.seconds = std::atof(value.c_str());
      if (!(args.config.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.config.trace = value == "1";
    } else if (flag == "--revision") {
      args.revision = value;
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.config.workload == nullptr) Usage("--workload is required");
  return args;
}

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void PrintMeta(const Args& args) {
  const WorkloadSpec& w = *args.config.workload;
  const hytgraph::DatasetSpec spec = BenchSpec();
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host\": \"%s\", \"nproc\": %d, "
      "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"revision\": \"%s\", \"dataset\": \"%s\", \"scale\": %u, "
      "\"edge_factor\": %u, \"offered_qps\": %s, \"burst\": %d, "
      "\"hot_sources\": %d, \"latency_limit_ms\": %s, "
      "\"batch_edges\": %d, \"batches_per_s\": %s, "
      "\"ooc_budget_fraction\": %s, \"setup_repeats\": %d, "
      "\"host_calibration_ms\": %s}\n",
      w.name, static_cast<unsigned long long>(args.config.seed),
      JsonNumber(args.config.seconds).c_str(), args.config.trace ? 1 : 0,
      JsonEscape(host).c_str(), UsableCpus(),
      std::thread::hardware_concurrency(), HYTBENCH_BUILD_TYPE,
      JsonEscape(args.revision).c_str(), spec.name.c_str(), spec.scale,
      spec.edge_factor, JsonNumber(w.offered_qps).c_str(), w.burst,
      w.hot_sources, JsonNumber(w.latency_limit_ms).c_str(), w.batch_edges,
      JsonNumber(w.batches_per_s).c_str(),
      JsonNumber(w.out_of_core ? kOocBudgetFraction : 0).c_str(),
      kSetupRepeats, JsonNumber(HostCalibrationMs()).c_str());
}

void PrintCounts(const char* phase, const PhaseCounts& c) {
  std::printf("%-9s sent %llu  succeeded %llu  failed %llu  shed %llu  "
              "rejected %llu\n",
              phase, static_cast<unsigned long long>(c.sent),
              static_cast<unsigned long long>(c.succeeded),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.rejected));
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Now();  // start the run clock
  PrintMeta(args);
  std::fflush(stdout);

  const CpuTicks start_ticks = ReadCpuTicks();
  Tracer tracer;
  tracer.set_enabled(args.config.trace);
  Outcome out = args.config.workload->serving
                    ? RunServing(args.config, tracer)
                    : RunAnalytics(args.config, tracer);

  const uint64_t attempted = out.queries.sent + out.mutations.sent;
  const uint64_t failed =
      out.queries.Unsuccessful() + out.mutations.Unsuccessful();
  out.metrics.Set("harness.failed_ratio",
                  attempted == 0 ? 1.0
                                 : static_cast<double>(failed) /
                                       static_cast<double>(attempted));
  if (args.config.trace) {
    for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
      out.metrics.Set(layer + ".self_s", seconds);
    }
    if (!args.span_file.empty() && !tracer.WriteJsonLines(args.span_file)) {
      std::fprintf(stderr, "hytbench: cannot write %s\n",
                   args.span_file.c_str());
    }
  }

  const double steal = StealShare(start_ticks, ReadCpuTicks());
  out.metrics.Set("harness.steal_share", steal);
  std::printf(
      "meta_end {\"host_calibration_ms\": %s, \"steal_share\": %s, "
      "\"wall_s\": %s}\n",
      JsonNumber(HostCalibrationMs()).c_str(), JsonNumber(steal).c_str(),
      JsonNumber(Now()).c_str());
  PrintCounts("queries", out.queries);
  if (args.config.workload->ingest) PrintCounts("mutations", out.mutations);
  if (!out.correct) {
    std::printf("CORRECTNESS MISMATCH: %s\n", out.mismatch.c_str());
  }
  if (args.config.trace) {
    std::printf("spans recorded: %zu\n", tracer.size());
  }

  const auto& defs =
      args.config.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json;
  for (const MetricDef& def : defs) {
    const double value = out.metrics.Get(def.name);
    std::printf("  %-32s %16.6g %-6s %s%s\n", def.name, value, def.unit,
                def.maps_to[0] != '\0' ? "-> " : "", def.maps_to);
    if (!json.empty()) json += ", ";
    json += "\"" + std::string(def.name) + "\": {\"value\": " +
            JsonNumber(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace hytbench

int main(int argc, char** argv) { return hytbench::Main(argc, argv); }

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>
#include <string_view>
#include <thread>

namespace hytbench {

namespace {

const Clock::time_point& RunEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// Reads one "<key>: <n> kB" line of /proc/self/status.
double ProcStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string_view wanted(key);
  while (std::getline(in, line)) {
    if (line.compare(0, wanted.size(), wanted) == 0) {
      return std::atof(line.c_str() + wanted.size() + 1);
    }
  }
  return 0;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(Clock::now() - RunEpoch()).count();
}

void SleepUntil(double t) {
  const auto when =
      RunEpoch() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(t));
  std::this_thread::sleep_until(when);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double HostCalibrationMs() {
  const double start = Now();
  uint64_t x = 88172645463325252ull;
  uint64_t sum = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += x & 0xff;
  }
  std::vector<uint64_t> from(8 << 20, sum), to(8 << 20);
  for (int i = 0; i < 4; ++i) {
    std::memcpy(to.data(), from.data(), from.size() * sizeof(uint64_t));
    from[static_cast<size_t>(i)] = to[static_cast<size_t>(i) + 1];
  }
  volatile uint64_t sink = to[7];
  (void)sink;
  return (Now() - start) * 1e3;
}

CpuTicks ReadCpuTicks() {
  // cpu user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& since, const CpuTicks& now) {
  const double total = now.total - since.total;
  return total > 0 ? (now.steal - since.steal) / total : 0.0;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() { return ProcStatusKb("VmHWM:") / 1024.0; }

int64_t Tracer::Add(std::string name, double start, double end,
                    int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

int64_t Tracer::Open(std::string name, double start, uint64_t request) {
  return Add(std::move(name), start, start, -1, request);
}

void Tracer::Close(int64_t id, double end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back(
          {span.start, span.end});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = span.start;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += std::max(0.0, span.end - span.start - covered);
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %lld, \"request\": %llu}\n",
                 i, JsonEscape(span.name).c_str(), span.start, span.end,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(out) == 0;
}

double MetricSheet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", ""},
      {"sim_gpu_ms", "ms", ""},
      {"rss_mb", "MB", ""},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      // Time outcomes, measured on the untraced half. Wall times follow the
      // host's CPU steal (harness.steal_share) and CPU time differs by up to
      // 40% between processes, so they carry no bound.
      {"cpu_ms_per_query", "ms", "work outcome; bimodal between processes"},
      {"pass_s", "s", "wall-time outcome; follows harness.steal_share"},
      {"latency_p50_ms", "ms", "wall-time outcome; follows harness.steal_share"},
      {"latency_p99_ms", "ms", "wall-time outcome; follows harness.steal_share"},
      {"goodput_qps", "1/s", "wall-time outcome; follows harness.steal_share"},
      {"graph.generate_s", "s", "setup_s (all)"},
      {"graph.hub_sort_ms", "ms", "cpu_ms_per_query, latency_p99_ms (serve_ingest)"},
      {"graph.self_s", "s", "setup_s (all)"},
      {"core.run_ms.bfs", "ms", "cpu_ms_per_query, pass_s (analytics*)"},
      {"core.run_ms.sssp", "ms", "cpu_ms_per_query, pass_s (analytics*)"},
      {"core.run_ms.cc", "ms", "cpu_ms_per_query, pass_s (analytics*)"},
      {"core.run_ms.pr", "ms", "cpu_ms_per_query, pass_s (analytics*)"},
      {"core.run_ms.php", "ms", "cpu_ms_per_query, pass_s (analytics*)"},
      {"core.run_ms.sswp", "ms", "cpu_ms_per_query, pass_s (analytics*)"},
      {"core.prepare_miss_ms", "ms", "cpu_ms_per_query, latency_p99_ms (serve_ingest)"},
      {"core.iterations.bfs", "count", "cpu_ms_per_query, sim_gpu_ms"},
      {"core.iterations.sssp", "count", "cpu_ms_per_query, sim_gpu_ms"},
      {"core.iterations.cc", "count", "cpu_ms_per_query, sim_gpu_ms"},
      {"core.iterations.pr", "count", "cpu_ms_per_query, sim_gpu_ms"},
      {"core.iterations.pr_iqr", "count", "cpu_ms_per_query, sim_gpu_ms"},
      {"core.iterations.php", "count", "cpu_ms_per_query, sim_gpu_ms"},
      {"core.iterations.sswp", "count", "cpu_ms_per_query, sim_gpu_ms"},
      {"core.cache.hit_ratio", "ratio", "cpu_ms_per_query, latency_p50_ms (serve_ingest)"},
      {"core.cache.invalidated", "count", "cpu_ms_per_query, latency_p50_ms (serve_ingest)"},
      {"core.self_s", "s", "cpu_ms_per_query, pass_s (analytics*)"},
      {"engine.kernel_edges", "edges", "cpu_ms_per_query, pass_s"},
      {"engine.edges_per_s", "1/s", "cpu_ms_per_query, pass_s"},
      {"engine.pull_iterations", "count", "cpu_ms_per_query, pass_s"},
      {"sim.transfer_bytes.explicit", "bytes", "sim_gpu_ms"},
      {"sim.transfer_bytes.zero_copy", "bytes", "sim_gpu_ms"},
      {"sim.transfer_bytes.um", "bytes", "sim_gpu_ms"},
      {"sim.partitions.filter", "count", "sim_gpu_ms"},
      {"sim.partitions.compaction", "count", "sim_gpu_ms"},
      {"sim.partitions.zero_copy", "count", "sim_gpu_ms"},
      {"sim.busy_s.transfer", "s", "sim_gpu_ms"},
      {"sim.busy_s.kernel", "s", "sim_gpu_ms"},
      {"sim.busy_s.compaction", "s", "sim_gpu_ms"},
      {"sim.compaction_measured_s", "s", "cpu_ms_per_query, pass_s"},
      {"serving.submit_us", "us", "latency_p50_ms (serve_*)"},
      {"serving.fusion_ratio", "ratio", "cpu_ms_per_query, goodput_qps (serve_hot)"},
      {"serving.batch_size", "count", "cpu_ms_per_query, goodput_qps (serve_hot)"},
      {"serving.queue_depth_high_water", "count",
       "latency_p99_ms, failed count (serve_*)"},
      {"serving.shed", "count", "latency_p99_ms, failed count (serve_*)"},
      {"serving.rejected", "count", "latency_p99_ms, failed count (serve_*)"},
      {"serving.retried", "count", "latency_p99_ms, failed count (serve_*)"},
      {"serving.self_s", "s", "latency_p50_ms (serve_*)"},
      {"dynamic.submit_mutation_us", "us", "freshness (serve_ingest)"},
      {"dynamic.visible_ms_p50", "ms", "freshness (serve_ingest)"},
      {"dynamic.visible_ms_p99", "ms", "freshness (serve_ingest)"},
      {"dynamic.freshness_ms_p50", "ms", "end-to-end (serve_ingest)"},
      {"dynamic.freshness_ms_p99", "ms", "end-to-end (serve_ingest)"},
      {"dynamic.incremental_ms.sssp", "ms", "freshness (serve_ingest)"},
      {"dynamic.incremental_ms.cc", "ms", "freshness (serve_ingest)"},
      {"dynamic.incremental_fallbacks", "count",
       "freshness_ms_p99 (serve_ingest)"},
      {"dynamic.overlay_depth", "count", "cpu_ms_per_query, latency_* (serve_ingest)"},
      {"dynamic.pending_delta_edges", "edges", "cpu_ms_per_query, latency_* (serve_ingest)"},
      {"dynamic.folds", "count", "cpu_ms_per_query, latency_p99_ms (serve_ingest)"},
      {"dynamic.fold_s", "s", "cpu_ms_per_query, latency_p99_ms (serve_ingest)"},
      {"dynamic.self_s", "s", "freshness (serve_ingest)"},
      {"storage.hit_ratio", "ratio", "cpu_ms_per_query, rss_mb (analytics_ooc)"},
      {"storage.bytes_read", "bytes", "cpu_ms_per_query, rss_mb (analytics_ooc)"},
      {"storage.evictions", "count", "cpu_ms_per_query, rss_mb (analytics_ooc)"},
      {"storage.prefetch_accuracy", "ratio", "cpu_ms_per_query (analytics_ooc)"},
      {"storage.read_retries", "count", "cpu_ms_per_query (analytics_ooc)"},
      {"storage.fetch_failures", "count", "failed count (analytics_ooc)"},
      {"util.health_degraded", "count", "failed count (all)"},
      {"harness.generator_lag_ms_p99", "ms", "validity of latency_* (serve_*)"},
      {"harness.steal_share", "ratio", "validity of every wall time"},
      {"harness.trace_overhead", "ratio", "headline traced / untraced"},
      {"harness.trace_overhead_base", "ms", "untraced headline"},
      {"harness.failed_ratio", "ratio", "failed count (all)"},
      {"harness.self_s", "s", "time outside the library's public calls"},
  };
  return kMetrics;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace hytbench

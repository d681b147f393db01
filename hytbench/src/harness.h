// Benchmark harness: the run clock, an in-memory span recorder, quantile
// helpers, process memory probes, and the metric sheet every workload
// fills in. Nothing here calls into the library; workloads time the
// library's public calls from outside and record what they saw.

#ifndef HYTBENCH_HARNESS_H_
#define HYTBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hytbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process-wide run epoch (first call).
double Now();

/// Sleeps until `Now()` reaches `t` (returns at once when already past).
void SleepUntil(double t);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// CPU seconds consumed so far by all threads of this process. Unlike wall
/// time it does not grow when the hypervisor hands the CPUs to another
/// guest (steal), so it measures the program's work on a shared host.
double ProcessCpuSeconds();

/// Wall milliseconds of a fixed single-threaded workload (integer
/// arithmetic plus 256 MiB of memory copies). Printed at the start and end
/// of every run as a host-speed reference, so a slower machine shows apart
/// from a slower program.
double HostCalibrationMs();

/// CPU time the hypervisor gave to other guests (steal) as a share of all
/// CPU time since `since`, from /proc/stat; pass the previous reading's
/// ticks. A run with a high share measured a starved host.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& since, const CpuTicks& now);

/// Peak resident set size since the last ResetPeakRss(), in MiB. Reads
/// VmHWM from /proc/self/status; ResetPeakRss rewinds it to the current
/// RSS through /proc/self/clear_refs.
void ResetPeakRss();
double PeakRssMb();

/// In-memory span recorder. A span has a name ("<layer>.<what>"), start
/// and end on the run clock, the id of the span that caused it (-1 for a
/// root) and the request it belongs to. Disabled recorders cost one
/// branch per call. Thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (-1 when disabled).
  int64_t Add(std::string name, double start, double end,
              int64_t parent = -1, uint64_t request = 0);

  /// Reserves an id for a span whose end is not known yet (a root whose
  /// children are recorded first); Close fills it in.
  int64_t Open(std::string name, double start, uint64_t request = 0);
  void Close(int64_t id, double end);

  /// Self seconds per layer: each span's duration minus the part of it
  /// its children cover, summed by the name's prefix before the first '.'.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn()` as a span when tracing, and returns its wall seconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, Fn&& fn, int64_t parent = -1,
             uint64_t request = 0) {
  const double start = Now();
  fn();
  const double end = Now();
  if (tracer.enabled()) tracer.Add(name, start, end, parent, request);
  return end - start;
}

/// One metric the benchmark may report.
struct MetricDef {
  const char* name;
  const char* unit;
  /// For per-layer metrics: the end-to-end metric (and workloads) it is
  /// predicted to move. Empty for end-to-end metrics.
  const char* maps_to;
};

/// The end-to-end metrics, reported by every untraced run.
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics, reported by every traced run.
const std::vector<MetricDef>& PerLayerMetrics();

/// Values the workload measured, keyed by metric name. Metrics a workload
/// leaves unset read 0: that layer did no work there.
class MetricSheet {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Outcome counts of one phase (queries, mutation batches, or runs).
struct PhaseCounts {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;    // resolved with an error, or a wrong value
  uint64_t shed = 0;      // shed by the server (deadline or overload)
  uint64_t rejected = 0;  // refused at admission
  uint64_t Unsuccessful() const { return failed + shed + rejected; }
};

/// Escapes `text` for a JSON string literal.
std::string JsonEscape(const std::string& text);

/// Formats `value` with all its significant digits.
std::string JsonNumber(double value);

}  // namespace hytbench

#endif  // HYTBENCH_HARNESS_H_

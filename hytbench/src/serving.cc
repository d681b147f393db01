// serve_hot / serve_ingest: an open-loop generator sends bursts of
// BFS/SSSP/SSWP/CC requests into a QueryServer at Poisson instants; a
// completion observer polls the futures and checks each result. In
// serve_ingest a writer also sends mutation batches at a fixed rate
// through QueryServer::SubmitMutation, and a subscriber keeps standing
// SSSP and CC results current with Engine::RunIncremental.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/degree_stats.h"
#include "workloads.h"

namespace hytbench {

using namespace hytgraph;

namespace {

constexpr AlgorithmId kServingMix[] = {
    AlgorithmId::kBfs, AlgorithmId::kSssp, AlgorithmId::kSswp,
    AlgorithmId::kCc,
};
// Slack of pre-sampled deletions over the writer's nominal need.
constexpr double kDeletionSlack = 1.25;

struct Burst {
  double at = 0;  // offset from the phase start, seconds
  std::vector<Query> queries;
};

// The phase's request schedule: bursts at Poisson instants, algorithms
// uniform over the mix, sources Zipf-skewed over `hot` or uniform. The
// Poisson process is conditioned on its expected count (sorted uniform
// instants), so every run offers exactly the nominal rate.
std::vector<Burst> MakeSchedule(const WorkloadSpec& w, double seconds,
                                const std::vector<VertexId>& hot,
                                VertexId num_vertices, std::mt19937_64& rng) {
  const auto bursts = static_cast<size_t>(
      std::lround(w.offered_qps * seconds / w.burst));
  std::uniform_real_distribution<double> instant(0, seconds);
  std::vector<double> instants;
  for (size_t b = 0; b < bursts; ++b) instants.push_back(instant(rng));
  std::sort(instants.begin(), instants.end());
  std::uniform_int_distribution<size_t> algo(0, std::size(kServingMix) - 1);
  std::uniform_int_distribution<VertexId> uniform(0, num_vertices - 1);
  std::vector<double> zipf;
  for (size_t r = 0; r < hot.size(); ++r) zipf.push_back(1.0 / (r + 1.0));
  std::discrete_distribution<size_t> skewed(zipf.begin(), zipf.end());

  std::vector<Burst> schedule;
  for (double t : instants) {
    Burst burst{.at = t, .queries = {}};
    for (int i = 0; i < w.burst; ++i) {
      Query q = QueryFor(kServingMix[algo(rng)]);
      if (q.algorithm != AlgorithmId::kCc) {
        q.source = hot.empty() ? uniform(rng) : hot[skewed(rng)];
      }
      burst.queries.push_back(q);
    }
    schedule.push_back(std::move(burst));
  }
  return schedule;
}

// `count` distinct existing edges (src, dst), sampled uniformly.
std::vector<std::pair<VertexId, VertexId>> SampleEdges(const CsrGraph& graph,
                                                       size_t count,
                                                       uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<EdgeId> pick(0, graph.num_edges() - 1);
  const auto& offsets = graph.row_offsets();
  std::set<std::pair<VertexId, VertexId>> seen;
  std::vector<std::pair<VertexId, VertexId>> edges;
  while (edges.size() < count) {
    const EdgeId e = pick(rng);
    const auto row = std::upper_bound(offsets.begin(), offsets.end(), e);
    const auto src = static_cast<VertexId>(row - offsets.begin() - 1);
    const VertexId dst = graph.column_index()[e];
    if (seen.insert({src, dst}).second) edges.push_back({src, dst});
  }
  return edges;
}

struct Pending {
  uint64_t id = 0;
  size_t burst = 0;
  double scheduled = 0;
  double submitted = 0;  // when Submit returned
  Query query;
  int64_t span = -1;
  std::future<Result<QueryResult>> future;
};

// What one measured phase saw.
struct PhaseLog {
  PhaseCounts queries;    // served requests
  PhaseCounts standing;   // the subscriber's RunIncremental calls
  PhaseCounts mutations;
  uint64_t good = 0;  // succeeded within the latency limit
  double start = 0;      // the phase's first scheduled send
  double last_seen = 0;  // the last request seen resolved
  double cpu_s = 0;      // process CPU time of the whole phase
  std::vector<double> latency_ms;
  std::vector<double> burst_s;
  std::vector<double> sim_ms;
  std::vector<TraceTotals> totals;
  std::map<AlgorithmId, std::vector<double>> iterations;
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  std::vector<double> submit_mutation_us;
  std::vector<double> visible_ms;
  std::vector<double> fresh_ms;
  std::map<AlgorithmId, std::vector<double>> incremental_ms;
  uint64_t incremental_fallbacks = 0;
  std::vector<double> overlay_depth;
  std::vector<double> pending_delta;
  std::string mismatch;
};

class ServingRun {
 public:
  ServingRun(const RunConfig& config, Tracer& tracer)
      : config_(config), w_(*config.workload), tracer_(tracer),
        rng_(config.seed) {}

  Outcome Run();

 private:
  PhaseLog RunPhase(double seconds);
  void Generate(const std::vector<Burst>& schedule, double start,
                PhaseLog& log);
  void Observe(PhaseLog& log);
  void Write(std::vector<MutationBatch> batches, double start,
             PhaseLog& log);
  void Subscribe(PhaseLog& log);
  // Empty when `result` is right for `query`; otherwise what is wrong.
  std::string Check(const Query& query, const QueryResult& result) const;
  MutationBatch NextBatch();
  void Finish(const PhaseLog& log, double seconds, bool per_layer,
              Outcome& out);

  const RunConfig& config_;
  const WorkloadSpec& w_;
  Tracer& tracer_;
  std::mt19937_64 rng_;
  Deployment d_;
  VertexId num_vertices_ = 0;
  std::vector<VertexId> hot_;
  // serve_hot: isolated Engine::Run values per (algorithm, source).
  std::map<std::pair<AlgorithmId, VertexId>, QueryValues> refs_;

  // Generator -> observer hand-off.
  std::mutex inbox_mu_;
  std::vector<Pending> inbox_;
  bool generator_done_ = false;
  std::vector<int> burst_left_;
  std::vector<double> burst_end_;
  uint64_t next_request_ = 0;

  // Writer state: pre-sampled deletions, batch send times by index.
  std::vector<std::pair<VertexId, VertexId>> deletions_;
  size_t next_deletion_ = 0;
  std::mutex batches_mu_;
  std::vector<double> batch_scheduled_;  // index k -> epoch k + 1
  std::atomic<bool> writer_done_{false};
  size_t visible_through_ = 0;  // batches seen applied, subscriber-owned
  size_t fresh_through_ = 0;    // batches the standing results cover
  Query standing_sssp_query_;
  QueryResult standing_sssp_;
  QueryResult standing_cc_;
};

Outcome ServingRun::Run() {
  Outcome out;
  const double writes =
      w_.ingest ? w_.batches_per_s * config_.seconds * kDeletionSlack + 4 : 0;
  const size_t need =
      static_cast<size_t>(writes) * static_cast<size_t>(w_.batch_edges / 2);
  d_ = Deploy(w_, tracer_, [&](const CsrGraph& graph) {
    if (need > 0) deletions_ = SampleEdges(graph, need, config_.seed);
    if (w_.hot_sources > 0) {
      hot_ = TopOutDegreeVertices(graph,
                                  static_cast<size_t>(w_.hot_sources));
    }
  });
  Engine& engine = *d_.engine;
  num_vertices_ = engine.graph().num_vertices();
  out.metrics.Set("setup_s", d_.setup_s);
  out.metrics.Set("graph.generate_s", d_.generate_s);

  // Warm-up, untimed: references (serve_hot) and standing results
  // (serve_ingest) through direct Engine::Run calls, filling the cache.
  auto must_run = [&](const Query& q) {
    auto result = engine.Run(q);
    if (!result.ok()) {
      ++out.queries.sent;
      ++out.queries.failed;
      out.correct = false;
      out.mismatch = "warm-up run failed: " + result.status().ToString();
    }
    return result.ok() ? std::move(result).value() : QueryResult{};
  };
  for (VertexId source : hot_) {
    for (AlgorithmId algorithm : kServingMix) {
      if (algorithm == AlgorithmId::kCc) continue;
      refs_[{algorithm, source}] =
          must_run(QueryFor(algorithm, source)).values;
    }
  }
  if (!w_.ingest) {
    refs_[{AlgorithmId::kCc, kInvalidVertex}] =
        must_run(QueryFor(AlgorithmId::kCc)).values;
  } else {
    standing_sssp_query_ =
        QueryFor(AlgorithmId::kSssp, engine.DefaultSource());
    standing_sssp_ = must_run(standing_sssp_query_);
    standing_cc_ = must_run(QueryFor(AlgorithmId::kCc));
  }
  if (!out.correct) return out;

  ResetPeakRss();
  const bool tracing = tracer_.enabled();
  tracer_.set_enabled(false);
  const double untraced_s = tracing ? config_.seconds / 2 : config_.seconds;
  const PhaseLog untraced = RunPhase(untraced_s);
  Finish(untraced, untraced_s, false, out);
  if (tracing) {
    tracer_.set_enabled(true);
    const PhaseLog traced = RunPhase(config_.seconds / 2);
    Finish(traced, config_.seconds / 2, true, out);
    out.metrics.Set("harness.trace_overhead_base",
                    Median(untraced.latency_ms));
    out.metrics.Set("harness.trace_overhead",
                    Median(traced.latency_ms) /
                        std::max(1e-12, Median(untraced.latency_ms)));
  }
  out.metrics.Set("rss_mb", PeakRssMb());

  d_.server->Shutdown();
  engine.WaitForIngest();
  engine.WaitForCompaction();
  if (w_.ingest) {
    // Every admitted batch must have landed as one epoch, and the standing
    // results must equal a full run on the final epoch.
    const uint64_t admitted = batch_scheduled_.size();
    if (engine.epoch() != admitted) {
      out.mutations.failed += admitted > engine.epoch()
                                  ? admitted - engine.epoch()
                                  : 0;
    }
    for (const auto& [query, standing] :
         {std::pair{standing_sssp_query_, &standing_sssp_},
          std::pair{QueryFor(AlgorithmId::kCc), &standing_cc_}}) {
      auto full = engine.Run(query);
      std::string problem;
      if (!full.ok()) {
        problem = "final full run failed: " + full.status().ToString();
      } else if (standing->epoch != engine.epoch()) {
        problem = "standing result stuck at epoch " +
                  std::to_string(standing->epoch);
      } else if (standing->values != full->values) {
        problem = std::string("standing ") + AlgoKey(query.algorithm) +
                  " differs from a full run on the final epoch";
      }
      if (!problem.empty() && out.correct) {
        out.correct = false;
        out.mismatch = problem;
      }
    }
  }
  if (tracing) {
    const ServingStats stats = d_.server->stats();
    MetricSheet& m = out.metrics;
    m.Set("serving.fusion_ratio", stats.FusionRatio());
    m.Set("serving.batch_size",
          stats.dispatch_batches == 0
              ? 0.0
              : static_cast<double>(stats.completed + stats.failed) /
                    static_cast<double>(stats.dispatch_batches));
    m.Set("serving.queue_depth_high_water",
          static_cast<double>(stats.queue_depth_high_water));
    m.Set("serving.shed",
          static_cast<double>(stats.shed_deadline + stats.shed_overload));
    m.Set("serving.rejected", static_cast<double>(stats.rejected));
    m.Set("serving.retried", static_cast<double>(stats.retried));
    ProbeEngineLayers(engine, tracer_, m);
  }
  return out;
}

PhaseLog ServingRun::RunPhase(double seconds) {
  PhaseLog log;
  const std::vector<Burst> schedule =
      MakeSchedule(w_, seconds, hot_, num_vertices_, rng_);
  std::vector<MutationBatch> batches;
  if (w_.ingest) {
    const auto count =
        static_cast<size_t>(std::ceil(seconds * w_.batches_per_s));
    for (size_t i = 0; i < count; ++i) batches.push_back(NextBatch());
  }
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    generator_done_ = false;
    burst_left_.assign(schedule.size(), 0);
    burst_end_.assign(schedule.size(), 0);
    for (size_t b = 0; b < schedule.size(); ++b) {
      burst_left_[b] = static_cast<int>(schedule[b].queries.size());
    }
  }
  writer_done_ = false;
  // Give the helper threads a moment to start before the first send.
  const double start = Now() + 0.05;
  log.start = start;
  const double cpu = ProcessCpuSeconds();
  std::thread observer([&] { Observe(log); });
  std::thread writer;
  std::thread subscriber;
  if (w_.ingest) {
    writer = std::thread(
        [&] { Write(std::move(batches), start, log); });
    subscriber = std::thread([&] { Subscribe(log); });
  }
  Generate(schedule, start, log);
  observer.join();
  if (w_.ingest) {
    writer.join();
    subscriber.join();
  }
  log.cpu_s = ProcessCpuSeconds() - cpu;
  return log;
}

void ServingRun::Generate(const std::vector<Burst>& schedule, double start,
                          PhaseLog& log) {
  for (size_t b = 0; b < schedule.size(); ++b) {
    const double scheduled = start + schedule[b].at;
    SleepUntil(scheduled);
    log.lag_ms.push_back((Now() - scheduled) * 1e3);
    for (const Query& query : schedule[b].queries) {
      const uint64_t id = next_request_++;
      ++log.queries.sent;
      const double t0 = Now();
      auto submitted = d_.server->Submit({.query = query});
      const double t1 = Now();
      log.submit_us.push_back((t1 - t0) * 1e6);
      const int64_t root = tracer_.Open("harness.request", scheduled, id);
      tracer_.Add("serving.submit", t0, t1, root, id);
      std::lock_guard<std::mutex> lock(inbox_mu_);
      if (!submitted.ok()) {
        // Refused at admission: resolved (and missed the limit) at once.
        ++log.queries.rejected;
        tracer_.Close(root, t1);
        burst_end_[b] = std::max(burst_end_[b], t1);
        if (--burst_left_[b] == 0) log.burst_s.push_back(burst_end_[b] - scheduled);
        continue;
      }
      inbox_.push_back({.id = id,
                        .burst = b,
                        .scheduled = scheduled,
                        .submitted = t1,
                        .query = query,
                        .span = root,
                        .future = std::move(submitted).value()});
    }
  }
  std::lock_guard<std::mutex> lock(inbox_mu_);
  generator_done_ = true;
}

void ServingRun::Observe(PhaseLog& log) {
  std::vector<Pending> pending;
  std::vector<Pending> resolved;
  for (;;) {
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      for (Pending& p : inbox_) pending.push_back(std::move(p));
      inbox_.clear();
      done = generator_done_;
    }
    if (done && pending.empty()) return;
    resolved.clear();
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        resolved.push_back(std::move(pending[i]));
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
    const double seen = Now();
    if (!resolved.empty()) log.last_seen = seen;
    for (Pending& p : resolved) {
      Result<QueryResult> result = p.future.get();
      tracer_.Add("serving.in_flight", p.submitted, seen, p.span, p.id);
      tracer_.Close(p.span, seen);
      const double latency_ms = (seen - p.scheduled) * 1e3;
      if (!result.ok()) {
        if (result.status().IsDeadlineExceeded()) {
          ++log.queries.shed;
        } else {
          ++log.queries.failed;
        }
      } else if (std::string problem = Check(p.query, *result);
                 !problem.empty()) {
        ++log.queries.failed;
        if (log.mismatch.empty()) log.mismatch = problem;
      } else {
        ++log.queries.succeeded;
        log.latency_ms.push_back(latency_ms);
        if (latency_ms <= w_.latency_limit_ms) ++log.good;
        log.sim_ms.push_back(result->trace.total_sim_seconds * 1e3);
        TraceTotals totals;
        totals.Add(result->trace);
        log.totals.push_back(totals);
        log.iterations[p.query.algorithm].push_back(
            static_cast<double>(result->trace.NumIterations()));
      }
      std::lock_guard<std::mutex> lock(inbox_mu_);
      burst_end_[p.burst] = std::max(burst_end_[p.burst], seen);
      if (--burst_left_[p.burst] == 0) {
        log.burst_s.push_back(burst_end_[p.burst] - p.scheduled);
      }
    }
    // Poll period: bounds the observation error at 0.5 ms, well below
    // the latencies measured, without a wake-up storm on a starved host.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

std::string ServingRun::Check(const Query& query,
                              const QueryResult& result) const {
  const std::string name = AlgoKey(query.algorithm);
  if (!w_.ingest) {
    // Static epoch: served values equal an isolated Engine::Run.
    auto ref = refs_.find({query.algorithm, query.source});
    if (ref == refs_.end()) return name + ": no reference";
    if (result.values != ref->second) {
      return name + " from " + std::to_string(query.source) +
             ": served values differ from an isolated Engine::Run";
    }
    return "";
  }
  // Under ingest every result is on its own pinned epoch; check its shape
  // and the source's own value.
  if (result.is_f64() ||
      result.u32().size() != num_vertices_) {
    return name + ": wrong result shape";
  }
  if ((query.algorithm == AlgorithmId::kBfs ||
       query.algorithm == AlgorithmId::kSssp) &&
      result.u32()[query.source] != 0) {
    return name + ": source value is not 0";
  }
  return "";
}

MutationBatch ServingRun::NextBatch() {
  std::uniform_int_distribution<VertexId> vertex(0, num_vertices_ - 1);
  std::uniform_int_distribution<Weight> weight(1, 64);
  MutationBatch batch;
  for (int i = 0; i < w_.batch_edges / 2; ++i) {
    batch.InsertEdge(vertex(rng_), vertex(rng_), weight(rng_));
    const auto [src, dst] = deletions_[next_deletion_++ % deletions_.size()];
    batch.DeleteEdge(src, dst);
  }
  return batch;
}

void ServingRun::Write(std::vector<MutationBatch> batches, double start,
                       PhaseLog& log) {
  for (size_t i = 0; i < batches.size(); ++i) {
    const double scheduled =
        start + static_cast<double>(i) / w_.batches_per_s;
    SleepUntil(scheduled);
    ++log.mutations.sent;
    const double t0 = Now();
    const Status status = d_.server->SubmitMutation(std::move(batches[i]));
    const double t1 = Now();
    log.submit_mutation_us.push_back((t1 - t0) * 1e6);
    tracer_.Add("dynamic.submit_mutation", t0, t1);
    if (!status.ok()) {
      ++log.mutations.rejected;
      continue;
    }
    ++log.mutations.succeeded;
    {
      std::lock_guard<std::mutex> lock(batches_mu_);
      batch_scheduled_.push_back(scheduled);
    }
    log.overlay_depth.push_back(d_.engine->overlay_depth());
    log.pending_delta.push_back(
        static_cast<double>(d_.engine->pending_delta_edges()));
  }
  writer_done_ = true;
}

void ServingRun::Subscribe(PhaseLog& log) {
  Engine& engine = *d_.engine;
  for (;;) {
    const bool writer_done = writer_done_.load();
    Timed(tracer_, "dynamic.wait_for_ingest", [&] { engine.WaitForIngest(); });
    const double visible = Now();
    const uint64_t epoch = engine.epoch();
    std::vector<double> scheduled;
    {
      std::lock_guard<std::mutex> lock(batches_mu_);
      scheduled = batch_scheduled_;
    }
    const size_t applied = std::min<size_t>(epoch, scheduled.size());
    for (; visible_through_ < applied; ++visible_through_) {
      log.visible_ms.push_back((visible - scheduled[visible_through_]) * 1e3);
    }
    if (fresh_through_ >= applied) {
      // The writer had finished before the ingest barrier, so nothing
      // more will land.
      if (writer_done) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (auto [query, standing] :
         {std::pair{standing_sssp_query_, &standing_sssp_},
          std::pair{QueryFor(AlgorithmId::kCc), &standing_cc_}}) {
      Result<QueryResult> next = Status::Internal("not run");
      const std::string span =
          std::string("dynamic.run_incremental.") + AlgoKey(query.algorithm);
      const double wall = Timed(tracer_, span.c_str(), [&] {
        next = engine.RunIncremental(query, *standing);
      });
      ++log.standing.sent;
      if (!next.ok()) {
        ++log.standing.failed;
        continue;
      }
      ++log.standing.succeeded;
      log.incremental_ms[query.algorithm].push_back(wall * 1e3);
      if (!next->incremental) ++log.incremental_fallbacks;
      *standing = std::move(next).value();
    }
    const double fresh = Now();
    const auto covered = static_cast<size_t>(
        std::min(standing_sssp_.epoch, standing_cc_.epoch));
    for (; fresh_through_ < std::min(covered, scheduled.size());
         ++fresh_through_) {
      log.fresh_ms.push_back((fresh - scheduled[fresh_through_]) * 1e3);
    }
  }
}

void ServingRun::Finish(const PhaseLog& log, double seconds, bool per_layer,
                        Outcome& out) {
  auto add = [](PhaseCounts& to, const PhaseCounts& from) {
    to.sent += from.sent;
    to.succeeded += from.succeeded;
    to.failed += from.failed;
    to.shed += from.shed;
    to.rejected += from.rejected;
  };
  add(out.queries, log.queries);
  add(out.queries, log.standing);
  add(out.mutations, log.mutations);
  if (!log.mismatch.empty() && out.correct) {
    out.correct = false;
    out.mismatch = log.mismatch;
  }
  MetricSheet& m = out.metrics;
  if (!per_layer) {
    m.Set("pass_s", Median(log.burst_s));
    m.Set("cpu_ms_per_query",
          log.cpu_s * 1e3 /
              static_cast<double>(std::max<uint64_t>(1, log.queries.succeeded)));
    m.Set("sim_gpu_ms", Mean(log.sim_ms));
    m.Set("latency_p50_ms", Quantile(log.latency_ms, 0.50));
    m.Set("latency_p99_ms", Quantile(log.latency_ms, 0.99));
    // Per second of the serving window, which stretches past the schedule
    // when a backlog has to drain.
    m.Set("goodput_qps",
          static_cast<double>(log.good) /
              std::max(seconds, log.last_seen - log.start));
    return;
  }
  for (AlgorithmId algorithm : kServingMix) {
    auto it = log.iterations.find(algorithm);
    if (it != log.iterations.end()) {
      m.Set(std::string("core.iterations.") + AlgoKey(algorithm),
            Median(it->second));
    }
  }
  SetTraceMetrics(log.totals, m);
  m.Set("serving.submit_us", Median(log.submit_us));
  m.Set("harness.generator_lag_ms_p99", Quantile(log.lag_ms, 0.99));
  m.Set("dynamic.submit_mutation_us", Median(log.submit_mutation_us));
  m.Set("dynamic.visible_ms_p50", Quantile(log.visible_ms, 0.50));
  m.Set("dynamic.visible_ms_p99", Quantile(log.visible_ms, 0.99));
  m.Set("dynamic.freshness_ms_p50", Quantile(log.fresh_ms, 0.50));
  m.Set("dynamic.freshness_ms_p99", Quantile(log.fresh_ms, 0.99));
  for (AlgorithmId algorithm : {AlgorithmId::kSssp, AlgorithmId::kCc}) {
    auto it = log.incremental_ms.find(algorithm);
    if (it != log.incremental_ms.end()) {
      m.Set(std::string("dynamic.incremental_ms.") + AlgoKey(algorithm),
            Median(it->second));
    }
  }
  m.Set("dynamic.incremental_fallbacks",
        static_cast<double>(log.incremental_fallbacks));
  m.Set("dynamic.overlay_depth", Mean(log.overlay_depth));
  m.Set("dynamic.pending_delta_edges", Mean(log.pending_delta));
}

}  // namespace

Outcome RunServing(const RunConfig& config, Tracer& tracer) {
  ServingRun run(config, tracer);
  return run.Run();
}

}  // namespace hytbench

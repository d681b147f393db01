// The solver: one iterative vertex-centric execution loop parameterized by
// (a) a vertex program (algorithms/) and (b) a transfer-management policy
// (SystemKind). HyTGraph and every baseline of Table V run through this
// loop on the shared simulator substrate, so measured differences isolate
// the transfer-management policy — the variable the paper studies.
//
// The loop executes on a GraphView (base CSR + optional mutation delta):
// partition geometry, activity stats, and transfer accounting all use the
// view's logical (folded-CSR) offsets while edge expansion merges the
// overlay on the fly, so queries on a mutated graph run without any
// snapshot fold on the critical path.
//
// Per iteration:
//   1. Pick the traversal direction (SolverOptions::direction): push runs
//      the paper's transfer-managed task pipeline below; pull runs a dense
//      gather over the view's reverse side (RunPullKernel). Auto switches
//      with Beamer-style thresholds — push -> pull when the frontier's
//      out-edges exceed |E|/direction_alpha, pull -> push when the active
//      count drops below |V|/direction_beta. Slow-settling programs
//      (Program::kPullCandidatesLinger — SSSP/SSWP, whose unsettled
//      candidate set stays large long after the frontier shrinks) add a
//      measured-cost feedback term: pull is entered or retained only
//      while the frontier's out-edges (what push would relax) cover the
//      last pull iteration's gathered in-edge count (what pull actually
//      paid). Only the value-selection family can pull; PR/PHP are
//      pinned to push at compile time.
//   2. Resolve the frontier against the partitioning (engine/partition_state)
//   3. Generate tasks: HyTGraph runs cost-aware selection (formulas (1)-(3))
//      + task combination; baselines force a single engine
//   4. Order tasks (contribution-driven priority scheduling)
//   5. Execute: host threads produce exact results while the PCIe/compute
//      models accumulate simulated time on a multi-stream timeline
//   6. Swap frontiers; repeat to convergence.
//
// Program concept:
//   struct Program {
//     using Value = ...;
//     static constexpr bool kNeedsWeights;  // SSSP/PHP: true
//     static constexpr bool kHasDelta;      // PR/PHP: true
//     void InitFrontier(Frontier* frontier);
//     struct VertexContext {...};
//     bool BeginVertex(VertexId u, VertexContext* ctx);
//     bool ProcessEdge(const VertexContext& ctx, VertexId u, VertexId v,
//                      Weight w);
//     double DeltaOf(VertexId v) const;     // only if kHasDelta
//   };

#ifndef HYTGRAPH_CORE_SOLVER_H_
#define HYTGRAPH_CORE_SOLVER_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/lane_state.h"
#include "core/options.h"
#include "core/priority_scheduler.h"
#include "core/task.h"
#include "core/task_combiner.h"
#include "core/trace.h"
#include "engine/compactor.h"
#include "engine/frontier.h"
#include "engine/kernels.h"
#include "engine/partition_state.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "graph/partitioner.h"
#include "sim/compute_model.h"
#include "sim/device_memory.h"
#include "sim/pcie_model.h"
#include "sim/stream_timeline.h"
#include "sim/transfer_stats.h"
#include "sim/unified_memory.h"
#include "sim/zero_copy.h"
#include "util/lane_team.h"
#include "util/math_util.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hytgraph {

template <typename Program>
class Solver {
 public:
  /// Runs on a live GraphView: the base CSR with any pending mutation
  /// delta merged on the fly. The view pins its base/overlay snapshots for
  /// the solver's lifetime.
  Solver(GraphView view, SolverOptions options)
      : view_(std::move(view)), options_(std::move(options)) {}

  /// Static-graph convenience: a transparent view over `graph`, which must
  /// outlive the solver.
  Solver(const CsrGraph& graph, SolverOptions options)
      : Solver(GraphView::Wrap(graph), std::move(options)) {}

  /// Validates options, accounts device memory, partitions the graph, and
  /// sets up the transfer engines. Must be called (successfully) before Run.
  Status Init() {
    HYT_RETURN_NOT_OK(options_.Validate());

    bytes_per_edge_ =
        kBytesPerNeighbor +
        (Program::kNeedsWeights && view_.is_weighted() ? sizeof(Weight) : 0);

    // Device memory: vertex-associated data is always resident (paper
    // Section I assumption); if it does not fit, this platform cannot run
    // the graph at all (the paper's hyper-scale limitation, Section VIII).
    device_memory_ =
        std::make_unique<DeviceMemory>(options_.DeviceMemory());
    HYT_RETURN_NOT_OK(device_memory_->Allocate(
        "vertex_data",
        view_.VertexDataBytes(sizeof(typename Program::Value))));

    // Partitioning: 32 MB in the paper; auto mode scales to keep the
    // ~256-partition regime at simulator scale.
    PartitionerOptions popts;
    popts.bytes_per_edge = bytes_per_edge_;
    popts.partition_bytes = options_.partition_bytes;
    if (popts.partition_bytes == 0) {
      const uint64_t edge_bytes = view_.num_edges() * bytes_per_edge_;
      popts.partition_bytes =
          std::clamp<uint64_t>(edge_bytes / 256, KiB(64), MiB(32));
    }
    // Partition the *view*: boundaries and per-partition edge counts come
    // from the logical (folded) offsets, so formulas (1)-(3) see the
    // mutated graph's partition geometry.
    HYT_ASSIGN_OR_RETURN(partitions_, PartitionGraph(view_, popts));

    pcie_ = std::make_unique<PcieModel>(options_.gpu, options_.pcie);
    zc_access_ = std::make_unique<ZeroCopyAccess>(pcie_.get());
    gpu_model_ = std::make_unique<GpuComputeModel>(
        options_.gpu, options_.gpu_bytes_per_edge, options_.gpu_efficiency);
    cpu_model_ =
        std::make_unique<CpuComputeModel>(options_.cpu_edges_per_second);

    CostModelOptions cmo;
    cmo.alpha = options_.alpha;
    cmo.beta = options_.beta;
    cmo.gamma = options_.gamma;
    cmo.bytes_per_edge = bytes_per_edge_;
    cmo.max_request_bytes = options_.pcie.max_request_bytes;
    cmo.requests_per_tlp = options_.pcie.requests_per_tlp;
    // Per-partition share of the per-task launch/setup overhead (transfer +
    // kernel phases), amortized over combine_k partitions per filter task,
    // expressed in saturated-TLP round trips.
    cmo.explicit_overhead_tlps = 2.0 * options_.task_overhead_seconds /
                                 options_.combine_k /
                                 pcie_->SaturatedTlpSeconds();
    if (view_.base_streamed()) {
      const uint64_t stream_bps =
          view_.storage()->options().throttle_bytes_per_second;
      if (stream_bps > 0) {
        // Host-disk stream-in for non-resident partitions, in the same RTT
        // units as formulas (1)-(3). Charged uniformly across engines, so
        // the selection is unchanged (see CostModelOptions).
        cmo.stream_tlps_per_byte =
            1.0 / (static_cast<double>(stream_bps) *
                   pcie_->SaturatedTlpSeconds());
      }
    }
    cost_model_ = std::make_unique<CostModel>(cmo);

    // Staging budget for loaded subgraphs: whatever device memory the
    // vertex data left. A compacted subgraph larger than this cannot be
    // resident at once — Subway must chunk it, and cross-chunk updates wait
    // for the next global iteration (this is what makes Subway retransfer
    // on PageRank instead of converging locally in one shot).
    staging_budget_bytes_ = device_memory_->available();

    if (options_.system == SystemKind::kImpUm ||
        options_.system == SystemKind::kGrus) {
      // UM page cache gets whatever device memory the vertex data left.
      const uint64_t cache_bytes =
          std::max<uint64_t>(options_.pcie.page_bytes,
                             device_memory_->available());
      um_engine_ = std::make_unique<UnifiedMemoryEngine>(
          view_.num_edges() * bytes_per_edge_, cache_bytes,
          options_.pcie.page_bytes);
    }
    initialized_ = true;
    return Status::OK();
  }

  /// Runs `program` to convergence. Returns the execution trace; program
  /// state (the values) is the result payload, owned by the caller.
  Result<RunTrace> Run(Program* program) {
    if (!initialized_) {
      return Status::FailedPrecondition("Solver::Init() not called");
    }
    stats_.Reset();
    if (um_engine_ != nullptr) um_engine_->Invalidate();

    // Parallel partition execution: resolve the lane count once per run and
    // fix each lane's partition ownership for the query's lifetime.
    // num_lanes == 1 takes the exact sequential reference path below — no
    // team, no lane state, byte-identical traces to the pre-lane solver.
    const int num_lanes = ResolveLaneCount();
    std::vector<std::unique_ptr<LaneState>> lane_states;
    std::vector<VertexId> lane_starts;
    std::unique_ptr<LaneTeam> team;
    if (num_lanes > 1) {
      AssignLanes(num_lanes, &lane_states, &lane_starts);
      team = std::make_unique<LaneTeam>(num_lanes);
    }

    Frontier frontier_a(view_);
    Frontier frontier_b(view_);
    Frontier* current = &frontier_a;
    Frontier* next = &frontier_b;
    program->InitFrontier(current);
    // Cold-start read-ahead: the first iteration's blocks stream while the
    // partition stats below are still being built.
    PostPrefetchHints(*current);

    // Direction machinery engages only for pull-capable programs under a
    // non-push option; PR/PHP (and programs without pull hooks) compile to
    // the push-only loop regardless of options_.direction.
    bool pulling = false;
    // Measured cost of the most recent pull gather (in-edges scanned).
    // Auto mode enters or retains pull only while the frontier's
    // out-edges cover it: after an unprofitable gather this suppresses
    // both retention and alpha re-entry until the frontier outgrows the
    // observed pull cost (0 before any pull, so first entry is pure
    // Beamer alpha).
    uint64_t last_pull_edges = 0;
    if constexpr (PullCapableProgram<Program>) {
      pulling = options_.direction == TraversalDirection::kPull;
    }

    RunTrace trace;
    trace.num_lanes = num_lanes;
    for (uint64_t iter = 0; iter < options_.max_iterations; ++iter) {
      const uint64_t active = current->CountActive();  // O(1): incremental
      if (active == 0) {
        trace.converged = true;
        break;
      }

      if constexpr (PullCapableProgram<Program>) {
        if (options_.direction != TraversalDirection::kPush) {
          // m_f is scanned only when the direction decision needs it;
          // forced kPull skips the O(n_f) pass (active_edges stays 0 in
          // its trace rows — the scanned in-edge count lands in
          // transfers.kernel_edges instead).
          uint64_t frontier_edges = 0;
          if (options_.direction == TraversalDirection::kAuto) {
            // Beamer-style hybrid: m_f from the view-adjusted degrees (the
            // same estimate the cost formulas consume), n_f from the O(1)
            // frontier count. The push kernels maintain m_f incrementally
            // (Frontier's scout count), so steady-state push iterations
            // read it in O(1); the O(n_f) bitmap scan remains only as the
            // fallback for frontiers a scout-blind producer touched
            // (InitFrontier, the pull kernel) — scout-valid frontiers
            // carry exactly the sum the scan would compute.
            frontier_edges =
                options_.incremental_scout_count && current->ScoutValid()
                    ? current->ScoutCount()
                    : FrontierActiveEdges(view_, *current);
            const bool threshold =
                pulling ? static_cast<double>(active) *
                                  options_.direction_beta >=
                              static_cast<double>(view_.num_vertices())
                        : static_cast<double>(frontier_edges) *
                                  options_.direction_alpha >
                              static_cast<double>(view_.num_edges());
            pulling = threshold;
            // Feedback for slow-settling programs (kPullCandidatesLinger):
            // pull only while push's cost (m_f) covers what the last
            // gather measurably paid — the last gather predicts the next
            // one when candidates are rescanned until a moving floor
            // catches them. Keeps SSSP/SSWP from lingering in (or
            // bouncing straight back into) an unprofitable direction.
            // BFS/CC candidates settle permanently, collapsing successive
            // gather costs, so there the stale measurement would exit
            // profitable pull phases — pure Beamer thresholds steer them.
            if constexpr (Program::kPullCandidatesLinger) {
              pulling = pulling && frontier_edges >= last_pull_edges;
            }
          }
          if (pulling) {
            // The transpose comes from the base's shared derived data; an
            // out-of-core build that lost a block fails the run here
            // (kUnavailable) instead of gathering over missing in-edges.
            HYT_RETURN_NOT_OK(view_.EnsureReverse());
            trace.iterations.push_back(
                num_lanes > 1
                    ? RunParallelPullIteration(team.get(), &lane_states,
                                               *current, next, frontier_edges,
                                               active, &trace, program)
                    : RunPullIteration(*current, next, frontier_edges, active,
                                       &trace, program));
            last_pull_edges = trace.iterations.back().transfers.kernel_edges;
            std::swap(current, next);
            next->Clear();
            continue;
          }
        }
      }

      if (num_lanes > 1) {
        trace.iterations.push_back(RunParallelPushIteration(
            team.get(), &lane_states, lane_starts, *current, next, &trace,
            program));
      } else {
        IterationState state =
            BuildState(*current, program, std::move(actives_scratch_));
        std::vector<Task> tasks = GenerateTasks(state);
        SplitOversizedCompactionTasks(&tasks, state);

        PrioritySchedulerOptions pso;
        pso.enabled = options_.enable_contribution_scheduling;
        pso.delta_driven = Program::kHasDelta;
        ScheduleTasks(&tasks, state, pso);
        OverlapStreamIn(&tasks, state);

        StreamTimeline timeline(options_.num_streams);
        IterationTrace it;
        it.active_vertices = state.total_active_vertices();
        it.active_edges = state.total_active_edges;
        it.num_tasks = static_cast<uint32_t>(tasks.size());
        const TransferStatsSnapshot before = stats_.Snapshot();

        for (const Task& task : tasks) {
          ExecuteTask(task, state, next, &timeline, &it, program);
        }

        it.transfers = stats_.Snapshot() - before;
        it.sim_seconds = timeline.Makespan();
        it.transfer_seconds = timeline.PcieBusy();
        it.kernel_seconds = timeline.GpuBusy();
        it.compaction_seconds = timeline.CpuBusy();
        trace.total_sim_seconds += it.sim_seconds;
        trace.iterations.push_back(it);

        // Recycle the active-list allocation into the next iteration.
        actives_scratch_ = std::move(state.actives);
      }

      // Iteration barrier: next iteration's active set is now final — post
      // its blocks to the prefetcher so the IO overlaps the (cheap) stats
      // and task-generation work plus the next round's resident-first
      // tasks.
      PostPrefetchHints(*next);

      std::swap(current, next);
      next->Clear();
    }
    return trace;
  }

  const std::vector<Partition>& partitions() const { return partitions_; }
  const PcieModel& pcie() const { return *pcie_; }
  const GpuComputeModel& gpu_model() const { return *gpu_model_; }
  const TransferStats& stats() const { return stats_; }

 private:
  static double DeltaTrampoline(const void* program, VertexId v) {
    return static_cast<const Program*>(program)->DeltaOf(v);
  }

  IterationState BuildState(const Frontier& frontier, const Program* program,
                            std::vector<VertexId> actives_storage = {}) const {
    DeltaFn delta_fn = nullptr;
    const void* opaque = nullptr;
    if constexpr (Program::kHasDelta) {
      delta_fn = &DeltaTrampoline;
      opaque = program;
    }
    IterationState state = BuildIterationState(
        view_, partitions_, frontier, *zc_access_,
        Program::kNeedsWeights && view_.is_weighted(), delta_fn, opaque,
        std::move(actives_storage));
    if (view_.base_streamed()) {
      // Residency snapshot for the cost model's stream-in term and the
      // resident-first task ordering. Racy by nature (prefetches land
      // concurrently) but only ever pessimistic about cost, never about
      // correctness.
      const EdgeBlockStore& store = *view_.storage();
      for (size_t p = 0; p < partitions_.size(); ++p) {
        if (!state.stats[p].HasWork()) continue;
        state.stats[p].resident = store.RangeResident(
            partitions_[p].first_vertex, partitions_[p].last_vertex - 1);
      }
    }
    return state;
  }

  /// Out-of-core pipelining for one push iteration: reorder the scheduled
  /// tasks so fully resident ones run first (a stable partition — the
  /// contribution-driven priority order is preserved within each half), and
  /// post the non-resident tasks' blocks to the prefetcher, so their IO
  /// streams behind the resident tasks' compute instead of stalling the
  /// first ExecuteTask that touches them.
  void OverlapStreamIn(std::vector<Task>* tasks,
                       const IterationState& state) const {
    if (!view_.base_streamed()) return;
    const EdgeBlockStore& store = *view_.storage();
    const auto task_resident = [&](const Task& task) {
      for (uint32_t p : task.partitions) {
        if (!state.stats[p].resident) return false;
      }
      return true;
    };
    std::stable_partition(tasks->begin(), tasks->end(), task_resident);
    if (!store.prefetch_enabled()) return;
    std::vector<uint32_t> blocks;
    for (const Task& task : *tasks) {
      if (task_resident(task)) continue;
      for (uint32_t p : task.partitions) {
        store.BlocksForRange(partitions_[p].first_vertex,
                             partitions_[p].last_vertex - 1, &blocks);
      }
    }
    store.PostPrefetch(blocks);
  }

  /// Posts the blocks covering `frontier`'s active vertices to the
  /// prefetcher (iteration-barrier hint: the next iteration's read set is
  /// exact, so accuracy-tracked read-ahead can hide the stream-in).
  void PostPrefetchHints(const Frontier& frontier) const {
    if (!view_.base_streamed()) return;
    const EdgeBlockStore& store = *view_.storage();
    if (!store.prefetch_enabled()) return;
    // Iteration barrier: close the previous barrier-to-barrier IO epoch so
    // the cache's measured working set sizes this round's read-ahead cap.
    store.BeginIoEpoch();
    std::vector<uint32_t> blocks;
    const auto words = frontier.Words();
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t bits = words[w].load(std::memory_order_relaxed);
      while (bits != 0) {
        const VertexId v = static_cast<VertexId>(
            w * Frontier::kBitsPerWord +
            static_cast<uint64_t>(std::countr_zero(bits)));
        const uint32_t b = store.BlockOf(v);
        if (blocks.empty() || blocks.back() != b) blocks.push_back(b);
        bits &= bits - 1;
      }
    }
    store.PostPrefetch(blocks);
  }

  /// One pull-direction iteration: a dense gather over the reverse view
  /// (RunPullKernel), bypassing the partition/task pipeline entirely. The
  /// reverse adjacency is treated as GPU-resident alongside the forward
  /// CSR, so the iteration is kernel-only in simulated time (no transfer
  /// engines run); `frontier_edges` is the push-equivalent m_f for the
  /// trace — nonzero only when the direction decision computed it (every
  /// auto-mode iteration; forced kPull passes 0).
  IterationTrace RunPullIteration(const Frontier& current, Frontier* next,
                                  uint64_t frontier_edges,
                                  uint64_t active_vertices, RunTrace* trace,
                                  Program* program) {
    IterationTrace it;
    it.direction = TraversalDirection::kPull;
    it.active_vertices = active_vertices;
    it.active_edges = frontier_edges;
    it.num_tasks = 1;
    const TransferStatsSnapshot before = stats_.Snapshot();

    const uint64_t edges = RunPullKernel(view_, current, *program, next);
    stats_.AddKernelEdges(edges);

    StreamTimeline timeline(options_.num_streams);
    StreamTask st;
    st.label = "pull";
    st.kernel_seconds =
        gpu_model_->SecondsForEdges(edges) + options_.task_overhead_seconds;
    timeline.Submit(st);

    it.transfers = stats_.Snapshot() - before;
    it.sim_seconds = timeline.Makespan();
    it.kernel_seconds = timeline.GpuBusy();
    trace->total_sim_seconds += it.sim_seconds;
    return it;
  }

  /// Resolves SolverOptions::num_workers to the lane count this run
  /// executes with. 0 = hardware concurrency; always 1 when the solver is
  /// already running on a pool worker (batched / fused serving queries:
  /// the batch is the parallel unit — lanes under every query would
  /// oversubscribe the machine) and for the unified-memory baselines
  /// (their page cache is stateful and access-order dependent).
  int ResolveLaneCount() const {
    int lanes = options_.num_workers;
    if (lanes == 0) {
      lanes = static_cast<int>(std::thread::hardware_concurrency());
      if (lanes <= 0) lanes = 1;
    }
    if (lanes <= 1) return 1;
    if (ThreadPool::InWorkerThread()) return 1;
    if (um_engine_ != nullptr) return 1;
    return static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(lanes), partitions_.size()));
  }

  /// Fixes each lane's partition ownership for the query's lifetime:
  /// contiguous partition ranges balanced by edge mass (greedy toward the
  /// per-lane prefix target, at least one partition per lane). Contiguous
  /// partitions induce contiguous vertex ranges, so vertex -> owning lane
  /// is an upper_bound over the lane start vertices.
  void AssignLanes(int num_lanes,
                   std::vector<std::unique_ptr<LaneState>>* lane_states,
                   std::vector<VertexId>* lane_starts) const {
    lane_states->reserve(num_lanes);
    lane_starts->reserve(num_lanes);
    uint64_t total_edges = 0;
    for (const Partition& part : partitions_) total_edges += part.num_edges();
    const auto num_partitions = static_cast<uint32_t>(partitions_.size());
    uint64_t cum = 0;
    uint32_t p = 0;
    for (int l = 0; l < num_lanes; ++l) {
      auto lane = std::make_unique<LaneState>(view_, num_lanes);
      lane->p_begin = p;
      const uint64_t target =
          total_edges * static_cast<uint64_t>(l + 1) / num_lanes;
      // Leave at least one partition for each remaining lane.
      const uint32_t max_end =
          num_partitions - static_cast<uint32_t>(num_lanes - 1 - l);
      while (p < max_end && (p == lane->p_begin || cum < target)) {
        cum += partitions_[p].num_edges();
        ++p;
      }
      lane->p_end = p;
      lane->v_begin = partitions_[lane->p_begin].first_vertex;
      lane->v_end = partitions_[lane->p_end - 1].last_vertex;
      lane_starts->push_back(lane->v_begin);
      lane_states->push_back(std::move(lane));
    }
  }

  /// One push iteration under parallel lanes. The coordinator builds the
  /// iteration state and evaluates the per-partition cost formulas once
  /// (identical inputs to the sequential path); each lane then generates,
  /// schedules, and executes its owned range's tasks against its
  /// lane-local sink, and the barrier merge publishes the next frontier
  /// owner-only. Simulated time is max-over-lanes of the per-lane stream
  /// makespans — the same per-partition costs, modeled as concurrent
  /// devices.
  IterationTrace RunParallelPushIteration(
      LaneTeam* team, std::vector<std::unique_ptr<LaneState>>* lanes,
      const std::vector<VertexId>& lane_starts, const Frontier& current,
      Frontier* next, RunTrace* trace, Program* program) {
    IterationState state =
        BuildState(current, program, std::move(actives_scratch_));
    std::vector<PartitionCosts> costs;
    if (options_.system == SystemKind::kHyTGraph) {
      costs = cost_model_->EvaluateAll(partitions_, state);
    }

    IterationTrace it;
    it.active_vertices = state.total_active_vertices();
    it.active_edges = state.total_active_edges;
    const TransferStatsSnapshot before = stats_.Snapshot();

    // Execute phase: per-lane task lists over owned partitions only.
    // Task combining and priority scheduling are confined to the lane's
    // range (filter runs reset at lane boundaries) — the per-partition
    // engine choices themselves are identical to the sequential path.
    team->Run([&](int l) {
      LaneState& lane = *(*lanes)[l];
      lane.BeginIteration();
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<Task> tasks =
          GenerateLaneTasks(state, costs, lane.p_begin, lane.p_end);
      SplitOversizedCompactionTasks(&tasks, state);
      PrioritySchedulerOptions pso;
      pso.enabled = options_.enable_contribution_scheduling;
      pso.delta_driven = Program::kHasDelta;
      ScheduleTasks(&tasks, state, pso);
      OverlapStreamIn(&tasks, state);
      StreamTimeline timeline(options_.num_streams);
      lane.partial.num_tasks = static_cast<uint32_t>(tasks.size());
      LaneSink sink(&lane, lane_starts);
      for (const Task& task : tasks) {
        ExecuteTask(task, state, &sink, &timeline, &lane.partial, program);
      }
      lane.sim_seconds = timeline.Makespan();
      lane.transfer_busy = timeline.PcieBusy();
      lane.kernel_busy = timeline.GpuBusy();
      lane.cpu_busy = timeline.CpuBusy();
      lane.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    });

    // Merge phase (the iteration barrier): every lane publishes exactly
    // the vertices it owns into the global next frontier — its own range
    // from its local bitmap plus every peer's outbox addressed to it.
    // Owner-only publication keeps the shared bitmap's words near-disjoint
    // (only range-boundary words are shared), and the degree-carrying
    // Activate keeps the scout count exact for the next direction
    // decision. Activation is idempotent set semantics, so the merged
    // bitmap and scout sum are independent of lane interleaving.
    team->Run([&](int l) {
      LaneState& lane = *(*lanes)[l];
      for (size_t m = 0; m < lanes->size(); ++m) {
        if (static_cast<int>(m) == l) continue;
        for (const VertexId v : (*lanes)[m]->outbox[l]) {
          next->Activate(v, view_.out_degree(v));
        }
      }
      lane.merge_scratch.clear();
      lane.local.CollectRange(lane.v_begin, lane.v_end, &lane.merge_scratch);
      for (const VertexId v : lane.merge_scratch) {
        next->Activate(v, view_.out_degree(v));
      }
    });

    double sim = 0;
    double busy = 0;
    double critical = 0;
    for (const auto& lp : *lanes) {
      const LaneState& lane = *lp;
      it.num_tasks += lane.partial.num_tasks;
      it.partitions_filter += lane.partial.partitions_filter;
      it.partitions_compaction += lane.partial.partitions_compaction;
      it.partitions_zero_copy += lane.partial.partitions_zero_copy;
      it.partitions_um += lane.partial.partitions_um;
      it.partitions_active += lane.partial.partitions_active;
      it.measured_compaction_seconds +=
          lane.partial.measured_compaction_seconds;
      it.um_pages_touched += lane.partial.um_pages_touched;
      sim = std::max(sim, lane.sim_seconds);
      it.transfer_seconds += lane.transfer_busy;
      it.kernel_seconds += lane.kernel_busy;
      it.compaction_seconds += lane.cpu_busy;
      busy += lane.wall_seconds;
      critical = std::max(critical, lane.wall_seconds);
    }
    it.sim_seconds = sim;
    it.transfers = stats_.Snapshot() - before;
    trace->total_sim_seconds += it.sim_seconds;
    trace->lane_busy_seconds += busy;
    trace->lane_critical_seconds += critical;

    actives_scratch_ = std::move(state.actives);
    return it;
  }

  /// One pull iteration under parallel lanes: the coordinator computes the
  /// deterministic iteration floor, then each lane scans its owned
  /// candidate slice. Candidates are own-range by construction, so lanes
  /// write the global next frontier owner-only with the sequential pull
  /// kernel's plain (scout-invalidating) activations — no outboxes needed.
  IterationTrace RunParallelPullIteration(
      LaneTeam* team, std::vector<std::unique_ptr<LaneState>>* lanes,
      const Frontier& current, Frontier* next, uint64_t frontier_edges,
      uint64_t active_vertices, RunTrace* trace, Program* program) {
    IterationTrace it;
    it.direction = TraversalDirection::kPull;
    it.active_vertices = active_vertices;
    it.active_edges = frontier_edges;
    it.num_tasks = static_cast<uint32_t>(lanes->size());
    const TransferStatsSnapshot before = stats_.Snapshot();

    const auto floor = PullIterationFloor(current, *program);
    team->Run([&](int l) {
      LaneState& lane = *(*lanes)[l];
      lane.BeginIteration();
      const auto t0 = std::chrono::steady_clock::now();
      lane.pull_edges = RunPullKernelRange(view_, current, *program, next,
                                           floor, lane.v_begin, lane.v_end);
      lane.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    });

    uint64_t edges = 0;
    double sim = 0;
    double busy = 0;
    double critical = 0;
    for (const auto& lp : *lanes) {
      edges += lp->pull_edges;
      // One gather stream per lane in simulated time: max-over-lanes of
      // the per-lane kernel model, busy time summed.
      const double lane_kernel = gpu_model_->SecondsForEdges(lp->pull_edges) +
                                 options_.task_overhead_seconds;
      sim = std::max(sim, lane_kernel);
      it.kernel_seconds += lane_kernel;
      busy += lp->wall_seconds;
      critical = std::max(critical, lp->wall_seconds);
    }
    stats_.AddKernelEdges(edges);
    it.sim_seconds = sim;
    it.transfers = stats_.Snapshot() - before;
    trace->total_sim_seconds += it.sim_seconds;
    trace->lane_busy_seconds += busy;
    trace->lane_critical_seconds += critical;
    return it;
  }

  /// Task generation: HyTGraph runs the cost model per partition; every
  /// baseline forces one engine across all active partitions.
  std::vector<Task> GenerateTasks(const IterationState& state) const {
    TaskCombinerOptions tco;
    tco.combine_k = options_.combine_k;
    tco.enabled = options_.enable_task_combining;

    switch (options_.system) {
      case SystemKind::kHyTGraph: {
        const std::vector<PartitionCosts> costs =
            cost_model_->EvaluateAll(partitions_, state);
        return CombineTasks(partitions_, state, costs, tco);
      }
      case SystemKind::kExpFilter:
        return ForcedTasks(state, EngineKind::kFilter,
                           /*single_task=*/false);
      case SystemKind::kSubway:
        return ForcedTasks(state, EngineKind::kCompaction,
                           /*single_task=*/true);
      case SystemKind::kEmogi:
        return ForcedTasks(state, EngineKind::kZeroCopy,
                           /*single_task=*/true);
      case SystemKind::kImpUm:
      case SystemKind::kGrus:
        return ForcedTasks(state, EngineKind::kUnifiedMemory,
                           /*single_task=*/true);
      case SystemKind::kCpu:
        return ForcedTasks(state, EngineKind::kCpu, /*single_task=*/true);
    }
    return {};
  }

  /// Lane-range task generation over partitions [p_begin, p_end). `costs`
  /// is the coordinator's full EvaluateAll result (kHyTGraph only; empty
  /// for forced baselines). Combining/merging is confined to the range —
  /// "single task" baselines build one task per lane.
  std::vector<Task> GenerateLaneTasks(const IterationState& state,
                                      const std::vector<PartitionCosts>& costs,
                                      uint32_t p_begin,
                                      uint32_t p_end) const {
    TaskCombinerOptions tco;
    tco.combine_k = options_.combine_k;
    tco.enabled = options_.enable_task_combining;

    switch (options_.system) {
      case SystemKind::kHyTGraph:
        return CombineTasks(partitions_, state, costs, tco, p_begin, p_end);
      case SystemKind::kExpFilter:
        return ForcedTasks(state, EngineKind::kFilter,
                           /*single_task=*/false, p_begin, p_end);
      case SystemKind::kSubway:
        return ForcedTasks(state, EngineKind::kCompaction,
                           /*single_task=*/true, p_begin, p_end);
      case SystemKind::kEmogi:
        return ForcedTasks(state, EngineKind::kZeroCopy,
                           /*single_task=*/true, p_begin, p_end);
      case SystemKind::kImpUm:
      case SystemKind::kGrus:
        // Unreachable under lanes (ResolveLaneCount forces 1 for UM), but
        // kept total for safety.
        return ForcedTasks(state, EngineKind::kUnifiedMemory,
                           /*single_task=*/true, p_begin, p_end);
      case SystemKind::kCpu:
        return ForcedTasks(state, EngineKind::kCpu, /*single_task=*/true,
                           p_begin, p_end);
    }
    return {};
  }

  /// All active partitions under one forced engine. `single_task` merges
  /// everything into one task; otherwise consecutive partitions group by
  /// combine_k (the streaming behaviour of filter-based frameworks).
  std::vector<Task> ForcedTasks(const IterationState& state, EngineKind kind,
                                bool single_task) const {
    return ForcedTasks(state, kind, single_task, 0,
                       static_cast<uint32_t>(partitions_.size()));
  }

  /// Range-limited ForcedTasks over partitions [p_begin, p_end): the lane
  /// path builds one forced task list per owned range ("single" task means
  /// single per lane there).
  std::vector<Task> ForcedTasks(const IterationState& state, EngineKind kind,
                                bool single_task, uint32_t p_begin,
                                uint32_t p_end) const {
    std::vector<Task> tasks;
    Task* open = nullptr;
    for (uint32_t p = p_begin; p < p_end; ++p) {
      if (!state.stats[p].HasWork()) continue;
      const bool need_new =
          open == nullptr ||
          (!single_task && static_cast<int>(open->partitions.size()) >=
                               options_.combine_k);
      if (need_new) {
        tasks.emplace_back();
        open = &tasks.back();
        open->engine = kind;
      }
      open->partitions.push_back(p);
      open->active_vertices += state.stats[p].active_vertices;
      open->active_edges += state.stats[p].active_edges;
      open->total_edges += partitions_[p].num_edges();
      open->zc_requests += state.stats[p].zc_requests;
    }
    return tasks;
  }

  /// Splits compaction tasks whose compacted edges exceed the device-memory
  /// staging budget into chunks of partitions that fit. Each chunk is
  /// processed (and locally re-rounded) independently; updates crossing
  /// chunks propagate in the next global iteration — exactly Subway's
  /// memory-bounded behaviour.
  void SplitOversizedCompactionTasks(std::vector<Task>* tasks,
                                     const IterationState& state) const {
    const uint64_t budget_edges =
        std::max<uint64_t>(1, staging_budget_bytes_ / bytes_per_edge_);
    std::vector<Task> result;
    result.reserve(tasks->size());
    for (Task& task : *tasks) {
      if (task.engine != EngineKind::kCompaction ||
          task.active_edges <= budget_edges) {
        result.push_back(std::move(task));
        continue;
      }
      Task* chunk = nullptr;
      for (uint32_t p : task.partitions) {
        const PartitionStats& stats = state.stats[p];
        const bool need_new =
            chunk == nullptr ||
            (chunk->active_edges > 0 &&
             chunk->active_edges + stats.active_edges > budget_edges);
        if (need_new) {
          result.emplace_back();
          chunk = &result.back();
          chunk->engine = EngineKind::kCompaction;
          chunk->priority = task.priority;
        }
        chunk->partitions.push_back(p);
        chunk->active_vertices += stats.active_vertices;
        chunk->active_edges += stats.active_edges;
        chunk->total_edges += partitions_[p].num_edges();
        chunk->zc_requests += stats.zc_requests;
      }
    }
    *tasks = std::move(result);
  }

  /// Concatenates the active slices of a task's partitions. Partition ids
  /// ascend and slices are sorted, so the result is globally sorted.
  std::vector<VertexId> GatherActives(const Task& task,
                                      const IterationState& state) const {
    std::vector<VertexId> actives;
    actives.reserve(task.active_vertices);
    for (uint32_t p : task.partitions) {
      const auto slice = state.Slice(p);
      actives.insert(actives.end(), slice.begin(), slice.end());
    }
    return actives;
  }

  /// Extra asynchronous rounds: consume re-activations that landed inside
  /// this task's loaded subgraph. `membership` restricts to vertices whose
  /// edges are actually on the GPU (compaction loads only the original
  /// active set; filter loads whole partitions). `Sink` is the global
  /// Frontier on the sequential path or the LaneSink under lanes — a
  /// task's partitions are always lane-owned, so the collect/deactivate
  /// cycle below stays entirely within the lane-local frontier there.
  template <typename Sink>
  uint64_t RunExtraRounds(const Task& task,
                          const std::vector<VertexId>* membership,
                          Sink* next, Program* program) {
    const int max_rounds = options_.extra_rounds < 0
                               ? options_.max_local_rounds
                               : options_.extra_rounds;
    uint64_t edges = 0;
    for (int round = 0; round < max_rounds; ++round) {
      std::vector<VertexId> pending;
      for (uint32_t p : task.partitions) {
        const Partition& part = partitions_[p];
        std::vector<VertexId> in_range;
        next->CollectRange(part.first_vertex, part.last_vertex, &in_range);
        for (VertexId v : in_range) {
          if (membership == nullptr ||
              std::binary_search(membership->begin(), membership->end(), v)) {
            next->Deactivate(v, view_.out_degree(v));
            pending.push_back(v);
          }
        }
      }
      if (pending.empty()) break;
      edges += RunKernel(view_, pending, *program, next);
    }
    return edges;
  }

  template <typename Sink>
  void ExecuteTask(const Task& task, const IterationState& state,
                   Sink* next, StreamTimeline* timeline,
                   IterationTrace* it, Program* program) {
    const std::vector<VertexId> actives = GatherActives(task, state);
    const auto count = static_cast<uint32_t>(task.partitions.size());
    StreamTask st;
    st.label = EngineKindName(task.engine);
    it->partitions_active += count;

    switch (task.engine) {
      case EngineKind::kFilter: {
        it->partitions_filter += count;
        const uint64_t bytes = task.total_edges * bytes_per_edge_;
        const uint64_t tlps = pcie_->ExplicitCopyTlps(bytes);
        stats_.AddExplicit(bytes, tlps);
        st.transfer_seconds = pcie_->ExplicitCopySeconds(bytes) +
                              options_.task_overhead_seconds;
        uint64_t edges = RunKernel(view_, actives, *program, next);
        if (options_.extra_rounds != 0) {
          // Whole partitions are on the GPU: any vertex in range can be
          // recomputed without further transfer.
          edges += RunExtraRounds(task, /*membership=*/nullptr, next, program);
        }
        stats_.AddKernelEdges(edges);
        st.kernel_seconds = gpu_model_->SecondsForEdges(edges) +
                            options_.task_overhead_seconds;
        break;
      }
      case EngineKind::kCompaction: {
        it->partitions_compaction += count;
        CompactionResult compact = CompactActiveEdges(
            view_, actives, Program::kNeedsWeights && view_.is_weighted());
        it->measured_compaction_seconds += compact.measured_seconds;
        stats_.AddCompactedBytes(compact.bytes_moved);
        st.cpu_seconds = static_cast<double>(compact.bytes_moved) /
                         cpu_model_->compaction_bytes_per_second();

        const uint64_t bytes = compact.sub.TransferBytes();
        const uint64_t tlps = pcie_->ExplicitCopyTlps(bytes);
        stats_.AddExplicit(bytes, tlps);
        st.transfer_seconds = pcie_->ExplicitCopySeconds(bytes) +
                              options_.task_overhead_seconds;

        uint64_t edges = RunKernelOnSubCsr(view_, compact.sub, *program, next);
        if (options_.extra_rounds != 0) {
          // Only the compacted vertices' edges are on the GPU.
          edges += RunExtraRounds(task, &actives, next, program);
        }
        stats_.AddKernelEdges(edges);
        st.kernel_seconds = gpu_model_->SecondsForEdges(edges) +
                            options_.task_overhead_seconds;
        break;
      }
      case EngineKind::kZeroCopy: {
        it->partitions_zero_copy += count;
        const double ratio =
            task.total_edges == 0
                ? 0.0
                : static_cast<double>(task.active_edges) /
                      static_cast<double>(task.total_edges);
        const uint64_t line_bytes =
            task.zc_requests * options_.pcie.max_request_bytes;
        stats_.AddZeroCopy(
            line_bytes, task.zc_requests,
            CeilDiv(task.zc_requests, options_.pcie.requests_per_tlp));
        st.transfer_seconds =
            pcie_->ZeroCopySeconds(task.zc_requests, ratio) +
            options_.task_overhead_seconds;
        // No extra rounds: zero-copy loads nothing, re-access would pay the
        // PCIe cost again (Section VI-A applies to *loaded* subgraphs).
        const uint64_t edges = RunKernel(view_, actives, *program, next);
        stats_.AddKernelEdges(edges);
        st.kernel_seconds = gpu_model_->SecondsForEdges(edges) +
                            options_.task_overhead_seconds;
        st.fused_transfer_kernel = true;
        break;
      }
      case EngineKind::kUnifiedMemory: {
        it->partitions_um += count;
        UnifiedMemoryReport report;
        uint64_t spill_requests = 0;  // Grus: zero-copy fallback
        for (VertexId v : actives) {
          // Logical offsets: UM pages are addressed in the folded layout.
          const uint64_t begin = view_.edge_begin(v) * bytes_per_edge_;
          const uint64_t end = view_.edge_end(v) * bytes_per_edge_;
          if (options_.system == SystemKind::kGrus) {
            if (!um_engine_->TouchIfCacheable(begin, end, &report)) {
              spill_requests += zc_access_->RequestsForVertex(
                  view_, v, Program::kNeedsWeights && view_.is_weighted());
            }
          } else {
            report += um_engine_->Touch(begin, end);
          }
        }
        stats_.AddUnifiedMemory(report.bytes_migrated, report.faults);
        it->um_pages_touched += report.pages_touched;
        double transfer =
            pcie_->UnifiedMemorySeconds(report.faults, report.faults);
        if (spill_requests > 0) {
          const double ratio =
              task.total_edges == 0
                  ? 0.0
                  : static_cast<double>(task.active_edges) /
                        static_cast<double>(task.total_edges);
          stats_.AddZeroCopy(
              spill_requests * options_.pcie.max_request_bytes,
              spill_requests,
              CeilDiv(spill_requests, options_.pcie.requests_per_tlp));
          transfer += pcie_->ZeroCopySeconds(spill_requests, ratio);
        }
        st.transfer_seconds = transfer + options_.task_overhead_seconds;
        const uint64_t edges = RunKernel(view_, actives, *program, next);
        stats_.AddKernelEdges(edges);
        st.kernel_seconds = gpu_model_->SecondsForEdges(edges) +
                            options_.task_overhead_seconds;
        break;
      }
      case EngineKind::kCpu: {
        const uint64_t edges = RunKernel(view_, actives, *program, next);
        stats_.AddKernelEdges(edges);
        st.kernel_seconds = cpu_model_->SecondsForEdges(edges);
        break;
      }
    }
    timeline->Submit(st);
  }

  GraphView view_;
  SolverOptions options_;
  uint64_t bytes_per_edge_ = 4;
  uint64_t staging_budget_bytes_ = 0;
  bool initialized_ = false;
  /// Recycled active-list buffer (one collect per push iteration).
  std::vector<VertexId> actives_scratch_;

  std::vector<Partition> partitions_;
  std::unique_ptr<DeviceMemory> device_memory_;
  std::unique_ptr<PcieModel> pcie_;
  std::unique_ptr<ZeroCopyAccess> zc_access_;
  std::unique_ptr<GpuComputeModel> gpu_model_;
  std::unique_ptr<CpuComputeModel> cpu_model_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<UnifiedMemoryEngine> um_engine_;
  TransferStats stats_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_CORE_SOLVER_H_

// Per-lane execution state for the solver's partition lanes
// (SolverOptions::num_workers). Each lane owns a contiguous partition range
// for the query's lifetime and, per iteration, runs its partitions' tasks
// through a LaneSink: activations of lane-owned vertices go straight into
// the global next frontier, activations of foreign vertices are deduped by
// a lane-local bitmap and appended to a single-producer outbox addressed
// to the owning lane. At the iteration barrier every lane drains the
// outboxes addressed to it into the global next frontier, so each vertex
// is published by its owner only and the shared bitmap's words stay
// near-disjoint. A one-lane team owns every vertex, so its outboxes stay
// empty and the sink is a direct write into the next frontier.

#ifndef HYTGRAPH_CORE_LANE_STATE_H_
#define HYTGRAPH_CORE_LANE_STATE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/trace.h"
#include "engine/frontier.h"
#include "util/atomic_bitmap.h"

namespace hytgraph {

struct LaneState {
  LaneState(VertexId num_vertices, int num_lanes)
      : foreign_seen(num_vertices), outbox(num_lanes) {}

  /// Owned ranges, fixed for the query's lifetime. Partitions are
  /// contiguous, so the partition range induces the vertex range.
  uint32_t p_begin = 0;
  uint32_t p_end = 0;
  VertexId v_begin = 0;
  VertexId v_end = 0;

  /// Foreign vertices this lane queued this iteration (the outbox dedup
  /// set). Only this lane writes it, so no atomics are contended.
  AtomicBitmap foreign_seen;

  /// outbox[peer]: foreign activations owned by `peer`, each appended on
  /// its first activation only.
  std::vector<std::vector<VertexId>> outbox;

  /// Per-iteration outputs, read by the coordinator at the barrier.
  IterationTrace partial;
  double sim_seconds = 0;        // lane timeline makespan
  double transfer_busy = 0;
  double kernel_busy = 0;
  double cpu_busy = 0;
  double wall_seconds = 0;       // measured execute-phase wall time
  uint64_t pull_edges = 0;

  /// Resets the per-iteration outputs. The dedup set is cleared through
  /// the outboxes, so a lane pays for the foreign activations it queued,
  /// not for the vertex space.
  void BeginIteration() {
    for (auto& box : outbox) {
      for (const VertexId v : box) foreign_seen.Clear(v);
      box.clear();
    }
    partial = IterationTrace{};
    sim_seconds = transfer_busy = kernel_busy = cpu_busy = wall_seconds = 0;
    pull_edges = 0;
  }
};

/// The activation sink lane kernels write through (the `Sink` parameter of
/// RunKernel / RunKernelOnSubCsr). Also forwards the Deactivate /
/// CollectRange surface RunExtraRounds consumes; extra rounds only touch
/// vertices inside the lane's own partitions, so those calls go straight
/// to the next frontier.
class LaneSink {
 public:
  LaneSink(LaneState* lane, Frontier* next,
           std::span<const VertexId> lane_starts)
      : lane_(lane),
        next_(next),
        v_begin_(lane->v_begin),
        owned_count_(lane->v_end - lane->v_begin),
        lane_starts_(lane_starts) {}

  /// Returns true if v was newly activated (owned) or newly queued
  /// (foreign) by this call. Kernels call this once per improving edge, so
  /// the ownership test is one unsigned compare on the sink's own fields.
  bool Activate(VertexId v, const GraphView& view) {
    if (v - v_begin_ < owned_count_) return next_->Activate(v, view);
    if (!lane_->foreign_seen.TestAndSet(v)) return false;
    const auto owner = static_cast<size_t>(
        std::upper_bound(lane_starts_.begin(), lane_starts_.end(), v) -
        lane_starts_.begin() - 1);
    lane_->outbox[owner].push_back(v);
    return true;
  }

  void Deactivate(VertexId v, EdgeId out_degree) {
    next_->Deactivate(v, out_degree);
  }

  void CollectRange(VertexId first, VertexId last,
                    std::vector<VertexId>* out) const {
    next_->CollectRange(first, last, out);
  }

 private:
  LaneState* lane_;
  Frontier* next_;
  VertexId v_begin_;
  VertexId owned_count_;
  std::span<const VertexId> lane_starts_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_CORE_LANE_STATE_H_

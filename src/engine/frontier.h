// Active-vertex frontier, bitmap-directed (Section VI-C: "bitmap-directed
// frontier optimization to reduce the atomic conflict of active vertex
// maintenance"). The solver keeps two frontiers (current / next) and swaps
// them between iterations; push engines collect sorted active lists from
// the bitmap, pull engines scan the bitmap words directly (no list
// materialization).
//
// The active count is maintained incrementally on Activate/Deactivate, so
// CountActive()/Empty() are O(1) instead of an O(V/64) popcount per call —
// the per-iteration direction decision and the convergence check read it
// every iteration. Cost: one extra relaxed fetch_add on a shared counter
// per *newly activated* vertex (re-activations are filtered by the bitmap's
// test-before-RMW). If the counter line ever shows up in kernel profiles,
// per-shard counters merged at kernel end are the next step; the dedicated
// line has not been measurable next to the per-edge relaxation work so far.
//
// The frontier also tracks the *scout count* (Beamer's term): the sum of
// view-adjusted out-degrees of the active vertices — the m_f the auto
// push->pull direction decision compares against |E|/alpha. Producers that
// have the view at hand (the push kernels) maintain it incrementally via
// Activate(v, view); producers that do not (program
// InitFrontier hooks, the pull kernel's local activation) use the plain
// overloads, which mark the scout count invalid — the solver then falls
// back to the O(n_f) FrontierActiveEdges bitmap scan for that one decision
// instead of trusting a stale sum. Steady-state push iterations therefore
// pay no per-iteration scan at all.

#ifndef HYTGRAPH_ENGINE_FRONTIER_H_
#define HYTGRAPH_ENGINE_FRONTIER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "graph/types.h"
#include "util/atomic_bitmap.h"

namespace hytgraph {

class Frontier {
 public:
  explicit Frontier(VertexId num_vertices) : bitmap_(num_vertices) {}

  /// Sized for a live view (the vertex universe is overlay-invariant, so
  /// this is the base vertex count).
  explicit Frontier(const GraphView& view) : bitmap_(view.num_vertices()) {}

  /// Thread-safe activation; returns true if v was newly activated. The
  /// caller does not supply v's out-degree, so the scout count goes
  /// invalid (the next direction decision rescans the bitmap).
  bool Activate(VertexId v) {
    if (!bitmap_.TestAndSet(v)) return false;
    scout_valid_.store(false, std::memory_order_relaxed);
    active_count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Thread-safe activation that maintains the scout count: adds v's
  /// out-degree in `view`, the view this frontier spans (the same degrees
  /// FrontierActiveEdges would sum). The degree is looked up only when v is
  /// newly activated, so a push kernel calling this per improving edge pays
  /// for it once per vertex. Returns true if v was newly activated.
  bool Activate(VertexId v, const GraphView& view) {
    if (!bitmap_.TestAndSet(v)) return false;
    active_count_.fetch_add(1, std::memory_order_relaxed);
    scout_count_.fetch_add(view.out_degree(v), std::memory_order_relaxed);
    return true;
  }

  /// Thread-safe deactivation (used when a vertex's pending update is
  /// consumed by an extra asynchronous round). Invalidates the scout count;
  /// use the degree-carrying overload to keep it exact.
  void Deactivate(VertexId v) {
    if (bitmap_.TestAndClear(v)) {
      scout_valid_.store(false, std::memory_order_relaxed);
      active_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Scout-maintaining deactivation: `out_degree` must be v's out-degree in
  /// the view this frontier spans.
  void Deactivate(VertexId v, EdgeId out_degree) {
    if (bitmap_.TestAndClear(v)) {
      active_count_.fetch_sub(1, std::memory_order_relaxed);
      scout_count_.fetch_sub(out_degree, std::memory_order_relaxed);
    }
  }

  bool IsActive(VertexId v) const { return bitmap_.Test(v); }

  /// O(1): incrementally maintained, not a bitmap rescan.
  uint64_t CountActive() const {
    return active_count_.load(std::memory_order_relaxed);
  }
  bool Empty() const { return CountActive() == 0; }

  /// True while every activation/deactivation since the last Clear carried
  /// its out-degree — i.e. ScoutCount() equals the FrontierActiveEdges
  /// bitmap scan exactly.
  bool ScoutValid() const {
    return scout_valid_.load(std::memory_order_relaxed);
  }

  /// Sum of active vertices' out-degrees (Beamer's scout_count).
  /// Meaningful only when ScoutValid().
  uint64_t ScoutCount() const {
    return scout_count_.load(std::memory_order_relaxed);
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(bitmap_.size());
  }

  /// All active vertices, ascending.
  std::vector<VertexId> Collect() const;

  /// All active vertices, ascending, into a caller-owned buffer (cleared
  /// first). Reusing one buffer across iterations avoids the per-iteration
  /// active-list reallocation.
  void CollectInto(std::vector<VertexId>* out) const;

  /// Active vertices within [begin, end), ascending, appended to out.
  void CollectRange(VertexId begin, VertexId end,
                    std::vector<VertexId>* out) const;

  /// Collects active vertices in [begin, end) AND clears their bits — the
  /// primitive behind asynchronous extra rounds (take the pending set,
  /// consume it).
  std::vector<VertexId> DrainRange(VertexId begin, VertexId end);

  void Clear() {
    bitmap_.ClearAll();
    active_count_.store(0, std::memory_order_relaxed);
    scout_count_.store(0, std::memory_order_relaxed);
    scout_valid_.store(true, std::memory_order_relaxed);
  }

  /// The bitmap words, for dense iteration (pull kernels test membership
  /// and scan candidates without an active-list materialization). Bit v of
  /// the frontier lives at Words()[v / kBitsPerWord].
  std::span<const std::atomic<uint64_t>> Words() const {
    return bitmap_.words();
  }
  static constexpr uint64_t kBitsPerWord = AtomicBitmap::kBitsPerWord;

 private:
  AtomicBitmap bitmap_;
  // The counters get their own cache line: every kernel thread reads the
  // bitmap's header on each activation and writes the counters on each
  // new one. Where a Frontier's stack placement put both on one line,
  // pool-parallel PageRank cost 35-50% more CPU time.
  alignas(64) std::atomic<uint64_t> active_count_{0};
  std::atomic<uint64_t> scout_count_{0};
  std::atomic<bool> scout_valid_{true};
};

}  // namespace hytgraph

#endif  // HYTGRAPH_ENGINE_FRONTIER_H_

// Host-executed "GPU kernels": push-mode edge relaxation over an active
// vertex set, plus a pull-mode gather over the reverse view, parallelized
// on the thread pool. The vertex program supplies the per-vertex and
// per-edge behaviour; the kernel supplies iteration order, parallelism, and
// frontier maintenance. Results are exact — only the *time* of these
// kernels is taken from the compute model.
//
// Edge expansion runs on a GraphView: vertices with no pending delta take
// the dense base-CSR span path (identical code to the static engine);
// delta vertices merge tombstone-filtered base edges with overlay inserts
// on the fly. A query therefore never waits for a snapshot fold — the
// per-vertex overlay lookup is the price, measured by bench_view_overhead.
//
// Program concept (see algorithms/programs.h for implementations):
//   struct P {
//     using VertexContext = ...;       // per-source state for one visit
//     bool BeginVertex(VertexId u, VertexContext* ctx);   // false: skip u
//     bool ProcessEdge(const VertexContext& ctx, VertexId u, VertexId v,
//                      Weight w);      // true: v's value changed, activate
//   };

#ifndef HYTGRAPH_ENGINE_KERNELS_H_
#define HYTGRAPH_ENGINE_KERNELS_H_

#include <atomic>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/compactor.h"
#include "engine/frontier.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "util/thread_pool.h"

namespace hytgraph {

/// A program the pull kernel can run: the value-selection family, which
/// exposes a per-vertex potential (the best value an active vertex could
/// write this iteration) and a settled test against the frontier-wide
/// floor. Delta-accumulation programs (PR/PHP) are excluded structurally:
/// their BeginVertex consumes the pending delta, so calling it once per
/// in-edge (as pull does) would double-count mass.
template <typename P>
concept PullCapableProgram =
    !P::kHasDelta && requires(const P& p, VertexId v) {
      typename P::PullBound;
      { P::WorstBound() } -> std::same_as<typename P::PullBound>;
      {
        P::BetterBound(P::WorstBound(), P::WorstBound())
      } -> std::same_as<typename P::PullBound>;
      { p.PullPotential(v) } -> std::same_as<typename P::PullBound>;
      { p.SettledAt(v, P::WorstBound()) } -> std::convertible_to<bool>;
    };

/// Relaxes all out-edges of every vertex in `actives` against `view`,
/// activating changed targets in `next`. Returns the number of edges
/// processed (the kernel-time unit).
///
/// Activations carry the target's view-adjusted out-degree, so `next`'s
/// scout count (activated out-edges, Beamer's m_f) stays exact — the auto
/// direction decision reads it in O(1) instead of rescanning the bitmap.
/// The degree lookup runs once per *newly activated* vertex (the bitmap
/// filters re-activations), not per edge.
///
/// `Sink` is anything with Frontier's Activate(v) / Activate(v, degree)
/// surface: the global Frontier on the sequential path, a lane-local sink
/// (core/lane_state.h) under parallel partition execution.
template <typename Program, typename Sink = Frontier>
uint64_t RunKernel(const GraphView& view, std::span<const VertexId> actives,
                   Program& program, Sink* next) {
  if (actives.empty()) return 0;
  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      actives.size(),
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        uint64_t local_edges = 0;
        // One lease per shard: active lists are sorted ascending, so an
        // out-of-core base pays one cache acquire per block, not per vertex.
        BlockRef lease;
        for (uint64_t i = begin; i < end; ++i) {
          const VertexId u = actives[i];
          typename Program::VertexContext ctx;
          if (!program.BeginVertex(u, &ctx)) continue;
          if (view.HasDelta(u)) {
            // Merged adjacency: surviving base edges, then overlay inserts.
            view.ForEachNeighborLeased(u, &lease, [&](VertexId v, Weight w) {
              ++local_edges;
              if (program.ProcessEdge(ctx, u, v, w)) {
                next->Activate(v, view.out_degree(v));
              }
            });
            continue;
          }
          const AdjacencyRun run = view.BaseRun(u, &lease);
          const std::span<const VertexId> nbrs = run.targets;
          const std::span<const Weight> wts = run.weights;
          local_edges += nbrs.size();
          // Weightedness is a graph property, not a per-edge one: branch
          // once per vertex, not once per edge.
          if (wts.empty()) {
            for (const VertexId v : nbrs) {
              if (program.ProcessEdge(ctx, u, v, Weight{1})) {
                next->Activate(v, view.out_degree(v));
              }
            }
          } else {
            for (size_t e = 0; e < nbrs.size(); ++e) {
              if (program.ProcessEdge(ctx, u, nbrs[e], wts[e])) {
                next->Activate(nbrs[e], view.out_degree(nbrs[e]));
              }
            }
          }
        }
        edges_processed.fetch_add(local_edges, std::memory_order_relaxed);
      },
      /*min_grain=*/64);
  return edges_processed.load();
}

/// CsrGraph convenience overload (static callers, tests): a transparent
/// non-owning view over `graph`.
template <typename Program>
uint64_t RunKernel(const CsrGraph& graph, std::span<const VertexId> actives,
                   Program& program, Frontier* next) {
  return RunKernel(GraphView::Wrap(graph), actives, program, next);
}

/// Pull-mode relaxation: for every candidate vertex v (dense scan over the
/// whole vertex space — no active-list materialization), gather from the
/// in-neighbours that are in `current`, applying the same ProcessEdge
/// relaxations push would. The edge set relaxed is identical to push's
/// (all (u, v) with u active), so the converged fixpoint values are
/// identical; per-iteration frontiers can drift slightly — pull reads
/// BeginVertex(u) per in-edge where push snapshots it once per active
/// vertex, so mid-iteration improvements may propagate one iteration
/// earlier or later than under push (monotonicity makes either schedule
/// converge to the same values). The wins are structural:
///
///  * next-frontier maintenance is one local Activate per *changed
///    candidate* instead of one atomic per improving edge (the dense-
///    iteration contention the bitmap-directed frontier tries to contain);
///  * a candidate already at the iteration floor — the best potential any
///    frontier vertex holds, a conservative bound on every offer — skips
///    its scan entirely, and a candidate that reaches the floor mid-scan
///    early-exits (classic direction-optimizing payoff: one parent found,
///    stop).
///
/// Requires the view's reverse side; builds it on first use (O(E) once per
/// layout version — the Engine seeds the transpose across epochs).
/// Returns in-edges scanned (including frontier-membership misses), the
/// honest work unit pull is judged by.
template <typename Program>
  requires PullCapableProgram<Program>
typename Program::PullBound PullIterationFloor(const Frontier& current,
                                               Program& program) {
  using Bound = typename Program::PullBound;
  // Iteration floor: reduce the per-vertex potentials over the frontier
  // bitmap (per-shard partials, combined in shard order — deterministic).
  const auto words = current.Words();
  std::vector<Bound> shard_bounds(
      static_cast<size_t>(ThreadPool::Default()->num_threads()) + 1,
      Program::WorstBound());
  ThreadPool::Default()->ParallelFor(
      words.size(),
      [&](int shard, uint64_t begin, uint64_t end) {
        Bound local = Program::WorstBound();
        for (uint64_t w = begin; w < end; ++w) {
          uint64_t bits = words[w].load(std::memory_order_relaxed);
          while (bits != 0) {
            const VertexId u = static_cast<VertexId>(
                w * Frontier::kBitsPerWord +
                static_cast<uint64_t>(std::countr_zero(bits)));
            local = Program::BetterBound(local, program.PullPotential(u));
            bits &= bits - 1;
          }
        }
        shard_bounds[shard] = Program::BetterBound(shard_bounds[shard], local);
      },
      /*min_grain=*/256);
  Bound floor = Program::WorstBound();
  for (const Bound b : shard_bounds) floor = Program::BetterBound(floor, b);
  return floor;
}

/// Serial pull gather over the candidate range [v_begin, v_end) against a
/// precomputed iteration floor. The parallel-lane pull path hands each lane
/// a disjoint candidate slice of this scan; RunPullKernel composes it with
/// pool sharding for the sequential path. Activations into `next` are plain
/// Activate(v) (scout-invalidating — pull iterations rebuild m_f by scan).
template <typename Program>
  requires PullCapableProgram<Program>
uint64_t RunPullKernelRange(const GraphView& view, const Frontier& current,
                            Program& program, Frontier* next,
                            typename Program::PullBound floor,
                            VertexId v_begin, VertexId v_end) {
  uint64_t local_edges = 0;
  // One lease for the whole slice: the dense ascending scan re-pins the
  // transpose block only on boundary crossings when it streams.
  BlockRef lease;
  for (VertexId v = v_begin; v < v_end; ++v) {
    if (program.SettledAt(v, floor)) continue;
    bool changed = false;
    view.ForEachInNeighborWhileLeased(v, &lease, [&](VertexId u, Weight w) {
      ++local_edges;
      if (!current.IsActive(u)) return true;
      typename Program::VertexContext ctx;
      if (!program.BeginVertex(u, &ctx)) return true;
      if (program.ProcessEdge(ctx, u, v, w)) {
        changed = true;
        // Settled at the floor: no remaining in-neighbour can offer
        // better — stop the scan.
        if (program.SettledAt(v, floor)) return false;
      }
      return true;
    });
    if (changed) next->Activate(v);
  }
  return local_edges;
}

template <typename Program>
  requires PullCapableProgram<Program>
uint64_t RunPullKernel(const GraphView& view, const Frontier& current,
                       Program& program, Frontier* next) {
  const VertexId n = view.num_vertices();
  if (n == 0) return 0;
  // The solver builds the reverse side (and handles a failed build) before
  // its first pull iteration; here it is a no-op load, or a build for
  // direct callers on resident graphs, which cannot fail.
  const Status reverse = view.EnsureReverse();
  HYT_CHECK(reverse.ok()) << reverse.ToString();

  const auto floor = PullIterationFloor(current, program);

  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      n,
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        edges_processed.fetch_add(
            RunPullKernelRange(view, current, program, next, floor,
                               static_cast<VertexId>(begin),
                               static_cast<VertexId>(end)),
            std::memory_order_relaxed);
      },
      /*min_grain=*/256);
  return edges_processed.load();
}

/// Same as RunKernel but over a compacted subgraph (Subway-style GPU-side
/// processing of the shipped sub-CSR). Identical relaxation semantics.
/// `view` is the graph the sub-CSR was compacted from — activations carry
/// its degrees so the scout count stays exact (targets can lie outside the
/// compacted vertex set, so the sub-CSR's own offsets can't supply them).
template <typename Program, typename Sink = Frontier>
uint64_t RunKernelOnSubCsr(const GraphView& view, const SubCsr& sub,
                           Program& program, Sink* next) {
  if (sub.vertices.empty()) return 0;
  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      sub.vertices.size(),
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        uint64_t local_edges = 0;
        for (uint64_t i = begin; i < end; ++i) {
          const VertexId u = sub.vertices[i];
          typename Program::VertexContext ctx;
          if (!program.BeginVertex(u, &ctx)) continue;
          const EdgeId lo = sub.row_offsets[i];
          const EdgeId hi = sub.row_offsets[i + 1];
          local_edges += hi - lo;
          for (EdgeId e = lo; e < hi; ++e) {
            const Weight w = sub.weights.empty() ? Weight{1} : sub.weights[e];
            if (program.ProcessEdge(ctx, u, sub.column_index[e], w)) {
              next->Activate(sub.column_index[e],
                             view.out_degree(sub.column_index[e]));
            }
          }
        }
        edges_processed.fetch_add(local_edges, std::memory_order_relaxed);
      },
      /*min_grain=*/64);
  return edges_processed.load();
}

}  // namespace hytgraph

#endif  // HYTGRAPH_ENGINE_KERNELS_H_

// Hub-sort-aware execution plumbing: PreparedGraph (a graph preprocessed
// for one options set) and per-algorithm runners over it.
//
// NOTE: the public facade of this library is `hytgraph::Engine`
// (core/engine.h). The Engine owns the graph, memoizes PreparedGraph
// instances across queries (so repeated queries never re-run the hub sort),
// dispatches through the algorithm registry (algorithms/registry.h), and
// batches multi-source query sets on the thread pool. The Run*On overloads
// below operate on an explicit PreparedGraph and back the registry's run
// hooks; construct an Engine and submit Query objects instead of calling
// them directly. (The old one-shot free functions RunBfs/RunSssp/... that
// re-prepared the graph on every call were removed after all callers
// migrated to the Engine.)
//
// HyTGraph with contribution-driven scheduling requires the hub-sorted
// vertex order (Section VI-A); these runners apply the reordering, remap the
// source, run the solver, and map values back — callers never see relabeled
// ids.

#ifndef HYTGRAPH_ALGORITHMS_RUNNER_H_
#define HYTGRAPH_ALGORITHMS_RUNNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/registry.h"
#include "core/options.h"
#include "core/trace.h"
#include "graph/base_derived.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "util/status.h"

namespace hytgraph {

/// A graph preprocessed for a particular options set: hub-sorted when the
/// system needs it, plus the id mappings.
///
/// Preparation operates on GraphViews end to end. A reordering preparation
/// takes the hub-sorted *base* from the base snapshot's shared derived data
/// (relabeled once per base: the order is scored on the base's degrees and
/// recomputed at each fold) and remaps only the pending overlay through the
/// permutation, O(delta); a non-reordering preparation is the input view
/// unchanged. Either way the solver executes directly on base + delta — no
/// snapshot fold.
class PreparedGraph {
 public:
  /// Whether `options` calls for the hub-sorted vertex order (the expensive
  /// part of preparation). Exposed so the Engine can fingerprint
  /// preparations: all options sets for which this is false share one
  /// identity preparation.
  static bool WantsReorder(const SolverOptions& options) {
    return options.system == SystemKind::kHyTGraph &&
           options.enable_contribution_scheduling &&
           options.hub_fraction > 0;
  }

  /// Prepares `view` for `options`. The view pins its own base/overlay
  /// snapshots, so the preparation is self-contained (when the view wraps
  /// borrowed storage, that storage must outlive the PreparedGraph).
  static Result<PreparedGraph> Make(const GraphView& view,
                                    const SolverOptions& options);

  /// Static-graph convenience. The graph must outlive the PreparedGraph.
  static Result<PreparedGraph> Make(const CsrGraph& graph,
                                    const SolverOptions& options) {
    return Make(GraphView::Wrap(graph), options);
  }

  /// The view the solver executes on (relabeled when reordered()).
  const GraphView& view() const { return view_; }
  bool reordered() const { return sorted_ != nullptr; }
  VertexId MapSource(VertexId original_id) const {
    return reordered() ? sorted_->old_to_new[original_id] : original_id;
  }

  /// Maps a solver-space vertex id back to the original id (identity when
  /// not reordered). Used for value payloads that are themselves vertex ids
  /// (CC labels).
  VertexId MapVertexBack(VertexId solver_id) const {
    return reordered() ? sorted_->new_to_old[solver_id] : solver_id;
  }

  /// Maps a value vector from solver (possibly relabeled) ids back to the
  /// original ids.
  template <typename T>
  std::vector<T> MapValuesBack(std::vector<T> values) const {
    if (!reordered()) return values;
    const std::vector<VertexId>& new_to_old = sorted_->new_to_old;
    std::vector<T> out(values.size());
    for (size_t new_id = 0; new_id < values.size(); ++new_id) {
      out[new_to_old[new_id]] = values[new_id];
    }
    return out;
  }

 private:
  GraphView view_;
  /// The shared hub-sorted base and its permutation (null when not
  /// reordered); never copied per preparation.
  std::shared_ptr<const HubSortedBase> sorted_;
};

template <typename V>
struct AlgorithmOutput {
  std::vector<V> values;  // indexed by original vertex id
  RunTrace trace;
};

/// Overloads on an existing PreparedGraph (no re-sorting). The prepared
/// graph must have been built with compatible options. These back the
/// algorithm registry's run hooks; call them through Engine/RunAlgorithmOn
/// rather than directly.
Result<AlgorithmOutput<uint32_t>> RunBfsOn(const PreparedGraph& prepared,
                                           VertexId source,
                                           const SolverOptions& options);
Result<AlgorithmOutput<uint32_t>> RunSsspOn(const PreparedGraph& prepared,
                                            VertexId source,
                                            const SolverOptions& options);
Result<AlgorithmOutput<uint32_t>> RunCcOn(const PreparedGraph& prepared,
                                          const SolverOptions& options);
Result<AlgorithmOutput<double>> RunPageRankOn(const PreparedGraph& prepared,
                                              const SolverOptions& options,
                                              double damping = 0.85,
                                              double epsilon = 1e-6);
Result<AlgorithmOutput<double>> RunPhpOn(const PreparedGraph& prepared,
                                         VertexId source,
                                         const SolverOptions& options,
                                         double damping = 0.8,
                                         double epsilon = 1e-6);
Result<AlgorithmOutput<uint32_t>> RunSswpOn(const PreparedGraph& prepared,
                                            VertexId source,
                                            const SolverOptions& options);

/// Runs `algorithm` (source used by the source-seeded algorithms) and
/// returns just the trace — the shape benches need. Dispatches through the
/// registry, so all six algorithms are covered.
Result<RunTrace> RunAlgorithmTrace(const CsrGraph& graph,
                                   AlgorithmId algorithm, VertexId source,
                                   const SolverOptions& options);

}  // namespace hytgraph

#endif  // HYTGRAPH_ALGORITHMS_RUNNER_H_

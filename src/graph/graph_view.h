// GraphView: the logical graph the whole execution stack runs on — an
// immutable base CSR plus an optional DeltaOverlay of pending mutations.
//
// Queries never wait for a fold: the view merges base adjacency with the
// overlay on the fly (tombstone-filtered base edges first, then inserts),
// while degree/offset queries go through *logical* row offsets — the row
// offsets the folded CSR would have. That second point is what keeps the
// cost model honest under deltas: formulas (1)-(3) see exactly the counts
// and alignments a compacted snapshot would produce, so engine selection on
// a view matches engine selection on the folded-from-scratch CSR
// (property-tested), while compaction itself becomes a policy decision off
// the query path.
//
// Logical offsets are served from a *lazily built* array: view construction
// is O(1) — publication (Engine::ApplyMutations holding its write lock)
// never pays an O(V) prefix rebuild — and the first offset-dependent read
// builds the folded row offsets once per view (O(V), with O(1) per-vertex
// degrees through the overlay's incrementally patched degree deltas).
// Every query is already Ω(V), so the one-time build vanishes into the
// first query on a new epoch while lookups stay O(1) array reads on the
// hot kernel paths.
//
// The view also carries a lazily built *reverse* side for pull-direction
// processing: the transpose of the base CSR plus a reverse index of the
// overlay (inserts and tombstones keyed by forward target), so
// ForEachInNeighbor sees exactly the in-edges of the mutated graph with the
// same zero-fold guarantee as the forward path. The transpose is O(E) to
// build and belongs to the base snapshot: it lives in the base's
// BaseDerivedData record, which the Engine hands to every view it publishes
// over that base, so it is built at most once per base (a fold publishes a
// new base with a new record). Only the reverse overlay index is per view,
// O(delta).
//
// A view is a cheap value type (a handful of shared_ptrs): copies share the
// base, overlay, offset index, and reverse index, and holders pin all graph
// components for as long as they keep the view — this is how in-flight
// queries keep a consistent graph while mutations publish new snapshots.
//
// `Wrap` adapts borrowed storage (a plain CsrGraph or DeltaOverlay owned by
// the caller) into a non-owning view for code that predates the Engine's
// shared snapshots; the wrapped object must outlive the view and must not
// be mutated while the view reads it.

#ifndef HYTGRAPH_GRAPH_GRAPH_VIEW_H_
#define HYTGRAPH_GRAPH_GRAPH_VIEW_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dynamic/delta_overlay.h"
#include "graph/base_derived.h"
#include "graph/csr_graph.h"
#include "graph/types.h"
#include "storage/edge_block_store.h"
#include "util/logging.h"
#include "util/status.h"

namespace hytgraph {

class GraphView {
 public:
  GraphView() = default;

  /// A view over `base` with `overlay` layered on top. `overlay` may be
  /// null or empty (a transparent view of the base); when present it must
  /// be anchored on `base`. O(1): the logical-offset index is built lazily
  /// on first use, off the mutator's publication path.
  ///
  /// `storage` streams the base adjacency when the base's edge arrays are
  /// spilled out of core; when null it is inherited from the overlay (so a
  /// view over an out-of-core overlay streams without extra plumbing).
  ///
  /// `derived` is the base's shared derived-data record (transpose, hub
  /// sorts); it must be anchored on `base`. When null the view creates a
  /// private one, shared only by its copies.
  explicit GraphView(std::shared_ptr<const CsrGraph> base,
                     std::shared_ptr<const DeltaOverlay> overlay = nullptr,
                     std::shared_ptr<const EdgeBlockStore> storage = nullptr,
                     std::shared_ptr<BaseDerivedData> derived = nullptr);

  /// Non-owning view of a caller-owned graph (no overlay). The graph must
  /// outlive the view.
  static GraphView Wrap(const CsrGraph& graph) {
    return GraphView(
        std::shared_ptr<const CsrGraph>(std::shared_ptr<const void>(), &graph));
  }

  /// Non-owning view of a caller-owned overlay (the base is shared through
  /// the overlay). The overlay must outlive the view.
  static GraphView Wrap(const DeltaOverlay& overlay) {
    return GraphView(overlay.base_ptr(),
                     std::shared_ptr<const DeltaOverlay>(
                         std::shared_ptr<const void>(), &overlay));
  }

  const CsrGraph& base() const { return *base_; }
  std::shared_ptr<const CsrGraph> base_ptr() const { return base_; }
  std::shared_ptr<const DeltaOverlay> overlay_ptr() const { return overlay_; }
  const std::shared_ptr<const EdgeBlockStore>& storage() const {
    return storage_;
  }
  /// The base snapshot's derived-data record (null on an empty view).
  const std::shared_ptr<BaseDerivedData>& derived() const { return derived_; }
  /// True when the base adjacency streams from the edge-block store (the
  /// overlay, if any, always stays in memory).
  bool base_streamed() const { return storage_ != nullptr; }

  /// True when pending mutations are layered over the base (an empty
  /// overlay is dropped at construction, so this means a real delta).
  bool has_overlay() const { return overlay_ != nullptr; }
  /// Pending delta size (suppressed base edges + inserted edges).
  uint64_t delta_edges() const {
    return overlay_ == nullptr ? 0 : overlay_->delta_edges();
  }
  /// Whether v has any pending delta (false on every vertex of a
  /// transparent view).
  bool HasDelta(VertexId v) const {
    return overlay_ != nullptr && overlay_->HasDelta(v);
  }

  VertexId num_vertices() const {
    return base_ == nullptr ? 0 : base_->num_vertices();
  }
  EdgeId num_edges() const {
    return overlay_ == nullptr ? base_->num_edges() : overlay_->num_edges();
  }
  bool is_weighted() const { return base_->is_weighted(); }

  /// Out-degree of v in the mutated graph (O(1) once the lazy offsets are
  /// built; the first offset-dependent call on a view pays the O(V) build).
  EdgeId out_degree(VertexId v) const {
    if (overlay_ == nullptr) return base_->out_degree(v);
    const std::vector<EdgeId>& offsets = Offsets();
    return offsets[v + 1] - offsets[v];
  }

  /// Logical edge offsets: where v's neighbour run would start/end in the
  /// folded CSR. Transfer accounting (zero-copy alignment, UM page touch)
  /// uses these so a view costs exactly what its compacted snapshot would.
  EdgeId edge_begin(VertexId v) const {
    return overlay_ == nullptr ? base_->edge_begin(v) : Offsets()[v];
  }
  EdgeId edge_end(VertexId v) const {
    return overlay_ == nullptr ? base_->edge_end(v) : Offsets()[v + 1];
  }

  /// Logical edges in the vertex range [first, last) — what
  /// Partition::num_edges() reports when partitions are built on a view.
  /// (`edge_begin(n)` is the total edge count, so last == num_vertices()
  /// is valid.)
  EdgeId EdgesInRange(VertexId first, VertexId last) const {
    return edge_begin(last) - edge_begin(first);
  }

  /// Per-range edge delta (view minus base) — per-partition introspection
  /// for compaction policies and tests (how concentrated is the pending
  /// delta?). Zero on a transparent view.
  int64_t EdgeDeltaInRange(VertexId first, VertexId last) const {
    if (overlay_ == nullptr) return 0;
    return static_cast<int64_t>(EdgesInRange(first, last)) -
           static_cast<int64_t>(base_->edge_begin(last) -
                                base_->edge_begin(first));
  }

  /// Base adjacency of v as spans, streaming through `lease` when the base
  /// is out of core (re-pinned only on block-boundary crossings, so
  /// ascending scans pay one cache acquire per block). Callers that merge
  /// overlay edges themselves (kernels, compaction) use this; weights span
  /// is empty when unweighted.
  AdjacencyRun BaseRun(VertexId v, BlockRef* lease) const {
    if (storage_ != nullptr) return storage_->Fetch(v, lease);
    return AdjacencyRun{base_->neighbors(v), base_->weights(v)};
  }

  /// Visits every out-edge of v in the mutated graph: surviving base edges
  /// in CSR order, then overlay inserts in application order. `fn` receives
  /// (target, weight); weight is 1 when the view is unweighted.
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    BlockRef lease;
    ForEachNeighborLeased(v, &lease, std::forward<Fn>(fn));
  }

  /// Lease-carrying variant for ascending scans over an out-of-core base.
  template <typename Fn>
  void ForEachNeighborLeased(VertexId v, BlockRef* lease, Fn&& fn) const {
    if (overlay_ != nullptr && overlay_->HasDelta(v)) {
      overlay_->ForEachNeighborLeased(v, lease, std::forward<Fn>(fn));
      return;
    }
    const AdjacencyRun run = BaseRun(v, lease);
    for (size_t e = 0; e < run.targets.size(); ++e) {
      fn(run.targets[e], run.weights.empty() ? Weight{1} : run.weights[e]);
    }
  }

  /// Bytes of host-resident edge-associated data of the mutated graph.
  uint64_t EdgeDataBytes() const {
    const uint64_t per_edge =
        kBytesPerNeighbor + (is_weighted() ? sizeof(Weight) : 0);
    return num_edges() * per_edge;
  }

  /// Bytes of GPU-resident vertex-associated data (vertex count is
  /// overlay-invariant, so this is the base figure).
  uint64_t VertexDataBytes(uint64_t value_bytes) const {
    return base_->VertexDataBytes(value_bytes);
  }

  /// Folds the view into a standalone CSR (what a compaction would
  /// produce). A transparent view yields a copy of the base.
  Result<CsrGraph> Materialize() const;

  /// --- Reverse side (pull-direction processing) ---

  /// Builds the reverse adjacency once per view (thread-safe, no-op after
  /// the first success): the base's transpose from the shared
  /// BaseDerivedData record (built there at most once per base), plus an
  /// O(delta) reverse index of the overlay. Must have succeeded before the
  /// lock-free in-neighbor readers below run. Returns kUnavailable —
  /// memoizing nothing, so the next call retries — when an out-of-core
  /// transpose build lost a block load.
  Status EnsureReverse() const;

  /// The transpose of the base CSR, building the reverse side on first use.
  /// This accessor and the ones below abort on a failed build; callers that
  /// may stream from storage call EnsureReverse first and handle its status.
  std::shared_ptr<const CsrGraph> reverse_base_ptr() const {
    EnsureReverseOrDie();
    return reverse_->base->graph;
  }

  /// Whether v has in-edges touched by the overlay (tombstoned or inserted
  /// edges *into* v). Builds the reverse side on first use.
  bool HasReverseDelta(VertexId v) const {
    EnsureReverseOrDie();
    return !reverse_->deltas.empty() && reverse_->deltas.contains(v);
  }

  /// Visits every in-edge of v in the mutated graph: surviving reverse-base
  /// edges in transpose CSR order, then overlay inserts targeting v. `fn`
  /// receives (source, weight); weight is 1 when the view is unweighted.
  /// Builds the reverse side on first use.
  template <typename Fn>
  void ForEachInNeighbor(VertexId v, Fn&& fn) const {
    EnsureReverseOrDie();
    ForEachInNeighborWhile(v, [&](VertexId u, Weight w) {
      fn(u, w);
      return true;
    });
  }

  /// Breakable variant: `fn` returns false to stop the scan (pull kernels
  /// early-exit once a candidate's value settles). Returns false iff the
  /// scan was stopped. Requires EnsureReverse().
  template <typename Fn>
  bool ForEachInNeighborWhile(VertexId v, Fn&& fn) const {
    BlockRef lease;
    return ForEachInNeighborWhileLeased(v, &lease, std::forward<Fn>(fn));
  }

  /// Lease-carrying variant: pull workers scanning ascending destination
  /// ranges reuse the pinned transpose block across consecutive vertices.
  template <typename Fn>
  bool ForEachInNeighborWhileLeased(VertexId v, BlockRef* lease,
                                    Fn&& fn) const {
    const ReverseIndex& reverse = *reverse_;
    std::span<const VertexId> sources;
    std::span<const Weight> wts;
    if (reverse.base->store != nullptr) {
      const AdjacencyRun run = reverse.base->store->Fetch(v, lease);
      sources = run.targets;
      wts = run.weights;
    } else {
      const CsrGraph& rbase = *reverse.base->graph;
      sources = rbase.neighbors(v);
      wts = rbase.weights(v);
    }
    const ReverseVertexDelta* delta = nullptr;
    if (!reverse.deltas.empty()) {
      auto it = reverse.deltas.find(v);
      if (it != reverse.deltas.end()) delta = &it->second;
    }
    if (wts.empty()) {
      for (const VertexId u : sources) {
        if (delta != nullptr && delta->IsTombstoned(u)) continue;
        if (!fn(u, Weight{1})) return false;
      }
    } else {
      for (size_t e = 0; e < sources.size(); ++e) {
        if (delta != nullptr && delta->IsTombstoned(sources[e])) continue;
        if (!fn(sources[e], wts[e])) return false;
      }
    }
    if (delta != nullptr) {
      const bool weighted = is_weighted();
      for (const auto& [u, w] : delta->inserts) {
        if (!fn(u, weighted ? w : Weight{1})) return false;
      }
    }
    return true;
  }

 private:
  /// The lazily built folded-CSR row offsets. Shared by all copies of the
  /// view; built once under the once_flag, immutable after.
  struct OffsetIndex {
    std::once_flag once;
    std::vector<EdgeId> offsets;  // |V|+1 folded row offsets
  };

  /// The logical row offsets, building them on first use (thread-safe).
  const std::vector<EdgeId>& Offsets() const;

  void EnsureReverseOrDie() const {
    const Status status = EnsureReverse();
    HYT_CHECK(status.ok()) << "reverse-view build failed: "
                           << status.ToString();
  }

  /// One vertex's in-edge delta: edges into the keyed vertex that the
  /// overlay inserted or tombstoned, indexed by forward *target* (= reverse
  /// source).
  struct ReverseVertexDelta {
    std::vector<std::pair<VertexId, Weight>> inserts;  // (forward source, w)
    std::vector<VertexId> tombstone_sources;           // sorted forward srcs

    bool IsTombstoned(VertexId src) const {
      return std::binary_search(tombstone_sources.begin(),
                                tombstone_sources.end(), src);
    }
  };

  /// The lazily built reverse adjacency. Shared by all copies of the view;
  /// built once under `mu` (a failed build leaves it unbuilt), immutable
  /// after `built` (readers are lock-free).
  struct ReverseIndex {
    std::mutex mu;
    std::atomic<bool> built{false};
    std::shared_ptr<const TransposedBase> base;  // shared per base snapshot
    std::unordered_map<VertexId, ReverseVertexDelta> deltas;
  };

  std::shared_ptr<const CsrGraph> base_;
  std::shared_ptr<const DeltaOverlay> overlay_;  // null = transparent
  /// Reader pin on overlay_ — one per live view instance (copies pin
  /// again, moves transfer). Engine::ApplyMutations checks the overlay's
  /// pin count under its exclusive lock to decide whether an in-place
  /// batch apply can race nobody; the pin's release-on-drop is what
  /// orders a finished reader's traversal before those in-place writes.
  OverlayPin pin_;
  /// Streams base adjacency when the base is out of core; null otherwise.
  std::shared_ptr<const EdgeBlockStore> storage_;
  std::shared_ptr<OffsetIndex> index_;           // non-null iff overlay_
  std::shared_ptr<BaseDerivedData> derived_;     // non-null iff base_
  std::shared_ptr<ReverseIndex> reverse_;        // non-null iff base_
};

}  // namespace hytgraph

#endif  // HYTGRAPH_GRAPH_GRAPH_VIEW_H_

#include "graph/graph_view.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace hytgraph {

GraphView::GraphView(std::shared_ptr<const CsrGraph> base,
                     std::shared_ptr<const DeltaOverlay> overlay,
                     std::shared_ptr<const EdgeBlockStore> storage,
                     std::shared_ptr<BaseDerivedData> derived)
    : base_(std::move(base)),
      overlay_(std::move(overlay)),
      storage_(std::move(storage)),
      derived_(std::move(derived)) {
  // An out-of-core overlay carries the base's block store; inherit it so
  // callers constructing a view from an overlay need no extra plumbing.
  if (storage_ == nullptr && overlay_ != nullptr) {
    storage_ = overlay_->base_store();
  }
  // The (empty) ReverseIndex must be allocated eagerly: copies of the view
  // share it by shared_ptr, and only construction-time allocation makes a
  // transpose built through any copy visible to every other copy — a
  // lazily allocated index would be private to whichever copy built it.
  // Push-only paths pay one small allocation per view construction and
  // never touch it again.
  if (base_ != nullptr) {
    reverse_ = std::make_shared<ReverseIndex>();
    if (derived_ == nullptr) {
      derived_ = std::make_shared<BaseDerivedData>(base_, storage_);
    }
    HYT_CHECK(derived_->base() == base_)
        << "derived data is anchored on a different base snapshot";
  }
  if (overlay_ != nullptr && overlay_->empty()) overlay_.reset();
  if (overlay_ == nullptr) return;
  pin_ = OverlayPin(overlay_);
  HYT_CHECK(&overlay_->base() == base_.get())
      << "overlay is anchored on a different base snapshot";
  index_ = std::make_shared<OffsetIndex>();
}

Status GraphView::EnsureReverse() const {
  ReverseIndex& reverse = *reverse_;
  if (reverse.built.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(reverse.mu);
  if (reverse.built.load(std::memory_order_relaxed)) return Status::OK();
  HYT_ASSIGN_OR_RETURN(reverse.base, derived_->Transpose());
  if (overlay_ != nullptr) {
    // Reverse-index the overlay by forward target: edges *into* v are the
    // transpose row of v filtered by tombstones on (source -> v) plus the
    // overlay inserts targeting v.
    overlay_->ForEachDeltaVertex([&](VertexId u) {
      overlay_->ForEachTombstone(u, [&](VertexId dst) {
        reverse.deltas[dst].tombstone_sources.push_back(u);
      });
      overlay_->ForEachInsert(u, [&](VertexId dst, Weight w) {
        reverse.deltas[dst].inserts.emplace_back(u, w);
      });
    });
    for (auto& [v, delta] : reverse.deltas) {
      std::sort(delta.tombstone_sources.begin(),
                delta.tombstone_sources.end());
    }
  }
  reverse.built.store(true, std::memory_order_release);
  return Status::OK();
}

const std::vector<EdgeId>& GraphView::Offsets() const {
  OffsetIndex& index = *index_;
  std::call_once(index.once, [&] {
    const VertexId n = base_->num_vertices();
    index.offsets.resize(static_cast<size_t>(n) + 1);
    index.offsets[0] = 0;
    // O(V) with O(1) per vertex: the overlay's degree deltas are patched
    // incrementally at Apply time.
    for (VertexId v = 0; v < n; ++v) {
      index.offsets[v + 1] = index.offsets[v] + overlay_->out_degree(v);
    }
  });
  return index.offsets;
}

Result<CsrGraph> GraphView::Materialize() const {
  if (overlay_ != nullptr) return overlay_->Materialize();
  if (storage_ == nullptr) {
    return CsrGraph::Create(base_->row_offsets(), base_->column_index(),
                            base_->edge_weights());
  }
  // Transparent view over an out-of-core base: stream the edge arrays back
  // out of the block file.
  const VertexId n = base_->num_vertices();
  const bool weighted = base_->is_weighted();
  PageVector<VertexId> column_index;
  PageVector<Weight> edge_weights;
  column_index.reserve(base_->num_edges());
  if (weighted) edge_weights.reserve(base_->num_edges());
  BlockRef lease;
  for (VertexId v = 0; v < n; ++v) {
    const AdjacencyRun run = storage_->Fetch(v, &lease);
    column_index.insert(column_index.end(), run.targets.begin(),
                        run.targets.end());
    if (weighted) {
      edge_weights.insert(edge_weights.end(), run.weights.begin(),
                          run.weights.end());
    }
  }
  return CsrGraph::Create(base_->row_offsets(), std::move(column_index),
                          std::move(edge_weights));
}

}  // namespace hytgraph

#include "dynamic/delta_overlay.h"

#include <string>

#include "util/logging.h"

namespace hytgraph {

std::shared_ptr<DeltaOverlay> DeltaOverlay::NewTail(
    std::shared_ptr<const DeltaOverlay> parent) {
  auto tail = std::make_shared<DeltaOverlay>(parent->base_,
                                             parent->base_store_);
  if (parent->empty()) return tail;  // nothing below worth chaining
  tail->depth_ = parent->depth_ + 1;
  tail->parent_ = std::move(parent);
  return tail;
}

std::shared_ptr<DeltaOverlay> DeltaOverlay::Collapsed() const {
  auto merged = std::make_shared<DeltaOverlay>(base_, base_store_);
  if (parent_ == nullptr) {
    *merged = *this;
    return merged;
  }
  // Replay the chain's logical content: all tombstoned targets as deletes
  // first, then every live insert. Order matters — a live insert may share
  // its (src, dst) with a tombstone from a different layer (deleted, then
  // re-inserted later); deleting first keeps the re-insert alive.
  MutationBatch replay;
  ForEachDeltaVertex([&](VertexId v) {
    ForEachTombstone(v, [&](VertexId dst) { replay.DeleteEdge(v, dst); });
  });
  ForEachDeltaVertex([&](VertexId v) {
    ForEachInsert(v, [&](VertexId dst, Weight w) {
      replay.InsertEdge(v, dst, w);
    });
  });
  Result<ApplyStats> applied = merged->Apply(replay);
  HYT_CHECK(applied.ok()) << "collapsing an overlay chain failed: "
                          << applied.status().ToString();
  return merged;
}

Result<DeltaOverlay::ApplyStats> DeltaOverlay::Apply(
    const MutationBatch& batch) {
  HYT_RETURN_NOT_OK(batch.Validate(num_vertices()));

  const bool weighted = is_weighted();
  ApplyStats stats;
  BlockRef lease;  // reused across mutations hitting the same base block
  for (const EdgeMutation& m : batch.mutations()) {
    if (m.op == MutationOp::kInsertEdge) {
      deltas_[m.src].inserts.emplace_back(m.dst, m.weight);
      ++inserted_;
      ++stats.inserted;
      continue;
    }

    // Deletion: erase live own-layer inserts to m.dst, then suppress any
    // not-yet-tombstoned older-layer inserts and base edges to m.dst.
    auto it = deltas_.find(m.src);
    VertexDelta* delta = it == deltas_.end() ? nullptr : &it->second;
    if (delta != nullptr && !delta->inserts.empty()) {
      auto cut = delta->inserts.begin();
      for (auto& edge : delta->inserts) {
        if (edge.first == m.dst) {
          stats.deleted_edges.push_back(
              {m.src, m.dst, weighted ? edge.second : Weight{1}});
          ++stats.deleted;
          --inserted_;
        } else {
          *cut++ = edge;
        }
      }
      delta->inserts.erase(cut, delta->inserts.end());
    }
    if (delta == nullptr || !delta->IsTombstoned(m.dst)) {
      // Walk the parent chain newest-first, counting its live inserts to
      // m.dst. A tombstone in some layer means everything below it
      // (including the base) is already suppressed, so stop there.
      uint64_t parent_matches = 0;
      bool below_tombstoned = false;
      for (const DeltaOverlay* layer = parent_.get(); layer != nullptr;
           layer = layer->parent_.get()) {
        auto pit = layer->deltas_.find(m.src);
        const VertexDelta* pd =
            pit == layer->deltas_.end() ? nullptr : &pit->second;
        if (pd == nullptr) continue;
        for (const auto& [dst, w] : pd->inserts) {
          if (dst == m.dst) {
            ++parent_matches;
            stats.deleted_edges.push_back(
                {m.src, m.dst, weighted ? w : Weight{1}});
          }
        }
        if (pd->IsTombstoned(m.dst)) {
          below_tombstoned = true;
          break;
        }
      }
      uint64_t base_matches = 0;
      if (!below_tombstoned) {
        std::span<const VertexId> base_nbrs;
        std::span<const Weight> base_wts;
        if (base_store_ != nullptr) {
          const AdjacencyRun run = base_store_->Fetch(m.src, &lease);
          base_nbrs = run.targets;
          base_wts = run.weights;
        } else {
          base_nbrs = base_->neighbors(m.src);
          base_wts = base_->weights(m.src);
        }
        for (size_t e = 0; e < base_nbrs.size(); ++e) {
          if (base_nbrs[e] != m.dst) continue;
          ++base_matches;
          stats.deleted_edges.push_back(
              {m.src, m.dst,
               base_wts.empty() ? Weight{1} : base_wts[e]});
        }
      }
      if (parent_matches + base_matches > 0) {
        if (delta == nullptr) delta = &deltas_[m.src];
        delta->tombstones.insert(
            std::lower_bound(delta->tombstones.begin(),
                             delta->tombstones.end(), m.dst),
            m.dst);
        delta->suppressed += base_matches;
        suppressed_ += base_matches;
        delta->parent_suppressed += parent_matches;
        parent_suppressed_ += parent_matches;
        stats.deleted += parent_matches + base_matches;
      }
    }
    if (delta != nullptr && delta->Empty()) deltas_.erase(m.src);
  }
  return stats;
}

Result<CsrGraph> DeltaOverlay::Materialize() const {
  const VertexId n = num_vertices();
  const bool weighted = is_weighted();

  PageVector<EdgeId> row_offsets(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    row_offsets[v + 1] = row_offsets[v] + out_degree(v);
  }

  PageVector<VertexId> column_index;
  PageVector<Weight> edge_weights;
  column_index.reserve(row_offsets[n]);
  if (weighted) edge_weights.reserve(row_offsets[n]);
  BlockRef lease;  // ascending scan: one acquire per base block
  for (VertexId v = 0; v < n; ++v) {
    ForEachNeighborLeased(v, &lease, [&](VertexId dst, Weight w) {
      column_index.push_back(dst);
      if (weighted) edge_weights.push_back(w);
    });
  }
  return CsrGraph::Create(std::move(row_offsets), std::move(column_index),
                          std::move(edge_weights));
}

}  // namespace hytgraph

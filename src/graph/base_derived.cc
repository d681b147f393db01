#include "graph/base_derived.h"

#include <string>
#include <utility>

#include "graph/hub_sort.h"
#include "graph/transforms.h"
#include "util/logging.h"

namespace hytgraph {

namespace {

/// Runs `build` and fails it when a block load through `store`'s cache
/// failed meanwhile (a streamed read that lost a block returns an empty
/// run, so the result may be missing edges). Conservative: a concurrent
/// caller's failure trips the check too, which costs a retryable abort.
template <typename T, typename Build>
Result<std::shared_ptr<const T>> Checked(const EdgeBlockStore* store,
                                         const char* what, Build&& build) {
  BlockCache* cache = store == nullptr ? nullptr : store->cache().get();
  const uint64_t mark = cache == nullptr ? 0 : cache->fetch_failures();
  Result<std::shared_ptr<const T>> built = build();
  if (built.ok() && cache != nullptr && cache->fetch_failures() != mark) {
    return Status::Unavailable(std::string(what) +
                               " aborted: a block load failed (" +
                               cache->last_fetch_error().ToString() + ")");
  }
  return built;
}

/// Transpose of an out-of-core base, built by streaming the forward blocks
/// (counting pass from the cached in-degrees, fill pass over ascending
/// source blocks with one lease).
Result<CsrGraph> StreamedTranspose(const CsrGraph& base,
                                   const EdgeBlockStore& store) {
  const VertexId n = base.num_vertices();
  const bool weighted = base.is_weighted();
  const std::vector<uint32_t>& in_degrees = base.in_degrees();

  std::vector<EdgeId> row_offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    row_offsets[v + 1] = row_offsets[v] + in_degrees[v];
  }
  std::vector<VertexId> column_index(base.num_edges());
  std::vector<Weight> edge_weights;
  if (weighted) edge_weights.resize(base.num_edges());

  std::vector<EdgeId> cursor(row_offsets.begin(), row_offsets.end() - 1);
  BlockRef lease;
  for (VertexId u = 0; u < n; ++u) {
    const AdjacencyRun run = store.Fetch(u, &lease);
    for (size_t e = 0; e < run.targets.size(); ++e) {
      const VertexId dst = run.targets[e];
      const EdgeId slot = cursor[dst]++;
      column_index[slot] = u;
      if (weighted) edge_weights[slot] = run.weights[e];
    }
  }
  return CsrGraph::Create(std::move(row_offsets), std::move(column_index),
                          std::move(edge_weights));
}

}  // namespace

BaseDerivedData::BaseDerivedData(std::shared_ptr<const CsrGraph> base,
                                 std::shared_ptr<const EdgeBlockStore> store,
                                 std::shared_ptr<DerivedBuildCounters> counters)
    : base_(std::move(base)),
      store_(std::move(store)),
      counters_(std::move(counters)) {}

std::shared_ptr<const EdgeBlockStore> BaseDerivedData::SpillBeside(
    const std::shared_ptr<CsrGraph>& fresh) const {
  if (store_ == nullptr) return nullptr;
  Result<std::shared_ptr<EdgeBlockStore>> spilled = store_->SpillSibling(fresh);
  if (!spilled.ok()) {
    HYT_LOG(Warning) << "derived-graph spill failed, keeping it resident: "
                     << spilled.status().ToString();
    return nullptr;
  }
  fresh->ReleaseEdgeData();
  return std::move(spilled).value();
}

Result<std::shared_ptr<const TransposedBase>> BaseDerivedData::Transpose() {
  return transpose_.Get([&] {
    auto built = Checked<TransposedBase>(
        store_.get(), "transpose build",
        [&]() -> Result<std::shared_ptr<const TransposedBase>> {
          // An out-of-core base streams its transpose (the edge arrays are
          // released), then spills it beside the base so it obeys the same
          // byte budget.
          HYT_ASSIGN_OR_RETURN(CsrGraph transposed,
                               store_ == nullptr
                                   ? ReverseGraph(*base_)
                                   : StreamedTranspose(*base_, *store_));
          auto graph = std::make_shared<CsrGraph>(std::move(transposed));
          auto out = std::make_shared<TransposedBase>();
          out->store = SpillBeside(graph);
          out->graph = std::move(graph);
          return std::shared_ptr<const TransposedBase>(std::move(out));
        });
    if (built.ok() && counters_ != nullptr) counters_->transposes.fetch_add(1);
    return built;
  });
}

Result<std::shared_ptr<const HubSortedBase>> BaseDerivedData::HubSorted(
    double hub_fraction) {
  SingleFlight<HubSortedBase>* cell;
  {
    std::lock_guard<std::mutex> lock(hub_sorted_mu_);
    cell = &hub_sorted_[hub_fraction];  // map nodes are address-stable
  }
  return cell->Get([&] {
    auto built = Checked<HubSortedBase>(
        store_.get(), "hub sort",
        [&]() -> Result<std::shared_ptr<const HubSortedBase>> {
          HYT_ASSIGN_OR_RETURN(HubSortResult sorted,
                               HubSort(*base_, hub_fraction, store_.get()));
          auto graph = std::make_shared<CsrGraph>(std::move(sorted.graph));
          auto out = std::make_shared<HubSortedBase>();
          out->store = SpillBeside(graph);
          out->derived =
              std::make_shared<BaseDerivedData>(graph, out->store, counters_);
          out->graph = std::move(graph);
          out->old_to_new = std::move(sorted.old_to_new);
          out->new_to_old = std::move(sorted.new_to_old);
          return std::shared_ptr<const HubSortedBase>(std::move(out));
        });
    if (built.ok() && counters_ != nullptr) counters_->relabels.fetch_add(1);
    return built;
  });
}

}  // namespace hytgraph

// BaseDerivedData: the expensive O(E) data derived from one immutable base
// snapshot — its reverse transpose (pull-direction processing) and its
// hub-sorted relabel (Section VI-A) — built at most once per base and
// shared by every GraphView and PreparedGraph over that base.
//
// A mutation epoch leaves the base untouched (deltas live in overlays), so
// all epochs between two folds share one record: the Engine creates a
// record when it starts and after each fold, and hands it to every view it
// publishes over that base. Per-epoch work is then only the O(delta) part
// (the view's reverse overlay index, the overlay remap into hub-sorted id
// space). A view constructed without a record gets a private one, so
// standalone views behave exactly as before: built once per view, shared
// by its copies.
//
// Builds are single-flight: concurrent callers that miss wait for one
// build. A build that fails — or that overlapped a failed block load of an
// out-of-core base (the block cache's fetch-failure counter moved, so the
// streamed adjacency may be missing runs) — memoizes nothing: the caller
// gets kUnavailable and the next caller builds again.

#ifndef HYTGRAPH_GRAPH_BASE_DERIVED_H_
#define HYTGRAPH_GRAPH_BASE_DERIVED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/types.h"
#include "storage/edge_block_store.h"
#include "util/status.h"

namespace hytgraph {

class BaseDerivedData;

/// The transpose of a base snapshot, spilled to a sibling block file when
/// the base streams from storage.
struct TransposedBase {
  std::shared_ptr<const CsrGraph> graph;
  /// Streams the transpose's adjacency when spilled; null when resident.
  std::shared_ptr<const EdgeBlockStore> store;
};

/// A base snapshot relabeled into hub-sorted vertex order. The order comes
/// from the base's own degrees (formula (4) on the folded CSR), so it is
/// fixed for the base's lifetime and recomputed only when a fold publishes
/// a new base; between folds it lags the live degrees by at most the
/// pending delta.
struct HubSortedBase {
  std::shared_ptr<const CsrGraph> graph;  // relabeled base
  /// Streams the relabeled adjacency when the source base streams; null
  /// when resident.
  std::shared_ptr<const EdgeBlockStore> store;
  /// The relabeled base's own derived data (its transpose).
  std::shared_ptr<BaseDerivedData> derived;
  std::vector<VertexId> old_to_new;  // original id -> relabeled id
  std::vector<VertexId> new_to_old;  // relabeled id -> original id
};

/// Build counters shared by every record of one owner (the Engine reports
/// them in EngineCacheStats).
struct DerivedBuildCounters {
  std::atomic<uint64_t> relabels{0};
  std::atomic<uint64_t> transposes{0};
};

class BaseDerivedData {
 public:
  /// `store` streams `base`'s adjacency when the base is out of core (null
  /// when resident). `counters` (optional) counts successful builds.
  BaseDerivedData(std::shared_ptr<const CsrGraph> base,
                  std::shared_ptr<const EdgeBlockStore> store,
                  std::shared_ptr<DerivedBuildCounters> counters = nullptr);

  BaseDerivedData(const BaseDerivedData&) = delete;
  BaseDerivedData& operator=(const BaseDerivedData&) = delete;

  const std::shared_ptr<const CsrGraph>& base() const { return base_; }

  /// The base's transpose, building it on first use (O(E)).
  Result<std::shared_ptr<const TransposedBase>> Transpose();

  /// The base relabeled with the top `hub_fraction` of vertices (by H(v)
  /// of the base) gathered at the front, building it on first use for
  /// that fraction (O(E)). hub_fraction must be in [0, 1].
  Result<std::shared_ptr<const HubSortedBase>> HubSorted(double hub_fraction);

 private:
  /// A value built at most once by concurrent callers: one builds, the
  /// rest wait for it. A failed build stores nothing; a waiter woken by
  /// one becomes the next builder.
  template <typename T>
  class SingleFlight {
   public:
    template <typename Build>
    Result<std::shared_ptr<const T>> Get(Build&& build) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return value_ != nullptr || !building_; });
      if (value_ != nullptr) return value_;
      building_ = true;
      lock.unlock();
      Result<std::shared_ptr<const T>> built = build();
      lock.lock();
      building_ = false;
      if (built.ok()) value_ = built.value();
      cv_.notify_all();
      return built;
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool building_ = false;
    std::shared_ptr<const T> value_;
  };

  /// Spills `fresh` into a sibling of the base's block file and releases
  /// its in-memory edge arrays. Null (fresh kept resident, warning logged)
  /// when the base is resident or the spill fails.
  std::shared_ptr<const EdgeBlockStore> SpillBeside(
      const std::shared_ptr<CsrGraph>& fresh) const;

  std::shared_ptr<const CsrGraph> base_;
  std::shared_ptr<const EdgeBlockStore> store_;
  std::shared_ptr<DerivedBuildCounters> counters_;

  SingleFlight<TransposedBase> transpose_;
  std::mutex hub_sorted_mu_;  // guards the map, not the builds
  std::map<double, SingleFlight<HubSortedBase>> hub_sorted_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_GRAPH_BASE_DERIVED_H_

// hytgraph::Engine — the one public entry point of the library.
//
// The Engine owns a graph and serves typed Query objects against it:
//
//   Engine engine(std::move(graph));                 // HyTGraph defaults
//   auto sssp = engine.Run({.algorithm = AlgorithmId::kSssp, .source = 0});
//   auto ranks = engine.Run({.algorithm = AlgorithmId::kPageRank});
//
// Four things distinguish it from calling the solver directly:
//
//  * Cached preparation. The hub-sorted vertex order HyTGraph's
//    contribution-driven scheduling needs (Section VI-A) is expensive to
//    build; it belongs to the base snapshot (BaseDerivedData), so the O(E)
//    relabel runs once per base — at the first query after start-up and
//    after each fold — and every mutation epoch reuses it. On top, the
//    Engine memoizes PreparedGraph instances (the relabeled base plus the
//    epoch's O(delta) overlay remap) keyed by an options fingerprint, so
//    repeated queries — and every query of a batch — reuse one
//    preparation. QueryResult reports per-query hit/miss plus the
//    engine-wide counters.
//
//  * Registry dispatch. Queries name an AlgorithmId; the Engine resolves it
//    through the algorithm registry (algorithms/registry.h), which covers
//    all six built-in algorithms with typed per-algorithm parameters.
//
//  * Batched execution. RunBatch fans a vector of queries (same or mixed
//    algorithms, multiple sources) out over the process thread pool;
//    per-query results are deterministic and identical to sequential Run
//    calls (bitwise for the value-selection family, whose fixpoints are
//    schedule-independent).
//
//  * Dynamic mutation with epoch-versioned snapshots. ApplyMutations
//    applies a MutationBatch (src/dynamic/) to a copy-on-write DeltaOverlay
//    over the immutable base CSR and bumps the engine epoch. Prepared-graph
//    cache entries are tagged with the epoch they were built against and
//    invalidated lazily on next lookup; queries pin the GraphView of the
//    epoch they planned against via shared ownership, so in-flight batches
//    keep running to completion on their snapshot while mutations land.
//    Run/RunBatch/RunIncremental execute *directly on the live view*
//    (base + delta merged on the fly): a query issued right after
//    ApplyMutations triggers zero SnapshotCompactor folds. Folding is
//    purely policy-driven — eager when the delta crosses the
//    CompactionPolicy threshold (CompactionMode::kThreshold), only via
//    explicit Compact() (CompactionMode::kManual), or handed to a
//    BackgroundCompactor worker thread (CompactionMode::kBackground) so
//    neither mutators nor queries ever block on the O(E) rebuild — batches
//    racing a background fold are re-applied onto the freshly folded base
//    at publication. Mutation publication itself is O(|batch|): the
//    overlay patches per-vertex degree deltas incrementally, the view's
//    logical offsets are a lazily built sparse index (no O(V) prefix
//    rebuild under the write lock), and the default source tracks the
//    degree argmax incrementally — batches racing a pinned reader land in
//    an O(1) layered tail overlay (DeltaOverlay::NewTail) instead of an
//    O(delta) copy, so publication latency is independent of how much
//    delta the readers have pinned. Deep layer chains are collapsed off
//    the write path (background worker) or inline past a small depth cap.
//    EnqueueMutations is the wait-free admission path on top: batches go
//    into a lock-free MPSC queue and a dedicated ingest worker drains them
//    through ApplyMutations in FIFO order, so producers never contend on
//    graph_mu_ at all. RunIncremental advances a previous result to the
//    current epoch: insert-only deltas warm-start BFS/SSSP/CC/SSWP from
//    the previous values; deltas with deletions invalidate only the
//    affected cone (KickStarter-style) and re-seed from its boundary;
//    PR/PHP re-inject the mutated edges' residual contributions
//    Maiter-style. A full recompute remains the fallback — when the
//    policy disables a path or the snapshot GC retired the needed
//    mutation-log entries — and RunTrace::incremental_fallback reports
//    which reason triggered it.
//
// Direction-optimizing queries (SolverOptions::direction = pull/auto) pull
// over the view's reverse side. The reverse transpose is built lazily on
// the first pull iteration and, like the hub relabel, lives in the base
// snapshot's BaseDerivedData record: every view the Engine publishes over
// that base shares it, so it is built at most once per base and released
// when a fold publishes a new base (Compact() / threshold / background
// folds) and the last in-flight query over the old base drops it. Builds
// are single-flight — concurrent misses on a new base wait for one build.
//
// Thread safety: Run/RunBatch/RunIncremental/ApplyMutations may be called
// concurrently from multiple threads; the prepared cache and the mutation
// state are internally synchronized. References returned by graph() are
// valid until the next compaction — hold Snapshot() (or View()) to pin a
// graph version across mutations.

#ifndef HYTGRAPH_CORE_ENGINE_H_
#define HYTGRAPH_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/registry.h"
#include "algorithms/runner.h"
#include "core/options.h"
#include "core/trace.h"
#include "dynamic/background_compactor.h"
#include "dynamic/delta_overlay.h"
#include "dynamic/mutation.h"
#include "dynamic/mutation_queue.h"
#include "dynamic/snapshot_compactor.h"
#include "graph/base_derived.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "storage/block_cache.h"
#include "storage/edge_block_store.h"
#include "storage/prefetcher.h"
#include "storage/storage_options.h"
#include "util/health.h"
#include "util/status.h"

namespace hytgraph {

/// One unit of work: which algorithm, from where, with which parameters.
struct Query {
  AlgorithmId algorithm = AlgorithmId::kSssp;
  /// Source vertex for the source-seeded algorithms (BFS, SSSP, PHP, SSWP).
  /// kInvalidVertex selects the engine default (highest out-degree vertex);
  /// ignored by PR and CC.
  VertexId source = kInvalidVertex;
  AlgoParams params;
};

/// Engine-wide preparation-cache counters.
struct EngineCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  /// Entries dropped lazily because their epoch no longer matched.
  uint64_t invalidated = 0;
  /// Hub-sorted relabels of a base snapshot built (one per base and hub
  /// fraction, shared by every epoch until the next fold).
  uint64_t relabels = 0;
  /// Reverse transposes built (one per base snapshot that served a pull,
  /// hub-relabeled bases included).
  uint64_t transposes = 0;
};

/// The result of one query: values in original vertex ids, the execution
/// trace, and what the preparation cache did for this query.
struct QueryResult {
  AlgorithmId algorithm = AlgorithmId::kSssp;
  /// The resolved source (kInvalidVertex for algorithms without one).
  VertexId source = kInvalidVertex;
  QueryValues values;
  RunTrace trace;
  /// True when this query reused a cached PreparedGraph (no hub re-sort).
  bool prepared_cache_hit = false;
  /// Engine-wide cache counters snapshotted after this query resolved.
  EngineCacheStats cache_stats;
  /// The graph epoch this result reflects (0 before any mutation).
  uint64_t epoch = 0;
  /// True when the result came from an incremental warm-start rather than
  /// a full solver run.
  bool incremental = false;
  /// Dependency forest for the monotone family: parents[v] is the
  /// in-neighbor whose relaxation produced v's value (kInvalidVertex for
  /// axioms). Attached by RunIncremental after a deletion-aware warm
  /// start and carried forward through the chain, so each subsequent
  /// deletion invalidates only the severed subtrees instead of paying a
  /// full certification pass. Null on full runs and insert-only chains
  /// that never met a deletion.
  std::shared_ptr<const std::vector<VertexId>> dependency_parents;

  bool is_f64() const {
    return std::holds_alternative<std::vector<double>>(values);
  }
  const std::vector<uint32_t>& u32() const {
    return std::get<std::vector<uint32_t>>(values);
  }
  const std::vector<double>& f64() const {
    return std::get<std::vector<double>>(values);
  }
};

/// What one ApplyMutations call did.
struct MutationResult {
  /// Epoch after the batch (each non-empty batch bumps it by one).
  uint64_t epoch = 0;
  uint64_t inserted = 0;
  uint64_t deleted = 0;
  /// True when the batch pushed the delta over the CompactionPolicy
  /// threshold and the overlay was folded into a fresh base snapshot
  /// inline (CompactionMode::kThreshold only).
  bool compacted = false;
  /// True when the batch crossed the threshold under
  /// CompactionMode::kBackground and a fold was enqueued on the worker
  /// (the publication itself returned without folding).
  bool fold_scheduled = false;
  /// Pending delta edges after the batch (0 right after an inline fold;
  /// under kBackground the enqueued fold drains it asynchronously).
  uint64_t pending_delta_edges = 0;
};

class Engine {
 public:
  /// Takes ownership of `graph`. `default_options` configure queries that
  /// do not pass explicit options (and the simulated platform for those
  /// that do not care); `compaction` governs when pending mutation deltas
  /// are folded into a fresh base snapshot; `storage` bounds host memory —
  /// when storage.enabled(), the base CSR's edge arrays are spilled to an
  /// edge-block store and stream through a block cache of
  /// storage.memory_budget_bytes (mutation overlays always stay in
  /// memory). Values are identical to the in-memory engine; only time and
  /// memory move.
  explicit Engine(CsrGraph graph,
                  SolverOptions default_options =
                      SolverOptions::Defaults(SystemKind::kHyTGraph),
                  CompactionPolicy compaction = {},
                  StorageOptions storage = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Stops and joins the background compaction worker (if the policy runs
  /// one) before any engine state is torn down. In-flight background folds
  /// complete; queued ones are abandoned.
  ~Engine();

  /// The current *base* snapshot — the last folded CSR. Pending mutations
  /// are NOT folded in (queries run on the view; see View()); after
  /// ApplyMutations this still serves the pre-delta graph until a
  /// policy-driven or explicit compaction lands. The reference is valid
  /// until the next compaction; use Snapshot() to pin a version.
  const CsrGraph& graph() const;

  /// Shared ownership of the current base snapshot. Holders keep reading
  /// a consistent graph while later compactions produce new snapshots.
  std::shared_ptr<const CsrGraph> Snapshot() const;

  /// The live logical graph: current base + pending delta. This is what
  /// queries execute on; the returned view pins both components, so it
  /// stays consistent while later mutations publish new snapshots.
  GraphView View() const;

  const SolverOptions& default_options() const { return default_options_; }

  /// The source used when a query does not name one: the highest
  /// out-degree vertex of the current snapshot (kInvalidVertex on an empty
  /// graph).
  VertexId DefaultSource() const;

  /// Monotone graph-version counter; each non-empty ApplyMutations batch
  /// bumps it by one.
  uint64_t epoch() const;

  /// Pending (not yet folded) delta edges in the overlay.
  uint64_t pending_delta_edges() const;

  /// Applies an ordered batch of edge mutations, bumping the epoch.
  /// In-flight queries keep their pinned snapshots; prepared-cache entries
  /// from older epochs are invalidated lazily on their next lookup.
  Result<MutationResult> ApplyMutations(const MutationBatch& batch);

  /// Wait-free mutation admission: validates `batch` against the vertex
  /// count (immutable for the engine's lifetime), pushes it onto a
  /// lock-free MPSC queue, and returns — no graph_mu_, no allocation
  /// proportional to the pending delta, no fold. A dedicated ingest
  /// worker drains the queue in FIFO order through ApplyMutations;
  /// producers therefore never contend with queries, folds, or each
  /// other. Epoch assignment happens at drain time, in queue order.
  /// Failures past admission (internal invariant breakage) are counted
  /// and logged by the worker, not reported to the producer.
  Status EnqueueMutations(MutationBatch batch);

  /// Ingest barrier: blocks until every batch enqueued before the call has
  /// been drained and applied (epochs assigned, views published). Queries
  /// issued after it observe all prior EnqueueMutations calls.
  void WaitForIngest();

  /// Batches admitted through EnqueueMutations and applied by the ingest
  /// worker so far.
  uint64_t ingested_batches() const;

  /// Current depth of the published overlay's layer chain (1 = flat). A
  /// depth above 1 means batches landed in O(1) tail layers while readers
  /// pinned older layers; chains are collapsed when readers drain or the
  /// depth cap trips.
  int overlay_depth() const;

  /// Explicitly folds the pending delta into a fresh base snapshot (no-op
  /// when none is pending). The logical graph and the epoch are unchanged —
  /// only the physical layout moves. Cached preparations are dropped so
  /// subsequent queries rebuild against the compacted layout (in-flight
  /// queries keep the snapshots they pinned). This is the only fold
  /// trigger under CompactionMode::kManual. Under kBackground the fold
  /// runs on the worker; this call enqueues it and waits for the queue to
  /// drain, so the pending delta observed at call time is folded on
  /// return (modulo batches racing the publication).
  Status Compact();

  /// Publication barrier for asynchronous folds: blocks until the
  /// background fold queue is drained and no fold cycle is in flight.
  /// Immediate no-op under kThreshold/kManual (folds are synchronous
  /// there).
  void WaitForCompaction();

  /// Runs one query under the engine default options.
  Result<QueryResult> Run(const Query& query);
  /// Runs one query under explicit options (ablations, baseline systems).
  Result<QueryResult> Run(const Query& query, const SolverOptions& options);

  /// Advances `previous` (a result for the same query from an earlier
  /// epoch) to the current epoch without a full traversal:
  ///  * BFS/SSSP/CC/SSWP, insert-only delta — warm-start from the previous
  ///    values, re-activating only the inserted edges' sources;
  ///  * BFS/SSSP/CC/SSWP, delta with deletions — invalidate only the cone
  ///    of vertices whose values may have derived through a deleted edge
  ///    and re-seed from its boundary (dynamic/incremental.h);
  ///  * PR/PHP — re-inject the mutated edges' residual contributions and
  ///    propagate the delta chaotically (Maiter-style).
  /// A full recompute remains the transparent fallback when the policy
  /// disables a path (CompactionPolicy::incremental_deletion_cone /
  /// incremental_accumulative) or the snapshot GC retired the mutation-log
  /// entries since previous.epoch; RunTrace::incremental_fallback carries
  /// the reason and QueryResult::incremental reports which path ran.
  /// Values match a full recompute either way (bitwise for the monotone
  /// family, up to the kernels' epsilon residual for PR/PHP).
  Result<QueryResult> RunIncremental(const Query& query,
                                     const QueryResult& previous);

  /// Executes `queries` concurrently on the process thread pool, sharing
  /// cached preparations. Results are index-aligned with `queries` and
  /// identical to sequential Run calls; the first failing query's status is
  /// returned on error.
  Result<std::vector<QueryResult>> RunBatch(const std::vector<Query>& queries);
  Result<std::vector<QueryResult>> RunBatch(const std::vector<Query>& queries,
                                            const SolverOptions& options);

  /// RunBatch pinned to a single graph epoch: one ViewRef is captured up
  /// front and every query plans against it, so all results carry the same
  /// QueryResult::epoch even when mutations land mid-batch (plain RunBatch
  /// captures a view per query and a batch can straddle an epoch bump).
  /// This is the substrate of the serving layer's query fusion: a fused
  /// group shares one PreparedGraph — one hub sort — and its per-request
  /// results are attributable to one consistent snapshot.
  Result<std::vector<QueryResult>> RunBatchPinned(
      const std::vector<Query>& queries);
  Result<std::vector<QueryResult>> RunBatchPinned(
      const std::vector<Query>& queries, const SolverOptions& options);

  EngineCacheStats cache_stats() const;

  /// Point-in-time health of the supervised subsystems ("ingest",
  /// "compactor", "storage"). A degraded subsystem keeps the engine
  /// serving: a parked fold leaves queries on the unfolded overlay chain,
  /// a parked ingest batch retries with backoff, and storage failures
  /// surface as kUnavailable query errors. Healing (first success after a
  /// failure streak) flips the subsystem back to healthy.
  EngineHealth Health() const;

  /// Fold statistics of the snapshot compactor (write- plus read-triggered).
  SnapshotCompactor::Stats compactor_stats() const;

  /// True when the base CSR streams from the edge-block store (storage was
  /// enabled and the initial spill succeeded).
  bool out_of_core() const;
  const StorageOptions& storage_options() const { return storage_options_; }
  /// Block-cache counters (hits, misses, evictions, bytes read, prefetch
  /// accuracy). All-zero when storage is disabled.
  StorageStats storage_stats() const;

  /// Drops all memoized preparations. Counters (hits/misses/invalidated)
  /// are preserved; only `entries` resets. The base snapshot's derived data
  /// (hub relabel, transpose) is kept: the next preparation over the same
  /// base remaps only the overlay.
  void ClearPreparedCache();

 private:
  /// The current epoch's live view plus the metadata a query plan needs,
  /// captured atomically.
  struct ViewRef {
    GraphView view;
    uint64_t epoch = 0;
    /// Physical-layout version: bumped on every fold. Distinguishes
    /// same-epoch snapshots whose layout changed (Compact() does not bump
    /// the epoch), so the prepared cache never resurrects a pre-fold view.
    uint64_t layout = 0;
    VertexId default_source = kInvalidVertex;
  };

  /// A query resolved against the cache and ready to execute.
  struct PlannedQuery {
    Query query;
    SolverOptions options;  // effective (per-algorithm fixups applied)
    std::shared_ptr<const PreparedGraph> prepared;
    /// Pins the base/overlay snapshots `prepared` was built against for
    /// the whole execution.
    GraphView view;
    uint64_t epoch = 0;
    bool cache_hit = false;
    VertexId source = kInvalidVertex;
  };

  /// Per-epoch record of what changed, for incremental recomputation: the
  /// edges inserted (as applied) and the concrete edge instances removed
  /// (with the weights they carried — the deletion cone needs them to test
  /// derivation consistency).
  struct EpochDelta {
    uint64_t epoch = 0;
    std::vector<EdgeRecord> inserts;
    std::vector<EdgeRecord> deletes;
  };

  /// Returns the current-epoch live view (no fold, ever — a lock-shared
  /// read of the published snapshots). Repairs a dirty default source
  /// first (an O(V) rescan off the write path, only after a deletion
  /// shrank the tracked argmax).
  ViewRef CurrentViewRef() const;

  /// Folds the pending overlay and promotes the result to the new base.
  /// graph_mu_ must be held exclusively.
  Status CompactLocked();

  /// Publishes `base` (spilled into `store` when out of core) as the new
  /// base snapshot with `overlay` on top, under a fresh derived-data record.
  /// graph_mu_ must be held exclusively (or the engine be under
  /// construction).
  void PublishBaseLocked(std::shared_ptr<const CsrGraph> base,
                         std::shared_ptr<const EdgeBlockStore> store,
                         std::shared_ptr<const DeltaOverlay> overlay);

  /// One ingest drain: moves queued batches onto the worker-local backlog
  /// and applies them front-first through ApplyMutations. A pre-apply
  /// failure (injected drain fault) leaves the batch at the backlog head
  /// and asks the supervisor for a retry with backoff; a mid-apply failure
  /// is not retryable (the batch may be partially applied — a replay would
  /// double-apply its inserts) and is counted and dropped instead. Runs on
  /// the ingest worker.
  CycleResult IngestCycle();

  /// One background fold: captures the overlay under the write lock,
  /// materializes the new base off every lock, then republishes —
  /// re-applying the mutation batches that landed during the fold onto a
  /// fresh overlay over the new base. A failed fold (injected fault,
  /// storage failure during Materialize or replay) abandons the capture —
  /// the live overlay still holds every mutation — and retries with
  /// backoff; queries keep serving on the unfolded chain meanwhile. Runs
  /// on the BackgroundCompactor worker.
  CycleResult BackgroundFoldCycle();

  /// Storage-failure bracketing: kernels fetch adjacency through a void
  /// interface, so a failed block load surfaces as a bump of the block
  /// cache's fetch-failure counter rather than a Status. Take a mark
  /// before a fallible region and check it after: an increase converts to
  /// kUnavailable (conservative — a concurrent caller's failure trips the
  /// check too, which costs a spurious-but-safe retryable abort).
  uint64_t StorageFailureMark() const;
  Status CheckStorageSince(uint64_t mark, const char* what) const;

  /// Maintains the incremental degree argmax across `batch`'s touched
  /// sources. graph_mu_ must be held exclusively; O(|batch|).
  void UpdateDefaultSourceLocked(const MutationBatch& batch);

  /// Rescans for the highest-out-degree vertex when a deletion invalidated
  /// the tracked argmax. The O(V) scan runs on a pinned view outside the
  /// write lock; the result is installed only if no epoch raced it.
  void RepairDefaultSourceIfDirty() const;

  Result<PlannedQuery> Plan(const Query& query, const SolverOptions& base);
  /// Plan against an already-captured snapshot (the epoch-pinned batch
  /// path; Plan captures its own).
  Result<PlannedQuery> PlanOn(const Query& query, const SolverOptions& base,
                              const ViewRef& snapshot);
  Result<std::shared_ptr<const PreparedGraph>> GetPrepared(
      const SolverOptions& effective, const ViewRef& snapshot,
      bool* cache_hit);
  Result<QueryResult> Execute(const PlannedQuery& plan) const;
  /// Fans `plans` out over the process thread pool (queries are the
  /// parallel unit); results index-aligned with `plans`.
  Result<std::vector<QueryResult>> ExecutePlans(
      const std::vector<PlannedQuery>& plans) const;

  /// Spills `fresh`'s edge arrays to the block store and releases the
  /// in-memory copies. When `sibling_of` is non-null the new store shares
  /// its IO throttle (one virtual spindle per engine); otherwise a fresh
  /// store is built over the engine's cache + prefetcher. Returns null —
  /// and leaves `fresh` resident — when storage is disabled or the spill
  /// fails (warning logged).
  std::shared_ptr<const EdgeBlockStore> MaybeSpill(
      const std::shared_ptr<CsrGraph>& fresh,
      const std::shared_ptr<const EdgeBlockStore>& sibling_of) const;

  SolverOptions default_options_;

  /// Immutable for the engine's lifetime (mutations add/remove edges, not
  /// vertices) — EnqueueMutations validates against it without any lock.
  VertexId num_vertices_ = 0;

  /// Out-of-core state. The cache and prefetcher are shared by every
  /// EdgeBlockStore this engine ever creates (base, reverse transpose,
  /// hub-relabeled copies, folded snapshots) so the byte budget is global.
  /// Declared before graph_mu_/base_ so stores (which reference them)
  /// are destroyed first.
  StorageOptions storage_options_;
  std::shared_ptr<BlockCache> block_cache_;
  std::shared_ptr<Prefetcher> prefetcher_;

  /// Guards the mutation state below. Writers (ApplyMutations, Compact)
  /// publish new immutable snapshots; readers copy shared_ptrs out.
  mutable std::shared_mutex graph_mu_;
  std::shared_ptr<const CsrGraph> base_;          // last folded snapshot
  /// Block store backing base_ when out of core; null when in memory.
  std::shared_ptr<const EdgeBlockStore> store_;
  std::shared_ptr<const DeltaOverlay> overlay_;   // pending delta (COW)
  /// Hub relabel and transpose of base_, shared by every view over it;
  /// replaced (with base_) by each fold.
  std::shared_ptr<BaseDerivedData> derived_;
  GraphView view_;                                // base_ + overlay_
  uint64_t epoch_ = 0;
  /// The tracked degree argmax (lowest id wins ties), maintained in
  /// O(|batch|) per publication. When a deletion shrinks the argmax's own
  /// degree an untouched vertex may overtake it, so the entry goes dirty
  /// and the next reader rescans (mutable: repaired from const readers).
  mutable VertexId default_source_ = kInvalidVertex;
  mutable EdgeId default_source_degree_ = 0;
  mutable bool default_source_dirty_ = false;
  SnapshotCompactor compactor_;
  /// True between a background fold's overlay capture and its publication;
  /// batches applied in that window are buffered in fold_window_ and
  /// re-applied onto the new base when the fold publishes.
  bool fold_in_flight_ = false;
  std::vector<MutationBatch> fold_window_;
  /// Per-epoch deltas for incremental seed computation; entries older than
  /// the CompactionPolicy horizon are retired (snapshot GC), and
  /// log_floor_epoch_ records the newest retired epoch.
  std::deque<EpochDelta> mutation_log_;
  uint64_t log_floor_epoch_ = 0;
  /// Bumped by CompactLocked; see ViewRef::layout.
  uint64_t layout_version_ = 0;

  struct CacheEntry {
    uint64_t epoch = 0;
    uint64_t layout = 0;
    /// Keeps the base/overlay snapshots the preparation references alive.
    GraphView view;
    std::shared_ptr<const PreparedGraph> prepared;
  };

  mutable std::mutex mu_;
  std::map<std::string, CacheEntry> prepared_;
  /// Counters behind cache_stats(). Atomics, so every query result can
  /// snapshot them without taking mu_ (writers update them under it).
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_entries_{0};
  std::atomic<uint64_t> cache_invalidated_{0};
  /// Relabel/transpose build counts of every derived-data record this
  /// engine creates (records may outlive the engine in a caller's view).
  std::shared_ptr<DerivedBuildCounters> derived_builds_ =
      std::make_shared<DerivedBuildCounters>();

  /// Wait-free ingest state: producers push here (EnqueueMutations), the
  /// ingest worker drains through ApplyMutations. The queue has its own
  /// internal synchronization; the counters are plain atomics.
  MutationQueue ingest_queue_;
  std::atomic<uint64_t> ingested_batches_{0};
  std::atomic<uint64_t> ingest_failures_{0};
  /// Batches drained from ingest_queue_ but not yet applied — the retry
  /// seat for pre-apply failures. Touched only by the ingest worker
  /// thread, so it needs no lock.
  std::deque<MutationBatch> ingest_backlog_;

  /// Per-subsystem failure accounting behind Health(). Mutable: storage
  /// failures are detected inside const query paths.
  mutable HealthTracker health_;

  /// The fold-queue worker (CompactionMode::kBackground only, null
  /// otherwise). Declared last and reset first in ~Engine: the worker's
  /// fold cycle touches every member above.
  std::unique_ptr<BackgroundCompactor> background_;
  /// The ingest-drain worker (always present; idle until the first
  /// EnqueueMutations). Reset before background_ in ~Engine — its drain
  /// cycle can enqueue folds on the fold worker.
  std::unique_ptr<BackgroundCompactor> ingest_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_CORE_ENGINE_H_

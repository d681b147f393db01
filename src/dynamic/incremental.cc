#include "dynamic/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

namespace hytgraph {

namespace {

constexpr uint32_t kUnreachableValue = std::numeric_limits<uint32_t>::max();

/// Per-algorithm relaxation semantics, mirroring the vertex programs in
/// algorithms/programs.h (including SSSP's wrapping uint32 add, so the
/// incremental fixpoint is bitwise identical to the solver's).
struct MinFamily {
  // BFS / SSSP / CC: smaller is better, kUnreachable (or the own label for
  // CC) means "nothing to push" only for the source-seeded pair.
  static bool Improves(uint32_t candidate, uint32_t current) {
    return candidate < current;
  }
};

struct BfsRelax : MinFamily {
  static bool Productive(uint32_t value) { return value != kUnreachableValue; }
  static uint32_t Candidate(uint32_t value, Weight /*w*/) { return value + 1; }
  static uint32_t ResetValue(VertexId /*v*/) { return kUnreachableValue; }
  static constexpr bool kSeedConeMembers = false;
};

struct SsspRelax : MinFamily {
  static bool Productive(uint32_t value) { return value != kUnreachableValue; }
  static uint32_t Candidate(uint32_t value, Weight w) { return value + w; }
  static uint32_t ResetValue(VertexId /*v*/) { return kUnreachableValue; }
  static constexpr bool kSeedConeMembers = false;
};

struct CcRelax : MinFamily {
  static bool Productive(uint32_t /*value*/) { return true; }
  static uint32_t Candidate(uint32_t value, Weight /*w*/) { return value; }
  /// CC's identity is the own label — which is itself productive, so cone
  /// members must re-seed the frontier to push their reset labels out.
  static uint32_t ResetValue(VertexId v) { return v; }
  static constexpr bool kSeedConeMembers = true;
};

struct SswpRelax {
  static bool Productive(uint32_t value) { return value != 0; }
  static uint32_t Candidate(uint32_t value, Weight w) {
    return std::min(value, static_cast<uint32_t>(w));
  }
  static bool Improves(uint32_t candidate, uint32_t current) {
    return candidate > current;
  }
  static uint32_t ResetValue(VertexId /*v*/) { return 0; }
  static constexpr bool kSeedConeMembers = false;
};

/// Chaotic relaxation from `seeds`. When `parents` is non-null, every
/// improvement records its deriver, keeping the dependency forest
/// consistent with the advanced values (chains stay acyclic: a parent
/// reached its final value strictly before the child it improves).
template <typename Relax>
IncrementalStats Propagate(const GraphView& graph,
                           std::span<const VertexId> seeds,
                           std::vector<uint32_t>* values,
                           std::vector<VertexId>* parents = nullptr) {
  IncrementalStats stats;
  std::vector<uint32_t>& vals = *values;
  std::vector<uint8_t> queued(vals.size(), 0);

  std::vector<VertexId> current;
  current.reserve(seeds.size());
  for (VertexId v : seeds) {
    if (!queued[v]) {
      queued[v] = 1;
      current.push_back(v);
    }
  }
  stats.seed_vertices = current.size();

  std::vector<VertexId> next;
  while (!current.empty()) {
    ++stats.rounds;
    for (VertexId u : current) {
      queued[u] = 0;
      ++stats.relaxed_vertices;
      const uint32_t value = vals[u];
      if (!Relax::Productive(value)) continue;
      graph.ForEachNeighbor(u, [&](VertexId v, Weight w) {
        ++stats.traversed_edges;
        const uint32_t candidate = Relax::Candidate(value, w);
        if (Relax::Improves(candidate, vals[v])) {
          vals[v] = candidate;
          if (parents != nullptr) (*parents)[v] = u;
          ++stats.improved_vertices;
          if (!queued[v]) {
            queued[v] = 1;
            next.push_back(v);
          }
        }
      });
    }
    current.swap(next);
    next.clear();
  }
  return stats;
}

/// Deletion-cone recompute for one Relax, driven by the dependency
/// forest. Phases over the ORIGINAL values (nothing is reset until the
/// cone is fully discovered):
///   1. cone discovery. Tree path, when the caller hands in a forest
///      consistent with the values: seed from deleted records that sever
///      a tree edge (tree[dst] == src) and flood forward along parent
///      pointers only — an out-neighbor joins iff its recorded deriver
///      fell. Consistency flooding would sweep whole label classes in for
///      the tie-prone relaxations (CC's candidate IS the label, SSWP's
///      widths tie freely); parent pointers are tie-free, so this cone is
///      the true dependency cone. Derive path, otherwise: certification
///      BFS from the axioms (the source; identity-valued vertices) along
///      consistency edges over the post-delta view, assigning parents as
///      derivations are found. Whatever it cannot certify still holding a
///      non-identity value IS the cone — its every derivation used a
///      deleted edge. Support through *other* deleted edges needs no
///      special casing on either path: deleted edges are absent from the
///      view, and each deleted tree edge seeds its own target;
///   2. reset cone members to the identity value and orphan their parent
///      slots;
///   3. re-seed propagation from the cone's productive non-cone
///      in-neighbors (their out-edges into the reset cone are now
///      violated), the delta's insert sources, and — for CC, whose
///      identity is productive — the cone members themselves. Propagation
///      records parents, leaving the forest consistent for the next
///      epoch.
///
/// Soundness: a vertex outside the cone keeps an intact parent chain —
/// an acyclic derivation of its exact value from an axiom through
/// surviving edges. Deletions only worsen the optimum, so a still-
/// achievable previous value is still optimal; insert-driven improvements
/// are applied by phase 3's insert-source seeds, for cone and non-cone
/// vertices alike.
template <typename Relax>
Result<IncrementalStats> ConeRecompute(const GraphView& graph, bool has_source,
                                       VertexId source,
                                       std::span<const EdgeRecord> inserts,
                                       std::span<const EdgeRecord> deletes,
                                       std::vector<uint32_t>* values,
                                       std::vector<VertexId>* parents) {
  IncrementalStats stats;
  std::vector<uint32_t>& vals = *values;
  std::vector<VertexId>& tree = *parents;
  const VertexId n = graph.num_vertices();

  std::vector<uint8_t> in_cone(n, 0);
  std::vector<VertexId> cone;
  if (tree.size() == n) {
    auto join = [&](VertexId v) {
      // The source's value is axiomatic (never derived from an edge), so
      // it never joins the cone; its parent slot is always invalid.
      if (in_cone[v] || (has_source && v == source)) return;
      in_cone[v] = 1;
      cone.push_back(v);
    };
    for (const EdgeRecord& e : deletes) {
      if (tree[e.dst] == e.src) join(e.dst);
    }
    for (size_t i = 0; i < cone.size(); ++i) {
      const VertexId x = cone[i];
      graph.ForEachNeighbor(x, [&](VertexId z, Weight /*w*/) {
        ++stats.traversed_edges;
        if (tree[z] == x) join(z);
      });
    }
  } else {
    stats.forest_derived = true;
    tree.assign(n, kInvalidVertex);
    std::vector<uint8_t> certified(n, 0);
    std::vector<VertexId> queue;
    for (VertexId v = 0; v < n; ++v) {
      if ((has_source && v == source) || vals[v] == Relax::ResetValue(v)) {
        certified[v] = 1;
        queue.push_back(v);
      }
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      const VertexId x = queue[i];
      const uint32_t value = vals[x];
      if (!Relax::Productive(value)) continue;
      graph.ForEachNeighbor(x, [&](VertexId z, Weight w) {
        ++stats.traversed_edges;
        if (!certified[z] && vals[z] == Relax::Candidate(value, w)) {
          certified[z] = 1;
          tree[z] = x;
          queue.push_back(z);
        }
      });
    }
    for (VertexId v = 0; v < n; ++v) {
      if (!certified[v]) {
        in_cone[v] = 1;
        cone.push_back(v);
      }
    }
  }
  stats.cone_vertices = cone.size();

  for (VertexId x : cone) {
    vals[x] = Relax::ResetValue(x);
    tree[x] = kInvalidVertex;
  }

  std::vector<VertexId> seeds;
  if (!cone.empty()) HYT_RETURN_NOT_OK(graph.EnsureReverse());
  for (VertexId x : cone) {
    graph.ForEachInNeighbor(x, [&](VertexId p, Weight /*w*/) {
      ++stats.traversed_edges;
      if (!in_cone[p] && Relax::Productive(vals[p])) seeds.push_back(p);
    });
    if (Relax::kSeedConeMembers) seeds.push_back(x);
  }
  for (const EdgeRecord& e : inserts) seeds.push_back(e.src);

  const uint64_t closure_edges = stats.traversed_edges;
  const uint64_t cone_size = stats.cone_vertices;
  const bool derived = stats.forest_derived;
  stats = Propagate<Relax>(graph, seeds, values, &tree);
  stats.traversed_edges += closure_edges;
  stats.cone_vertices = cone_size;
  stats.forest_derived = derived;
  return stats;
}

/// Chaotic residual propagation for the accumulation family: consume each
/// vertex's pending delta into its value and share d * delta through the
/// out-edges, scaled by EdgeShare (1/deg for PR, w/W for PHP), activating
/// targets whose |pending| reaches epsilon. Mirrors the push kernels'
/// termination; leftover sub-epsilon residual folds into the final values
/// exactly like the kernels' Values().
template <typename ShareFn>
void PropagateResidual(const GraphView& graph, double damping,
                       double epsilon, VertexId skip_target,
                       std::vector<double>* pending,
                       std::vector<double>* values, ShareFn&& share,
                       IncrementalStats* stats) {
  std::vector<double>& delta = *pending;
  std::vector<double>& vals = *values;
  std::vector<uint8_t> queued(vals.size(), 0);
  std::vector<VertexId> queue;
  for (VertexId v = 0; v < delta.size(); ++v) {
    if (std::abs(delta[v]) >= epsilon) {
      queued[v] = 1;
      queue.push_back(v);
    }
  }
  stats->seed_vertices = queue.size();
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    queued[u] = 0;
    const double consumed = delta[u];
    delta[u] = 0;
    vals[u] += consumed;
    ++stats->relaxed_vertices;
    if (consumed == 0) continue;
    share(u, damping * consumed, [&](VertexId v, double msg) {
      ++stats->traversed_edges;
      if (v == skip_target) return;
      delta[v] += msg;
      if (!queued[v] && std::abs(delta[v]) >= epsilon) {
        queued[v] = 1;
        queue.push_back(v);
      }
    });
  }
  for (VertexId v = 0; v < delta.size(); ++v) vals[v] += delta[v];
}

}  // namespace

bool SupportsIncremental(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kBfs:
    case AlgorithmId::kSssp:
    case AlgorithmId::kCc:
    case AlgorithmId::kSswp:
      return true;
    case AlgorithmId::kPageRank:
    case AlgorithmId::kPhp:
      return false;
  }
  return false;
}

Result<IncrementalStats> IncrementalRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    std::span<const VertexId> seeds, std::vector<uint32_t>* values,
    std::vector<VertexId>* parents) {
  if (!SupportsIncremental(id)) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(id)) +
        " has no monotone warm-start; use a full recompute");
  }
  if (values->size() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "previous values cover " + std::to_string(values->size()) +
        " vertices, graph has " + std::to_string(graph.num_vertices()));
  }
  for (VertexId v : seeds) {
    if (v >= graph.num_vertices()) {
      return Status::InvalidArgument("seed vertex " + std::to_string(v) +
                                     " out of range");
    }
  }
  const bool needs_source = GetAlgorithmInfo(id).needs_source;
  if (needs_source && source >= graph.num_vertices()) {
    return Status::InvalidArgument("source vertex out of range");
  }
  if (parents != nullptr && parents->size() != values->size()) {
    return Status::InvalidArgument(
        "dependency forest covers " + std::to_string(parents->size()) +
        " vertices, graph has " + std::to_string(graph.num_vertices()));
  }

  switch (id) {
    case AlgorithmId::kBfs:
      return Propagate<BfsRelax>(graph, seeds, values, parents);
    case AlgorithmId::kSssp:
      return Propagate<SsspRelax>(graph, seeds, values, parents);
    case AlgorithmId::kCc:
      return Propagate<CcRelax>(graph, seeds, values, parents);
    case AlgorithmId::kSswp:
      return Propagate<SswpRelax>(graph, seeds, values, parents);
    default:
      return Status::Internal("unhandled incremental algorithm");
  }
}

Result<IncrementalStats> DeletionAwareRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    std::span<const EdgeRecord> inserted_edges,
    std::span<const EdgeRecord> deleted_edges,
    std::vector<uint32_t>* values, std::vector<VertexId>* parents) {
  if (!SupportsIncremental(id)) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(id)) +
        " has no deletion-cone warm-start; use a full recompute");
  }
  if (parents == nullptr) {
    return Status::InvalidArgument(
        "deletion-cone recompute needs a dependency-forest buffer");
  }
  if (values->size() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "previous values cover " + std::to_string(values->size()) +
        " vertices, graph has " + std::to_string(graph.num_vertices()));
  }
  const bool needs_source = GetAlgorithmInfo(id).needs_source;
  if (needs_source && source >= graph.num_vertices()) {
    return Status::InvalidArgument("source vertex out of range");
  }
  for (const auto records : {inserted_edges, deleted_edges}) {
    for (const EdgeRecord& e : records) {
      if (e.src >= graph.num_vertices() || e.dst >= graph.num_vertices()) {
        return Status::InvalidArgument("delta edge record out of range");
      }
    }
  }

  switch (id) {
    case AlgorithmId::kBfs:
      return ConeRecompute<BfsRelax>(graph, needs_source, source,
                                     inserted_edges, deleted_edges, values,
                                      parents);
    case AlgorithmId::kSssp:
      return ConeRecompute<SsspRelax>(graph, needs_source, source,
                                      inserted_edges, deleted_edges, values,
                                      parents);
    case AlgorithmId::kCc:
      return ConeRecompute<CcRelax>(graph, needs_source, source,
                                    inserted_edges, deleted_edges, values,
                                      parents);
    case AlgorithmId::kSswp:
      return ConeRecompute<SswpRelax>(graph, needs_source, source,
                                      inserted_edges, deleted_edges, values,
                                      parents);
    default:
      return Status::Internal("unhandled deletion-cone algorithm");
  }
}

Result<IncrementalStats> AccumulativeRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    const AlgoParams& params, std::span<const EdgeRecord> inserted_edges,
    std::span<const EdgeRecord> deleted_edges,
    std::vector<double>* values) {
  if (id != AlgorithmId::kPageRank && id != AlgorithmId::kPhp) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(id)) +
        " is not in the accumulation family");
  }
  const VertexId n = graph.num_vertices();
  if (values->size() != n) {
    return Status::InvalidArgument(
        "previous values cover " + std::to_string(values->size()) +
        " vertices, graph has " + std::to_string(n));
  }
  const bool is_php = id == AlgorithmId::kPhp;
  if (is_php && source >= n) {
    return Status::InvalidArgument("PHP source vertex out of range");
  }
  for (const auto records : {inserted_edges, deleted_edges}) {
    for (const EdgeRecord& e : records) {
      if (e.src >= n || e.dst >= n) {
        return Status::InvalidArgument("delta edge record out of range");
      }
    }
  }

  IncrementalStats stats;
  if (is_php && !graph.is_weighted()) {
    // The PHP kernel's weight sums are all zero on an unweighted graph —
    // no mass ever propagates, so mutations cannot move the fixpoint.
    return stats;
  }
  const double damping =
      is_php ? params.php.damping : params.pagerank.damping;
  const double epsilon =
      is_php ? params.php.epsilon : params.pagerank.epsilon;
  std::vector<double>& vals = *values;

  // Group the delta by mutated source vertex: the injection for u compares
  // u's old and new contribution rows in one pass.
  struct TouchedDelta {
    std::vector<std::pair<VertexId, Weight>> inserts;
    std::vector<std::pair<VertexId, Weight>> deletes;
  };
  std::unordered_map<VertexId, TouchedDelta> touched;
  for (const EdgeRecord& e : inserted_edges) {
    touched[e.src].inserts.emplace_back(e.dst, e.weight);
  }
  for (const EdgeRecord& e : deleted_edges) {
    touched[e.src].deletes.emplace_back(e.dst, e.weight);
  }

  std::vector<double> pending(n, 0.0);
  for (const auto& [u, delta] : touched) {
    // New row: u's current out-edges, aggregated per target as edge count
    // (PR) or weight sum (PHP). Old row = new − epoch inserts + epoch
    // deletes, replayed from the log records.
    std::unordered_map<VertexId, double> row_new;
    double norm_new = 0;
    graph.ForEachNeighbor(u, [&](VertexId t, Weight w) {
      ++stats.traversed_edges;
      const double share = is_php ? static_cast<double>(w) : 1.0;
      row_new[t] += share;
      norm_new += share;
    });
    std::unordered_map<VertexId, double> row_old = row_new;
    double norm_old = norm_new;
    for (const auto& [t, w] : delta.inserts) {
      const double share = is_php ? static_cast<double>(w) : 1.0;
      row_old[t] -= share;
      norm_old -= share;
    }
    for (const auto& [t, w] : delta.deletes) {
      const double share = is_php ? static_cast<double>(w) : 1.0;
      row_old[t] += share;
      norm_old += share;
    }
    const double mass = damping * vals[u];
    for (const auto& [t, unused] : row_old) {
      (void)unused;
      // Targets u no longer points at still need their old contribution
      // withdrawn, so make sure the iteration below covers them.
      row_new.try_emplace(t, 0.0);
    }
    for (const auto& [t, share_new] : row_new) {
      if (is_php && t == source) continue;  // mass into the source drops
      const double contrib_new =
          norm_new > 0 ? mass * share_new / norm_new : 0.0;
      auto old_it = row_old.find(t);
      const double share_old = old_it == row_old.end() ? 0.0 : old_it->second;
      const double contrib_old =
          norm_old > 0 ? mass * share_old / norm_old : 0.0;
      const double injection = contrib_new - contrib_old;
      if (injection != 0) {
        pending[t] += injection;
        ++stats.improved_vertices;
      }
    }
  }

  if (is_php) {
    PropagateResidual(
        graph, damping, epsilon, /*skip_target=*/source, &pending, &vals,
        [&](VertexId u, double mass, auto&& emit) {
          double weight_sum = 0;
          graph.ForEachNeighbor(
              u, [&](VertexId /*t*/, Weight w) { weight_sum += w; });
          if (weight_sum <= 0) return;
          graph.ForEachNeighbor(u, [&](VertexId t, Weight w) {
            emit(t, mass * static_cast<double>(w) / weight_sum);
          });
        },
        &stats);
  } else {
    PropagateResidual(
        graph, damping, epsilon, /*skip_target=*/kInvalidVertex, &pending,
        &vals,
        [&](VertexId u, double mass, auto&& emit) {
          const EdgeId degree = graph.out_degree(u);
          if (degree == 0) return;
          const double msg = mass / static_cast<double>(degree);
          graph.ForEachNeighbor(
              u, [&](VertexId t, Weight /*w*/) { emit(t, msg); });
        },
        &stats);
  }
  return stats;
}

}  // namespace hytgraph

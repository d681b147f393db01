#include "graph/graph_builder.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "util/math_util.h"
#include "util/thread_pool.h"

namespace hytgraph {

namespace {

/// Sources are grouped into at most 2^kBucketBits buckets of consecutive
/// vertex ids: few enough that every task's scatter cursors stay in cache,
/// enough that each bucket's rows are sorted while they are still in cache.
constexpr uint32_t kBucketBits = 10;

/// Inputs with fewer edges per pool thread than this use fewer tasks; small
/// graphs build on the calling thread.
constexpr uint64_t kMinEdgesPerTask = uint64_t{1} << 14;

/// A kept edge between pass 1 and pass 2.
struct BucketedEdge {
  VertexId src;
  VertexId dst;
  Weight weight;
};

/// An uninitialized array mapped straight from the OS. Unmapping returns its
/// pages at once. Through malloc, an m-sized scratch buffer freed in one
/// build would make glibc serve the next build's buffers of that size from
/// its heap (the dynamic mmap threshold) and keep tens of MB resident after
/// the build. The pages are first touched by the parallel scatter.
template <typename T>
class MappedArray {
 public:
  explicit MappedArray(size_t size) : bytes_(size * sizeof(T)) {
    if (bytes_ == 0) return;
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~MappedArray() {
    if (data_ != nullptr) munmap(data_, bytes_);
  }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }

 private:
  size_t bytes_;
  T* data_ = nullptr;
};

/// (dst, weight) packed so that sorting keys orders a row by dst, then
/// weight: exactly the order of a (src, dst, weight) sort within a row.
uint64_t PackKey(VertexId dst, Weight weight) {
  return (uint64_t{dst} << 32) | weight;
}

/// Splits [0, prefix.size() - 1) into `parts` contiguous ranges of about
/// equal weight, where `prefix` holds the running weight sum. Returns the
/// parts + 1 boundaries.
std::vector<uint64_t> BalancedSplit(const std::vector<EdgeId>& prefix,
                                    uint64_t parts) {
  std::vector<uint64_t> bounds(parts + 1, prefix.size() - 1);
  bounds[0] = 0;
  for (uint64_t p = 1; p < parts; ++p) {
    const EdgeId target = prefix.back() * p / parts;
    bounds[p] = static_cast<uint64_t>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
  }
  return bounds;
}

}  // namespace

// A two-pass counting sort. Pass 1 buckets the kept edges by the high bits
// of their source, from per-task histograms over static input chunks. Pass 2
// counting-sorts each bucket by source into packed (dst, weight) keys, sorts
// and deduplicates each row, and unpacks it into the CSR arrays. The result
// is a function of the edge multiset alone, so it is the same at every
// thread count, and nested calls from a pool worker run the same passes
// serially. Scratch beyond the bucketed copy of the edges is O(n + tasks x
// buckets) plus, per task, the keys of its largest bucket.
Result<CsrGraph> BuildCsr(VertexId num_vertices, std::vector<Edge> edges,
                          const BuilderOptions& options) {
  ThreadPool* pool = ThreadPool::Default();
  const uint64_t n = num_vertices;
  const uint64_t m = edges.size();
  const uint64_t tasks = std::clamp<uint64_t>(
      m / kMinEdgesPerTask, 1, static_cast<uint64_t>(pool->num_threads()));
  uint32_t shift = 0;
  while ((n >> shift) > (uint64_t{1} << kBucketBits)) ++shift;
  const uint64_t num_buckets = CeilDiv(n, uint64_t{1} << shift);
  auto chunk_begin = [&](uint64_t t) { return t * m / tasks; };
  auto bucket_rows = [&](uint64_t b) {
    return std::pair<uint64_t, uint64_t>{b << shift,
                                         std::min(n, (b + 1) << shift)};
  };
  // Calls emit(src, dst, weight) for every edge the options keep for e.
  auto for_each_kept = [&options](const Edge& e, auto&& emit) {
    if (options.remove_self_loops && e.src == e.dst) return;
    emit(e.src, e.dst, e.weight);
    if (options.symmetrize && e.src != e.dst) emit(e.dst, e.src, e.weight);
  };

  // Pass 1a: range check and per-task bucket histograms. cursor[t * B + b]
  // counts the kept edges of task t's chunk whose source is in bucket b.
  std::vector<uint64_t> cursor(tasks * num_buckets, 0);
  std::vector<uint64_t> first_bad(tasks, m);
  pool->ParallelFor(
      tasks,
      [&](int /*shard*/, uint64_t task_begin, uint64_t task_end) {
        for (uint64_t t = task_begin; t < task_end; ++t) {
          uint64_t* count = cursor.data() + t * num_buckets;
          for (uint64_t i = chunk_begin(t); i < chunk_begin(t + 1); ++i) {
            const Edge& e = edges[i];
            if (e.src >= n || e.dst >= n) {
              first_bad[t] = i;
              break;
            }
            for_each_kept(e, [&](VertexId src, VertexId, Weight) {
              ++count[src >> shift];
            });
          }
        }
      },
      /*min_grain=*/1);
  for (uint64_t t = 0; t < tasks; ++t) {
    if (first_bad[t] == m) continue;
    const Edge& e = edges[first_bad[t]];
    return Status::InvalidArgument(
        "edge (" + std::to_string(e.src) + "," + std::to_string(e.dst) +
        ") out of range for n=" + std::to_string(num_vertices));
  }

  // Bucket b holds kept edges [bucket_start[b], bucket_start[b + 1]); within
  // it, task t's edges follow those of tasks < t.
  std::vector<EdgeId> bucket_start(num_buckets + 1);
  EdgeId kept = 0;
  for (uint64_t b = 0; b < num_buckets; ++b) {
    bucket_start[b] = kept;
    for (uint64_t t = 0; t < tasks; ++t) {
      const uint64_t count = cursor[t * num_buckets + b];
      cursor[t * num_buckets + b] = kept;
      kept += count;
    }
  }
  bucket_start[num_buckets] = kept;

  // Pass 1b: scatter the kept edges into their buckets.
  std::optional<MappedArray<BucketedEdge>> bucketed(std::in_place, kept);
  pool->ParallelFor(
      tasks,
      [&](int /*shard*/, uint64_t task_begin, uint64_t task_end) {
        for (uint64_t t = task_begin; t < task_end; ++t) {
          uint64_t* next = cursor.data() + t * num_buckets;
          for (uint64_t i = chunk_begin(t); i < chunk_begin(t + 1); ++i) {
            for_each_kept(edges[i], [&](VertexId src, VertexId dst,
                                        Weight w) {
              (*bucketed)[next[src >> shift]++] = BucketedEdge{src, dst, w};
            });
          }
        }
      },
      /*min_grain=*/1);
  std::vector<Edge>().swap(edges);

  // Pass 2, per bucket: counting-sort the bucket by source into packed
  // keys, sort and deduplicate each row there while it is in cache, and
  // unpack it into the CSR arrays. Rows keep their
  // extents from before deduplication; row_length[v] is what survives.
  const std::vector<uint64_t> task_buckets =
      BalancedSplit(bucket_start, tasks);
  std::vector<EdgeId> row_offsets(n + 1, 0);
  std::vector<EdgeId> row_length(options.deduplicate ? n : 0);
  std::vector<VertexId> column_index(kept);
  std::vector<Weight> edge_weights(options.weighted ? kept : 0);
  // Task t sorts in keys[key_base[t], key_base[t + 1]), sized to its
  // largest bucket. Allocated here, not on the pool workers, so the workers
  // keep no malloc arenas of their own resident after the build.
  std::vector<EdgeId> key_base(tasks + 1, 0);
  for (uint64_t t = 0; t < tasks; ++t) {
    EdgeId largest = 0;
    for (uint64_t b = task_buckets[t]; b < task_buckets[t + 1]; ++b) {
      largest = std::max(largest, bucket_start[b + 1] - bucket_start[b]);
    }
    key_base[t + 1] = key_base[t] + largest;
  }
  MappedArray<uint64_t> keys(key_base[tasks]);
  pool->ParallelFor(
      tasks,
      [&](int /*shard*/, uint64_t task_begin, uint64_t task_end) {
        for (uint64_t t = task_begin; t < task_end; ++t) {
          uint64_t* const task_keys = keys.data() + key_base[t];
          for (uint64_t b = task_buckets[t]; b < task_buckets[t + 1]; ++b) {
            const auto [lo, hi] = bucket_rows(b);
            const EdgeId begin = bucket_start[b];
            const EdgeId end = bucket_start[b + 1];
            // row_offsets[v] counts row v, then holds the row's end, and
            // after the backward scatter its start.
            for (EdgeId i = begin; i < end; ++i) {
              ++row_offsets[(*bucketed)[i].src];
            }
            EdgeId row_end = begin;
            for (uint64_t v = lo; v < hi; ++v) {
              row_end += row_offsets[v];
              row_offsets[v] = row_end;
            }
            for (EdgeId i = end; i-- > begin;) {
              const BucketedEdge& e = (*bucketed)[i];
              task_keys[--row_offsets[e.src] - begin] =
                  PackKey(e.dst, e.weight);
            }
            for (uint64_t v = lo; v < hi; ++v) {
              const EdgeId row = row_offsets[v];
              uint64_t* first = task_keys + (row - begin);
              uint64_t* last =
                  task_keys + ((v + 1 < hi ? row_offsets[v + 1] : end) - begin);
              std::sort(first, last);
              if (options.deduplicate) {
                last = std::unique(first, last, [](uint64_t x, uint64_t y) {
                  return (x >> 32) == (y >> 32);
                });
                row_length[v] = static_cast<EdgeId>(last - first);
              }
              for (EdgeId i = row; first != last; ++first, ++i) {
                column_index[i] = static_cast<VertexId>(*first >> 32);
                if (options.weighted) {
                  edge_weights[i] = static_cast<Weight>(*first);
                }
              }
            }
          }
        }
      },
      /*min_grain=*/1);
  row_offsets[n] = kept;
  bucketed.reset();

  if (options.deduplicate) {
    // Close the gaps deduplication left behind the shortened rows.
    std::vector<EdgeId> offsets(n + 1, 0);
    for (uint64_t v = 0; v < n; ++v) {
      offsets[v + 1] = offsets[v] + row_length[v];
    }
    if (offsets[n] < kept) {
      std::vector<VertexId> compact_index(offsets[n]);
      std::vector<Weight> compact_weights(options.weighted ? offsets[n] : 0);
      pool->ParallelFor(
          tasks,
          [&](int /*shard*/, uint64_t task_begin, uint64_t task_end) {
            const uint64_t lo = std::min(n, task_buckets[task_begin] << shift);
            const uint64_t hi = std::min(n, task_buckets[task_end] << shift);
            for (uint64_t v = lo; v < hi; ++v) {
              std::copy_n(column_index.begin() + row_offsets[v], row_length[v],
                          compact_index.begin() + offsets[v]);
              if (!options.weighted) continue;
              std::copy_n(edge_weights.begin() + row_offsets[v], row_length[v],
                          compact_weights.begin() + offsets[v]);
            }
          },
          /*min_grain=*/1);
      column_index.swap(compact_index);
      edge_weights.swap(compact_weights);
    }
    row_offsets.swap(offsets);
  }

  return CsrGraph::Create(std::move(row_offsets), std::move(column_index),
                          std::move(edge_weights));
}

Result<CsrGraph> BuildFromTriples(
    VertexId num_vertices,
    const std::vector<std::tuple<VertexId, VertexId, Weight>>& triples,
    const BuilderOptions& options) {
  std::vector<Edge> edges;
  edges.reserve(triples.size());
  for (const auto& [src, dst, weight] : triples) {
    edges.push_back(Edge{src, dst, weight});
  }
  return BuildCsr(num_vertices, std::move(edges), options);
}

}  // namespace hytgraph

#include "graph/rmat_generator.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/graph_builder.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace hytgraph {

namespace {

/// Draws one R-MAT endpoint pair by recursive quadrant descent. `ab` and
/// `abc` are the cumulative quadrant bounds a+b and a+b+c; since they are
/// ordered, r's quadrant is (r >= a+b) for the source bit and
/// (r >= a) ^ (r >= a+b) ^ (r >= a+b+c) for the destination bit.
void RmatEdge(Rng& rng, uint32_t scale, double a, double ab, double abc,
              VertexId* src, VertexId* dst) {
  uint64_t s = 0;
  uint64_t d = 0;
  for (uint32_t bit = 0; bit < scale; ++bit) {
    const double r = rng.NextDouble();
    const uint64_t ge_a = r >= a;
    const uint64_t ge_ab = r >= ab;
    const uint64_t ge_abc = r >= abc;
    s = (s << 1) | ge_ab;
    d = (d << 1) | (ge_a ^ ge_ab ^ ge_abc);
  }
  *src = static_cast<VertexId>(s);
  *dst = static_cast<VertexId>(d);
}

}  // namespace

Result<CsrGraph> GenerateRmat(const RmatOptions& options) {
  if (options.scale == 0 || options.scale > 31) {
    return Status::InvalidArgument("RMAT scale must be in [1, 31]");
  }
  if (options.a < 0 || options.b < 0 || options.c < 0 ||
      options.a + options.b + options.c > 1.0) {
    return Status::InvalidArgument("RMAT quadrant probabilities invalid");
  }
  const VertexId n = VertexId{1} << options.scale;
  const EdgeId m = static_cast<EdgeId>(n) * options.edge_factor;

  std::vector<Edge> edges(m);

  // Optional vertex relabeling (deterministic Fisher-Yates permutation).
  std::vector<VertexId> perm;
  if (options.permute_vertices) {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), VertexId{0});
    Rng perm_rng(options.seed ^ 0x5b4c3d2e1f00aaULL);
    for (VertexId i = n - 1; i > 0; --i) {
      const auto j = static_cast<VertexId>(perm_rng.NextBounded(i + 1));
      std::swap(perm[i], perm[j]);
    }
  }

  // Each fixed 64K-edge block draws from a private RNG derived from the seed
  // and the block id, so the output is independent of the thread count.
  const double ab = options.a + options.b;
  const double abc = ab + options.c;
  constexpr uint64_t kBlock = 64 * 1024;
  ThreadPool::Default()->ParallelFor(
      CeilDiv(m, kBlock),
      [&](int /*shard*/, uint64_t block_begin, uint64_t block_end) {
        for (uint64_t blk = block_begin; blk < block_end; ++blk) {
          Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + blk + 1);
          const uint64_t lo = blk * kBlock;
          const uint64_t hi = std::min<uint64_t>(m, lo + kBlock);
          for (uint64_t e = lo; e < hi; ++e) {
            VertexId src;
            VertexId dst;
            do {
              RmatEdge(rng, options.scale, options.a, ab, abc, &src, &dst);
            } while (src == dst);  // drop self loops, redraw
            if (options.permute_vertices) {
              src = perm[src];
              dst = perm[dst];
            }
            const Weight w =
                options.weighted
                    ? static_cast<Weight>(rng.NextInRange(1, options.max_weight))
                    : Weight{1};
            edges[e] = Edge{src, dst, w};
          }
        }
      },
      /*min_grain=*/1);

  BuilderOptions bopts;
  bopts.weighted = options.weighted;
  bopts.symmetrize = options.symmetrize;
  return BuildCsr(n, std::move(edges), bopts);
}

Result<CsrGraph> GenerateUniform(const UniformGraphOptions& options) {
  if (options.num_vertices == 0) {
    return Status::InvalidArgument("num_vertices must be > 0");
  }
  std::vector<Edge> edges(options.num_edges);
  constexpr uint64_t kBlock = 64 * 1024;
  ThreadPool::Default()->ParallelFor(
      CeilDiv(options.num_edges, kBlock),
      [&](int /*shard*/, uint64_t block_begin, uint64_t block_end) {
        for (uint64_t blk = block_begin; blk < block_end; ++blk) {
          Rng rng(options.seed * 0xa3c59ac2ULL + blk + 17);
          const uint64_t lo = blk * kBlock;
          const uint64_t hi = std::min<uint64_t>(options.num_edges, lo + kBlock);
          for (uint64_t e = lo; e < hi; ++e) {
            VertexId src;
            VertexId dst;
            do {
              src = static_cast<VertexId>(rng.NextBounded(options.num_vertices));
              dst = static_cast<VertexId>(rng.NextBounded(options.num_vertices));
            } while (src == dst);
            const Weight w =
                options.weighted
                    ? static_cast<Weight>(rng.NextInRange(1, options.max_weight))
                    : Weight{1};
            edges[e] = Edge{src, dst, w};
          }
        }
      },
      /*min_grain=*/1);

  BuilderOptions bopts;
  bopts.weighted = options.weighted;
  return BuildCsr(options.num_vertices, std::move(edges), bopts);
}

}  // namespace hytgraph

// Deterministic, seedable pseudo-random number generation. All randomized
// components of the library (RMAT generation, weight assignment, sampling)
// draw from these generators so that every experiment is reproducible
// bit-for-bit from its seed.

#ifndef HYTGRAPH_UTIL_RANDOM_H_
#define HYTGRAPH_UTIL_RANDOM_H_

#include <cstdint>

namespace hytgraph {

/// SplitMix64: used to expand a user seed into stream seeds. Passes BigCrush;
/// see Steele et al., "Fast splittable pseudorandom number generators".
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// xoshiro256**: the workhorse generator. Fast, high quality, tiny state.
/// Defined inline: generators draw tens of millions of values per graph.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    SplitMix64 seeder(seed);
    for (auto& s : s_) s = seeder.Next();
  }

  /// Uniform in [0, 2^64).
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) return 0;
    uint64_t x = NextUint64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = NextUint64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  uint64_t NextInRange(uint64_t lo, uint64_t hi) {
    return lo + NextBounded(hi - lo + 1);
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace hytgraph

#endif  // HYTGRAPH_UTIL_RANDOM_H_

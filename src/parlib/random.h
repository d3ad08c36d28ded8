// Deterministic splittable randomness: a counter-based hash RNG (so parallel
// loops can draw independent values by index with no shared state), random
// permutations, and the exponential samples used by the LDD start shifts.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace parlib {

// Finalizer from splitmix64; a high-quality 64->64 mixing function.
inline std::uint64_t hash64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline std::uint32_t hash32(std::uint32_t x) {
  return static_cast<std::uint32_t>(hash64(x) >> 32);
}

class random {
 public:
  explicit random(std::uint64_t seed = 0) : seed_(seed) {}

  // The i-th random draw of this stream; pure, so safe from parallel loops.
  std::uint64_t ith_rand(std::uint64_t i) const { return hash64(seed_ ^ hash64(i)); }

  // An independent child stream (e.g., one per round of an algorithm).
  random fork(std::uint64_t i) const { return random(ith_rand(i)); }

  random next() const { return fork(0x5bf03635); }

  // Uniform double in [0, 1).
  double ith_uniform(std::uint64_t i) const {
    return static_cast<double>(ith_rand(i) >> 11) * 0x1.0p-53;
  }

  // Exponential with rate beta (LDD start times, Section A Algorithm 5).
  double ith_exponential(std::uint64_t i, double beta) const {
    const double u = ith_uniform(i);
    return -std::log1p(-u) / beta;
  }

 private:
  std::uint64_t seed_;
};

}  // namespace parlib

#include "parlib/integer_sort.h"

namespace parlib {

// A uniformly random permutation of [0, n), computed by sorting indices by
// 64-bit random keys (stable sort makes the tiny collision probability
// harmless: the result is a permutation regardless). It lists i in the
// order of the pair (uint32_t(rng.ith_rand(i)), i).
inline std::vector<std::uint32_t> random_permutation(std::size_t n,
                                                     random rng) {
  std::vector<std::uint64_t> keyed(n);
  parallel_for(0, n, [&](std::size_t i) {
    // high bits: random key; low 32 bits: index.
    keyed[i] = (rng.ith_rand(i) << 32) | static_cast<std::uint32_t>(i);
  });
  integer_sort_inplace(
      keyed, [](std::uint64_t x) { return x >> 32; }, 32);
  std::vector<std::uint32_t> perm(n);
  parallel_for(0, n, [&](std::size_t i) {
    perm[i] = static_cast<std::uint32_t>(keyed[i] & 0xFFFFFFFFu);
  });
  return perm;
}

}  // namespace parlib

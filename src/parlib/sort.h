// Parallel comparison sorting: a stable parallel merge sort (O(n log n) work,
// polylog depth via the dual-binary-search parallel merge), plus the
// approximate k-th smallest selection used by the MSF and maximal-matching
// prefix-filtering steps (Section 4).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "parlib/parallel.h"
#include "parlib/random.h"

namespace parlib {

namespace internal {

inline constexpr std::size_t kSortBase = 4096;
inline constexpr std::size_t kMergeBase = 4096;

// Merge [a_lo,a_hi) and [b_lo,b_hi) of src into dst starting at out_lo,
// splitting the larger side at its midpoint and binary-searching the other.
template <typename T, typename Less>
void parallel_merge(const std::vector<T>& src, std::size_t a_lo,
                    std::size_t a_hi, std::size_t b_lo, std::size_t b_hi,
                    std::vector<T>& dst, std::size_t out_lo,
                    const Less& less) {
  const std::size_t na = a_hi - a_lo;
  const std::size_t nb = b_hi - b_lo;
  if (na + nb <= kMergeBase) {
    std::merge(src.begin() + a_lo, src.begin() + a_hi, src.begin() + b_lo,
               src.begin() + b_hi, dst.begin() + out_lo, less);
    return;
  }
  if (na < nb) {
    // Keep the A side the larger one; stability requires that on equal keys
    // A (the earlier range) wins, which upper/lower bound choices ensure.
    const std::size_t b_mid = b_lo + nb / 2;
    const std::size_t a_mid =
        std::upper_bound(src.begin() + a_lo, src.begin() + a_hi, src[b_mid],
                         less) -
        src.begin();
    const std::size_t out_mid = out_lo + (a_mid - a_lo) + (b_mid - b_lo);
    par_do(
        [&] {
          parallel_merge(src, a_lo, a_mid, b_lo, b_mid, dst, out_lo, less);
        },
        [&] {
          parallel_merge(src, a_mid, a_hi, b_mid, b_hi, dst, out_mid, less);
        });
  } else {
    const std::size_t a_mid = a_lo + na / 2;
    const std::size_t b_mid =
        std::lower_bound(src.begin() + b_lo, src.begin() + b_hi, src[a_mid],
                         less) -
        src.begin();
    const std::size_t out_mid = out_lo + (a_mid - a_lo) + (b_mid - b_lo);
    par_do(
        [&] {
          parallel_merge(src, a_lo, a_mid, b_lo, b_mid, dst, out_lo, less);
        },
        [&] {
          parallel_merge(src, a_mid, a_hi, b_mid, b_hi, dst, out_mid, less);
        });
  }
}

// Sorts [lo, hi). If `to_buf`, the sorted result lands in buf, else in data.
template <typename T, typename Less>
void merge_sort_rec(std::vector<T>& data, std::vector<T>& buf, std::size_t lo,
                    std::size_t hi, bool to_buf, const Less& less) {
  const std::size_t n = hi - lo;
  if (n <= kSortBase) {
    std::stable_sort(data.begin() + lo, data.begin() + hi, less);
    if (to_buf) {
      std::copy(data.begin() + lo, data.begin() + hi, buf.begin() + lo);
    }
    return;
  }
  const std::size_t mid = lo + n / 2;
  par_do([&] { merge_sort_rec(data, buf, lo, mid, !to_buf, less); },
         [&] { merge_sort_rec(data, buf, mid, hi, !to_buf, less); });
  if (to_buf) {
    parallel_merge(data, lo, mid, mid, hi, buf, lo, less);
  } else {
    parallel_merge(buf, lo, mid, mid, hi, data, lo, less);
  }
}

}  // namespace internal

// Stable parallel sort in place.
template <typename T, typename Less = std::less<T>>
void sort_inplace(std::vector<T>& data, const Less& less = Less{}) {
  if (data.size() <= 1) return;
  std::vector<T> buf(data.size());
  internal::merge_sort_rec(data, buf, 0, data.size(), /*to_buf=*/false, less);
}

template <typename T, typename Less = std::less<T>>
std::vector<T> sorted(std::vector<T> data, const Less& less = Less{}) {
  sort_inplace(data, less);
  return data;
}

// Approximate k-th smallest (Section 4, MSF filtering) of the n values
// at(0), ..., at(n - 1): samples O(num_samples) of them and returns the
// sample value whose rank scales to k. The returned pivot splits the values
// into a low side of ~k elements. Only the sampled values are read, so a
// caller need not materialize the n values.
template <typename At, typename Less = std::less<>>
auto approximate_kth_smallest(std::size_t n, std::size_t k, const At& at,
                              random rng, std::size_t num_samples = 1024,
                              const Less& less = Less{}) {
  num_samples = std::min(num_samples, n);
  std::vector<std::decay_t<decltype(at(std::size_t{0}))>> samples(
      num_samples);
  for (std::size_t i = 0; i < num_samples; ++i) {
    samples[i] = at(rng.ith_rand(i) % n);
  }
  std::sort(samples.begin(), samples.end(), less);
  const std::size_t rank = std::min(
      num_samples - 1,
      static_cast<std::size_t>((static_cast<double>(k) / n) * num_samples));
  return samples[rank];
}

}  // namespace parlib

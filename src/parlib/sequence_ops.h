// The parallel sequence primitives of Section 3: scan, reduce, map/tabulate,
// filter, pack, pack_index and the blocked pack they share. All are
// work-efficient (O(n) work) and low-depth: they use the standard blocked
// two-pass scheme — a parallel pass computing per-block summaries, a
// (short) scan over the block summaries, and a parallel pass writing
// block-local results. With block count ~ n / BLOCK the summary scan is
// negligible, giving O(n) work and O(BLOCK + n/BLOCK) ~ polylog effective
// depth for the sizes we run.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "parlib/monoid.h"
#include "parlib/parallel.h"

namespace parlib {

template <typename T>
using sequence = std::vector<T>;

inline constexpr std::size_t kSeqBlockSize = 2048;

inline std::size_t num_blocks(std::size_t n, std::size_t block) {
  return n == 0 ? 0 : (n - 1) / block + 1;
}

// ---------------------------------------------------------------- tabulate

template <typename T, typename F>
sequence<T> tabulate(std::size_t n, const F& f) {
  sequence<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

template <typename In, typename F>
auto map(const In& in, const F& f) {
  using T = std::decay_t<decltype(f(in[0]))>;
  return tabulate<T>(in.size(), [&](std::size_t i) { return f(in[i]); });
}

// ------------------------------------------------------------------ reduce

template <typename In, typename Monoid>
typename Monoid::value_type reduce(const In& in, const Monoid& m) {
  using T = typename Monoid::value_type;
  const std::size_t n = in.size();
  if (n == 0) return m.identity;
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb == 1) {
    T acc = m.identity;
    for (std::size_t i = 0; i < n; ++i) acc = m.combine(acc, in[i]);
    return acc;
  }
  sequence<T> sums(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        T acc = m.identity;
        for (std::size_t i = lo; i < hi; ++i) acc = m.combine(acc, in[i]);
        sums[b] = acc;
      },
      1);
  T acc = m.identity;
  for (std::size_t b = 0; b < nb; ++b) acc = m.combine(acc, sums[b]);
  return acc;
}

template <typename In>
auto reduce_add(const In& in) {
  using T = std::decay_t<decltype(in[0])>;
  return reduce(in, plus_monoid<T>());
}

template <typename In, typename F>
std::size_t count_if(const In& in, const F& pred) {
  const std::size_t n = in.size();
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb <= 1) {
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) c += pred(in[i]) ? 1 : 0;
    return c;
  }
  sequence<std::size_t> sums(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        std::size_t c = 0;
        for (std::size_t i = lo; i < hi; ++i) c += pred(in[i]) ? 1 : 0;
        sums[b] = c;
      },
      1);
  std::size_t c = 0;
  for (std::size_t b = 0; b < nb; ++b) c += sums[b];
  return c;
}

// -------------------------------------------------------------------- scan

// Exclusive scan of `in` into `out` (which may alias `in`); returns the
// total. out[i] = id (+) in[0] (+) ... (+) in[i-1].
template <typename In, typename Out, typename Monoid>
typename Monoid::value_type scan_into(const In& in, Out& out,
                                      const Monoid& m) {
  using T = typename Monoid::value_type;
  const std::size_t n = in.size();
  if (n == 0) return m.identity;
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb == 1) {
    T acc = m.identity;
    for (std::size_t i = 0; i < n; ++i) {
      const T v = in[i];
      out[i] = acc;
      acc = m.combine(acc, v);
    }
    return acc;
  }
  sequence<T> sums(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        T acc = m.identity;
        for (std::size_t i = lo; i < hi; ++i) acc = m.combine(acc, in[i]);
        sums[b] = acc;
      },
      1);
  T total = m.identity;
  for (std::size_t b = 0; b < nb; ++b) {
    const T s = sums[b];
    sums[b] = total;
    total = m.combine(total, s);
  }
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        T acc = sums[b];
        for (std::size_t i = lo; i < hi; ++i) {
          const T v = in[i];
          out[i] = acc;
          acc = m.combine(acc, v);
        }
      },
      1);
  return total;
}

// Exclusive plus-scan in place; returns the total.
template <typename T>
T scan_inplace(sequence<T>& seq) {
  return scan_into(seq, seq, plus_monoid<T>());
}

template <typename In, typename Monoid>
std::pair<sequence<typename Monoid::value_type>,
          typename Monoid::value_type>
scan(const In& in, const Monoid& m) {
  sequence<typename Monoid::value_type> out(in.size());
  auto total = scan_into(in, out, m);
  return {std::move(out), total};
}

// ------------------------------------------------------------ filter/pack

// Blocked two-pass pack over [0, n): each(i, emit) calls emit(x) on the
// outputs of element i in order, once per block to count them and, after
// the scan of the block counts, once more to write them to out[base + ...).
// `out` grows to fit. `scratch`, if given, holds the block counts, so a
// caller can reuse it across calls. Returns the number of outputs.
template <typename T, typename Each>
std::size_t pack_blocks(std::size_t n, const Each& each, sequence<T>& out,
                        std::size_t base = 0,
                        sequence<std::size_t>* scratch = nullptr) {
  sequence<std::size_t> local;
  auto& offsets = scratch ? *scratch : local;
  offsets.resize(num_blocks(n, kSeqBlockSize));
  auto for_block = [&](std::size_t b, const auto& emit) {
    const std::size_t hi = std::min(n, (b + 1) * kSeqBlockSize);
    for (std::size_t i = b * kSeqBlockSize; i < hi; ++i) each(i, emit);
  };
  parallel_for(
      0, offsets.size(),
      [&](std::size_t b) {
        std::size_t c = 0;
        for_block(b, [&](const T&) { ++c; });
        offsets[b] = c;
      },
      1);
  const std::size_t total = scan_inplace(offsets);
  if (out.size() < base + total) out.resize(base + total);
  parallel_for(
      0, offsets.size(),
      [&](std::size_t b) {
        std::size_t k = base + offsets[b];
        for_block(b, [&](const T& x) { out[k++] = x; });
      },
      1);
  return total;
}

// Returns elements of `in` satisfying `pred`, preserving order.
template <typename In, typename F>
auto filter(const In& in, const F& pred) {
  sequence<std::decay_t<decltype(in[0])>> out;
  auto each = [&](std::size_t i, const auto& emit) {
    if (pred(in[i])) emit(in[i]);
  };
  if (in.size() > kSeqBlockSize) {
    pack_blocks(in.size(), each, out);
  } else {
    for (std::size_t i = 0; i < in.size(); ++i)
      each(i, [&](const auto& x) { out.push_back(x); });
  }
  return out;
}

// Keep in[i] where flags[i] is truthy.
template <typename In, typename Flags>
auto pack(const In& in, const Flags& flags) {
  assert(flags.size() == in.size());
  sequence<std::decay_t<decltype(in[0])>> out;
  pack_blocks(in.size(), [&](std::size_t i, const auto& emit) {
    if (flags[i]) emit(in[i]);
  }, out);
  return out;
}

// Indices i (as IdxT) where flags[i] is truthy.
template <typename IdxT, typename Flags>
sequence<IdxT> pack_index(const Flags& flags) {
  sequence<IdxT> out;
  pack_blocks(flags.size(), [&](std::size_t i, const auto& emit) {
    if (flags[i]) emit(static_cast<IdxT>(i));
  }, out);
  return out;
}

// Map f over in, keeping only engaged optionals.
template <typename In, typename F>
auto map_maybe(const In& in, const F& f) {
  using Opt = std::decay_t<decltype(f(in[0]))>;
  sequence<Opt> tmp(in.size());
  parallel_for(0, in.size(), [&](std::size_t i) { tmp[i] = f(in[i]); });
  sequence<typename Opt::value_type> out;
  pack_blocks(tmp.size(), [&](std::size_t i, const auto& emit) {
    if (tmp[i]) emit(*tmp[i]);
  }, out);
  return out;
}

// iota
template <typename T>
sequence<T> iota(std::size_t n) {
  return tabulate<T>(n, [](std::size_t i) { return static_cast<T>(i); });
}

}  // namespace parlib

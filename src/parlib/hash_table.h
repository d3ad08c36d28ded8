// Phase-concurrent open-addressing hash tables.
//
// Two flavors, both preallocated to a caller-supplied capacity bound (the
// paper's SCC implementation upper-bounds insertions per round with a
// parallel reduce before growing the table; see Section 5 "Techniques for
// overlapping searches"):
//
//  * concurrent_set<uint64_t>   — a linear-probing set of 64-bit items,
//    used to deduplicate inter-cluster edges during graph contraction.
//  * reachability_table         — the (vertex, center) multimap used by the
//    SCC multi-search. Pairs are hashed ONLY by the vertex id, so all pairs
//    of a vertex sit on one probe sequence: iterating a vertex's centers is
//    a linear probe until the first empty cell, and the pairs share cache
//    lines (both points made in Section 5).
//
// Insertions claim cells with CAS; there are no deletions (phase-concurrent
// usage), so "probe until empty" is a correct membership / iteration rule.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace parlib {

inline std::size_t next_power_of_two(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

// A set of 64-bit values. kEmpty must never be inserted.
class concurrent_set {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  explicit concurrent_set(std::size_t capacity_bound)
      : mask_(next_power_of_two(std::max<std::size_t>(
                  16, capacity_bound + capacity_bound / 2)) -
              1),
        cells_(mask_ + 1, kEmpty) {}

  // Returns true if this call inserted `v` (false if already present).
  bool insert(std::uint64_t v) {
    assert(v != kEmpty);
    std::size_t i = hash64(v) & mask_;
    while (true) {
      std::uint64_t cur = atomic_load(&cells_[i]);
      if (cur == v) return false;
      if (cur == kEmpty) {
        if (atomic_cas(&cells_[i], kEmpty, v)) return true;
        cur = atomic_load(&cells_[i]);
        if (cur == v) return false;
        continue;  // someone else claimed the cell; re-examine it
      }
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint64_t v) const {
    std::size_t i = hash64(v) & mask_;
    while (true) {
      const std::uint64_t cur = atomic_load(&cells_[i]);
      if (cur == v) return true;
      if (cur == kEmpty) return false;
      i = (i + 1) & mask_;
    }
  }

  // All stored values, in arbitrary order.
  sequence<std::uint64_t> entries() const {
    return filter(cells_, [](std::uint64_t v) { return v != kEmpty; });
  }

  std::size_t capacity() const { return cells_.size(); }

 private:
  std::size_t mask_;
  std::vector<std::uint64_t> cells_;
};

// Insert-once map from 64-bit keys to 64-bit values: the first insert of a
// key wins and its value is retained (phase-concurrent; no deletion). Used
// by graph contraction to keep one representative original edge per
// quotient edge.
class concurrent_map {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  explicit concurrent_map(std::size_t capacity_bound)
      : mask_(next_power_of_two(std::max<std::size_t>(
                  16, capacity_bound + capacity_bound / 2)) -
              1),
        keys_(mask_ + 1, kEmpty),
        values_(mask_ + 1, 0) {}

  // Returns true if this call inserted the key (value stored); false if the
  // key was already present (value ignored).
  bool insert(std::uint64_t key, std::uint64_t value) {
    assert(key != kEmpty);
    std::size_t i = hash64(key) & mask_;
    while (true) {
      std::uint64_t cur = atomic_load(&keys_[i]);
      if (cur == key) return false;
      if (cur == kEmpty) {
        // Only the inserter that claims the cell writes its value. find()
        // runs after all inserts (phase rule), so it sees the value.
        if (atomic_cas(&keys_[i], kEmpty, key)) {
          values_[i] = value;
          return true;
        }
        cur = atomic_load(&keys_[i]);
        if (cur == key) return false;
        continue;
      }
      i = (i + 1) & mask_;
    }
  }

  // Value for key; requires all inserts to have completed (phase rule).
  std::uint64_t find(std::uint64_t key) const {
    std::size_t i = hash64(key) & mask_;
    while (true) {
      const std::uint64_t cur = atomic_load(&keys_[i]);
      if (cur == key) return values_[i];
      if (cur == kEmpty) return kEmpty;
      i = (i + 1) & mask_;
    }
  }

  // All (key, value) pairs, in arbitrary order.
  sequence<std::pair<std::uint64_t, std::uint64_t>> entries() const {
    auto idx = tabulate<std::size_t>(keys_.size(),
                                     [](std::size_t i) { return i; });
    auto live = filter(idx, [&](std::size_t i) {
      return keys_[i] != kEmpty;
    });
    return map(live, [&](std::size_t i) {
      return std::make_pair(keys_[i], values_[i]);
    });
  }

  std::size_t capacity() const { return keys_.size(); }

 private:
  std::size_t mask_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
};

// Multimap from 32-bit vertex ids to 32-bit labels, hashed by vertex only.
class reachability_table {
 public:
  using vertex_t = std::uint32_t;
  using label_t = std::uint32_t;
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  explicit reachability_table(std::size_t capacity_bound)
      : mask_(next_power_of_two(std::max<std::size_t>(
                  16, capacity_bound + capacity_bound / 2)) -
              1),
        cells_(mask_ + 1, kEmpty) {}

  static std::uint64_t pack(vertex_t v, label_t c) {
    return (static_cast<std::uint64_t>(v) << 32) | c;
  }

  // Insert (v, c); returns true if newly inserted.
  bool insert(vertex_t v, label_t c) {
    const std::uint64_t item = pack(v, c);
    std::size_t i = hash64(v) & mask_;
    while (true) {
      std::uint64_t cur = atomic_load(&cells_[i]);
      if (cur == item) return false;
      if (cur == kEmpty) {
        if (atomic_cas(&cells_[i], kEmpty, item)) return true;
        cur = atomic_load(&cells_[i]);
        if (cur == item) return false;
        continue;
      }
      i = (i + 1) & mask_;
    }
  }

  bool contains(vertex_t v, label_t c) const {
    const std::uint64_t item = pack(v, c);
    std::size_t i = hash64(v) & mask_;
    while (true) {
      const std::uint64_t cur = atomic_load(&cells_[i]);
      if (cur == item) return true;
      if (cur == kEmpty) return false;
      i = (i + 1) & mask_;
    }
  }

  // Apply f(label) to every label stored for v. Because pairs are hashed by
  // v alone, all of v's pairs lie on v's probe sequence before its first
  // empty cell (pairs of other vertices may be interleaved).
  template <typename F>
  void for_each_label(vertex_t v, const F& f) const {
    std::size_t i = hash64(v) & mask_;
    while (true) {
      const std::uint64_t cur = atomic_load(&cells_[i]);
      if (cur == kEmpty) return;
      if (static_cast<vertex_t>(cur >> 32) == v) {
        f(static_cast<label_t>(cur & 0xFFFFFFFFu));
      }
      i = (i + 1) & mask_;
    }
  }

  std::size_t count_labels(vertex_t v) const {
    std::size_t c = 0;
    for_each_label(v, [&](label_t) { ++c; });
    return c;
  }

  // All (vertex, label) pairs.
  sequence<std::uint64_t> entries() const {
    return filter(cells_, [](std::uint64_t v) { return v != kEmpty; });
  }

  std::size_t capacity() const { return cells_.size(); }

 private:
  std::size_t mask_;
  std::vector<std::uint64_t> cells_;
};

}  // namespace parlib

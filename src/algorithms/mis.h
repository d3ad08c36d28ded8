// Maximal independent set (Algorithm 10, Blelloch-Fineman-Shun rootset
// algorithm): O(m) expected work, O(log^2 n) depth w.h.p. on the FA-MT-RAM.
//
// A random permutation defines a priority DAG (edges point from higher to
// lower priority). Priority[v] counts v's higher-priority neighbors; roots
// (count 0) join the MIS, their neighbors are removed, and the removed
// vertices decrement the counts of their lower-priority neighbors with
// fetch-and-add — a vertex whose count reaches 0 is a new root.
//
// The prefix-based variant of [19] (the baseline the paper compares against
// in Section 6) is also provided: it speculatively processes a prefix of
// the permutation per round, committing vertices whose earlier neighbors
// are all decided.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

namespace mis_internal {

struct decrement_f {
  const std::vector<std::uint32_t>* perm_pos;
  std::vector<std::int64_t>* priority;

  bool cond(vertex_id v) const {
    return parlib::atomic_load(&(*priority)[v]) > 0;
  }
  bool apply(vertex_id u, vertex_id v) const {
    if ((*perm_pos)[u] < (*perm_pos)[v]) {
      return parlib::fetch_and_add<std::int64_t>(&(*priority)[v], -1) == 1;
    }
    return false;
  }
  bool update(vertex_id u, vertex_id v, auto) const { return apply(u, v); }
  bool update_atomic(vertex_id u, vertex_id v, auto) const {
    return apply(u, v);
  }
};

struct remove_f {
  std::vector<std::int64_t>* priority;
  std::vector<std::uint8_t>* removed_flag;

  bool cond(vertex_id v) const {
    return parlib::atomic_load(&(*priority)[v]) > 0;
  }
  bool update(vertex_id, vertex_id v, auto) const {
    if (!(*removed_flag)[v]) {
      (*removed_flag)[v] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v, auto) const {
    return parlib::test_and_set(&(*removed_flag)[v]);
  }
};

}  // namespace mis_internal

// Returns in_mis flags (1 = in the MIS).
template <typename Graph>
std::vector<std::uint8_t> mis_rootset(const Graph& g,
                                      parlib::random rng = parlib::random(
                                          0x315)) {
  const vertex_id n = g.num_vertices();
  const auto perm = parlib::random_permutation(n, rng);
  // perm_pos[v] = position of v in the permutation (its priority).
  std::vector<std::uint32_t> perm_pos(n);
  parlib::parallel_for(0, n, [&](std::size_t i) { perm_pos[perm[i]] = i; });

  std::vector<std::int64_t> priority(n);
  parlib::parallel_for(0, n, [&](std::size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    priority[vi] = static_cast<std::int64_t>(g.count_out(
        v, [&](vertex_id, vertex_id u, auto) {
          return perm_pos[u] < perm_pos[v];
        }));
  });

  std::vector<std::uint8_t> in_mis(n, 0), removed_flag(n, 0);
  auto root_flags = parlib::tabulate<std::uint8_t>(n, [&](std::size_t v) {
    return static_cast<std::uint8_t>(priority[v] == 0);
  });
  vertex_subset roots(n, parlib::pack_index<vertex_id>(root_flags));
  std::uint64_t finished = 0;
  while (finished < n) {
    roots.to_sparse();
    vertex_map(roots, [&](vertex_id v) { in_mis[v] = 1; });
    // Neighbors of the rootset that are still active get removed.
    auto removed = edge_map(
        g, roots, mis_internal::remove_f{&priority, &removed_flag});
    removed.to_sparse();
    vertex_map(removed, [&](vertex_id v) { priority[v] = 0; });
    finished += roots.size() + removed.size();
    roots = edge_map(
        g, removed, mis_internal::decrement_f{&perm_pos, &priority},
        // Always run sparse: the dense traversal's early exit on cond does
        // not suit counting updates from multiple sources.
        edge_map_direction::sparse);
  }
  return in_mis;
}

// Prefix-based MIS baseline [19]: speculative processing of permutation
// prefixes. Used by the Section 6 ablation (rootset is 1.1-3.5x faster).
template <typename Graph>
std::vector<std::uint8_t> mis_prefix(const Graph& g,
                                     parlib::random rng = parlib::random(
                                         0x315),
                                     std::size_t prefix_size = 0) {
  const vertex_id n = g.num_vertices();
  if (prefix_size == 0) prefix_size = std::max<std::size_t>(64, n / 25);
  const auto perm = parlib::random_permutation(n, rng);
  std::vector<std::uint32_t> perm_pos(n);
  parlib::parallel_for(0, n, [&](std::size_t i) { perm_pos[perm[i]] = i; });

  // status: 0 undecided, 1 in MIS, 2 removed.
  std::vector<std::uint8_t> status(n, 0);
  std::size_t start = 0;
  while (start < n) {
    const std::size_t end = std::min<std::size_t>(n, start + prefix_size);
    while (true) {
      std::vector<std::uint8_t> changed(end - start, 0);
      parlib::parallel_for(start, end, [&](std::size_t i) {
        const vertex_id v = perm[i];
        if (status[v] != 0) return;
        bool all_earlier_decided = true;
        bool has_mis_neighbor = false;
        g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
          if (status[u] == 1) {
            has_mis_neighbor = true;
            return false;
          }
          if (perm_pos[u] < perm_pos[v] && status[u] == 0) {
            all_earlier_decided = false;
          }
          return true;
        });
        if (has_mis_neighbor) {
          status[v] = 2;
          changed[i - start] = 1;
        } else if (all_earlier_decided) {
          status[v] = 1;
          changed[i - start] = 1;
        }
      });
      bool any = parlib::reduce_add(parlib::map(
                     changed, [](std::uint8_t c) -> std::uint64_t {
                       return c;
                     })) > 0;
      bool all_done =
          parlib::count_if(parlib::tabulate<std::uint8_t>(
                               end - start,
                               [&](std::size_t i) {
                                 return static_cast<std::uint8_t>(
                                     status[perm[start + i]] == 0);
                               }),
                           [](std::uint8_t u) { return u != 0; }) == 0;
      if (all_done) break;
      if (!any) break;  // cannot happen; safety against livelock
    }
    start = end;
  }
  return parlib::tabulate<std::uint8_t>(n, [&](std::size_t v) {
    return static_cast<std::uint8_t>(status[v] == 1);
  });
}

}  // namespace gbbs

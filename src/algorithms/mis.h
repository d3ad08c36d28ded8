// Maximal independent set (Algorithm 10, Blelloch-Fineman-Shun rootset
// algorithm): O(m) expected work, O(log^2 n) depth w.h.p. on the FA-MT-RAM.
//
// A vertex's random priority is a hash of its id, ties broken by id: the
// order of parlib::random_permutation under the same seed. The priority DAG
// of priority_dag.h counts each vertex's earlier neighbors. Roots (count 0)
// join the MIS, their waiting neighbors are removed, and the removed
// vertices release their later neighbors with fetch-and-add — a vertex
// whose count reaches 0 is a new root.
//
// The prefix-based variant of [19] (the baseline the paper compares against
// in Section 6) is also provided: it speculatively processes a prefix of
// that permutation per round, committing vertices whose earlier neighbors
// (by the same priorities) are all decided.
#pragma once

#include <cstdint>
#include <vector>

#include "algorithms/priority_dag.h"
#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

namespace mis_internal {

// The random priority of each vertex, compared by priority_before.
inline std::vector<std::uint32_t> priorities(vertex_id n, parlib::random rng) {
  return parlib::tabulate<std::uint32_t>(n, [&](std::size_t v) {
    return static_cast<std::uint32_t>(rng.ith_rand(v));
  });
}

// Removes (retires) the waiting neighbors of a rootset.
template <typename Dag>
struct remove_f {
  Dag* dag;
  bool cond(vertex_id v) const { return dag->waiting(v); }
  bool update(vertex_id, vertex_id v, auto) const { return dag->retire(v); }
  bool update_atomic(vertex_id, vertex_id v, auto) const {
    return dag->retire(v);
  }
};

}  // namespace mis_internal

// Returns in_mis flags (1 = in the MIS).
template <typename Graph>
std::vector<std::uint8_t> mis_rootset(const Graph& g,
                                      parlib::random rng = parlib::random(
                                          0x315)) {
  const vertex_id n = g.num_vertices();
  priority_dag dag(g, mis_internal::priorities(n, rng));
  std::vector<std::uint8_t> in_mis(n, 0);
  dag.run([&](vertex_subset& roots) {
    vertex_map(roots, [&](vertex_id v) { in_mis[v] = 1; });
    // The removed neighbors are the frontier that releases the next roots.
    return edge_map(g, roots, mis_internal::remove_f<decltype(dag)>{&dag});
  });
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
  const auto priority = mis_internal::priorities(n, rng);

  // status: 0 undecided, 1 in MIS, 2 removed. A round reads the statuses
  // that others in the same prefix write, hence atomic accesses.
  std::vector<std::uint8_t> status(n, 0);
  for (std::size_t start = 0; start < n; start += prefix_size) {
    const std::size_t end = std::min<std::size_t>(n, start + prefix_size);
    for (std::uint64_t left = end - start; left > 0;) {
      parlib::parallel_for(start, end, [&](std::size_t i) {
        const vertex_id v = perm[i];
        if (status[v] != 0) return;
        bool all_earlier_decided = true;
        bool has_mis_neighbor = false;
        g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
          const std::uint8_t s = parlib::atomic_load(&status[u]);
          if (s == 1) {
            has_mis_neighbor = true;
            return false;
          }
          if (s == 0 && priority_before(priority, u, v)) {
            all_earlier_decided = false;
          }
          return true;
        });
        if (has_mis_neighbor || all_earlier_decided) {
          parlib::atomic_store(
              &status[v], static_cast<std::uint8_t>(has_mis_neighbor ? 2 : 1));
        }
      });
      const std::uint64_t now = parlib::reduce_add(
          parlib::tabulate<std::uint64_t>(end - start, [&](std::size_t i) {
            return status[perm[start + i]] == 0 ? 1 : 0;
          }));
      if (now == left) break;  // cannot happen; safety against livelock
      left = now;
    }
  }
  return parlib::tabulate<std::uint8_t>(n, [&](std::size_t v) {
    return static_cast<std::uint8_t>(status[v] == 1);
  });
}

}  // namespace gbbs

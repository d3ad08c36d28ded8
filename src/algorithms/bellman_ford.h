// General-weight SSSP via frontier-based Bellman-Ford (Algorithm 2):
// O(diam(G) * m) work, O(diam(G) log n) depth on the PW-MT-RAM. Distances
// are relaxed with priority-write(min); per-round flags ensure each improved
// vertex enters the next frontier once. If a negative-weight cycle is
// reachable, every vertex reachable from it reports -infinity
// (numeric_limits<int64>::lowest()), per the benchmark I/O spec.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"

namespace gbbs {

inline constexpr std::int64_t kInfDist64 =
    std::numeric_limits<std::int64_t>::max();
inline constexpr std::int64_t kNegInfDist64 =
    std::numeric_limits<std::int64_t>::lowest();

namespace bf_internal {

struct bf_f {
  std::vector<std::int64_t>* dist;
  std::vector<std::uint8_t>* flags;

  bool cond(vertex_id) const { return true; }
  bool update(vertex_id u, vertex_id v, auto w) const {
    const std::int64_t nd = (*dist)[u] + static_cast<std::int64_t>(w);
    if (nd < (*dist)[v]) {
      (*dist)[v] = nd;
      if (!(*flags)[v]) {
        (*flags)[v] = 1;
        return true;
      }
    }
    return false;
  }
  bool update_atomic(vertex_id u, vertex_id v, auto w) const {
    const std::int64_t nd = (*dist)[u] + static_cast<std::int64_t>(w);
    if (nd < parlib::atomic_load(&(*dist)[v])) {
      parlib::write_min(&(*dist)[v], nd);
      if (!(*flags)[v]) return parlib::test_and_set(&(*flags)[v]);
    }
    return false;
  }
};

struct mark_reachable_f {
  std::vector<std::int64_t>* dist;
  bool cond(vertex_id v) const { return (*dist)[v] != kNegInfDist64; }
  bool update(vertex_id, vertex_id v, auto) const {
    if ((*dist)[v] != kNegInfDist64) {
      (*dist)[v] = kNegInfDist64;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v, auto) const {
    return parlib::priority_write(
        &(*dist)[v], kNegInfDist64,
        [](std::int64_t a, std::int64_t b) { return a != b; });
  }
};

}  // namespace bf_internal

template <typename Graph>
std::vector<std::int64_t> bellman_ford(
    const Graph& g, vertex_id src,
    edge_map_direction dir = edge_map_direction::automatic) {
  const vertex_id n = g.num_vertices();
  std::vector<std::int64_t> dist(n, kInfDist64);
  std::vector<std::uint8_t> flags(n, 0);
  dist[src] = 0;
  vertex_subset frontier(n, src);
  std::uint64_t rounds = 0;
  while (!frontier.empty() && rounds <= n) {
    frontier = edge_map(g, frontier, bf_internal::bf_f{&dist, &flags}, dir);
    frontier.to_sparse();
    vertex_map(frontier, [&](vertex_id v) { flags[v] = 0; });
    ++rounds;
  }
  if (!frontier.empty()) {
    // Still relaxing after n rounds: a negative cycle. Everything reachable
    // from the current frontier gets -inf.
    frontier.for_each([&](vertex_id v) { dist[v] = kNegInfDist64; });
    while (!frontier.empty()) {
      frontier =
          edge_map(g, frontier, bf_internal::mark_reachable_f{&dist}, dir);
    }
  }
  return dist;
}

}  // namespace gbbs

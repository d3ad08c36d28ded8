// Triangle counting (Section A): O(m^{3/2}) work. The graph is directed by
// (degree, id) rank — edge (u, v) kept iff u ranks below v — so every
// triangle is counted exactly once, at its lowest-ranked vertex v, as
// |N+(v) ∩ N+(u)| for the DAG edge (v, u).
//
// Each intersection is done by marking (Schank & Wagner's forward-hashed
// variant): for each v, set one bit per w ∈ N+(v) in an n-bit bitset, count
// the set bits at N+(u) for each u ∈ N+(v), then clear the touched words.
// Rank order bounds every out-degree by √(2m), so the scan costs
// Σ_{(v,u) ∈ DAG} d+(u) ≤ m·√(2m). Depth is O(log n) for the parallel loop
// over vertices plus the longest single vertex's scan, which runs
// sequentially (the paper parallelizes intersections too; the outer loop
// supplies ample parallelism in practice).
//
// Scratch: one bitset (n/8 bytes) per worker slot that runs a vertex,
// allocated on the slot's first vertex and owned by this call, so
// concurrent calls never share bits. The per-vertex body must not fork: a
// help-steal at a join inside it could run another vertex of this call on
// the same slot while its bits are set.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

template <typename Graph>
std::uint64_t triangle_count(const Graph& g) {
  const vertex_id n = g.num_vertices();
  // rank(u) < rank(v) iff (deg(u), u) < (deg(v), v).
  auto ranks_below = [&](vertex_id u, vertex_id v) {
    const auto du = g.out_degree(u), dv = g.out_degree(v);
    return du < dv || (du == dv && u < v);
  };
  auto dag = filter_graph(g, [&](vertex_id u, vertex_id v, auto) {
    return ranks_below(u, v);
  });
  // Sequential walk over a DAG row: never forks (see the header comment).
  auto for_each_out = [&](vertex_id v, auto&& f) {
    dag.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id w, auto) {
      f(w);
      return true;
    });
  };
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::vector<std::uint64_t>> marks(parlib::max_worker_slots());
  auto per_vertex = parlib::tabulate<std::uint64_t>(n, [&](std::size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    if (dag.out_degree(v) < 2) return std::uint64_t{0};
    auto& bits = marks[parlib::worker_slot()];
    if (bits.empty()) bits.assign(words, 0);
    for_each_out(v, [&](vertex_id w) {
      bits[w >> 6] |= std::uint64_t{1} << (w & 63);
    });
    std::uint64_t count = 0;
    for_each_out(v, [&](vertex_id u) {
      for_each_out(u, [&](vertex_id w) {
        count += (bits[w >> 6] >> (w & 63)) & 1;
      });
    });
    for_each_out(v, [&](vertex_id w) { bits[w >> 6] = 0; });
    return count;
  });
  return parlib::reduce_add(per_vertex);
}

}  // namespace gbbs

// Graph coloring (Algorithm 12): synchronous Jones-Plassmann with the LLF
// (largest-log-degree-first) heuristic of Hasenplaugh et al., O(m + n) work
// and O(L log Delta + log n) depth on the FA-MT-RAM; the LF
// (largest-degree-first) heuristic is selectable for the statistics tables.
//
// Priority[v] counts neighbors ordered before v; roots color themselves
// with the smallest color absent from their neighborhood, then decrement
// their later neighbors with fetch-and-add.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

enum class coloring_heuristic { llf, lf };

namespace coloring_internal {

inline std::uint32_t log2_ceil(std::uint64_t d) {
  std::uint32_t b = 0;
  while ((std::uint64_t{1} << b) < d) ++b;
  return b;
}

struct order {
  // True if u is ordered (colored) before v.
  const std::vector<std::uint64_t>* key;  // higher key first
  const std::vector<std::uint32_t>* tiebreak;
  bool before(vertex_id u, vertex_id v) const {
    if ((*key)[u] != (*key)[v]) return (*key)[u] > (*key)[v];
    return (*tiebreak)[u] < (*tiebreak)[v];
  }
};

struct decrement_f {
  order ord;
  std::vector<std::int64_t>* priority;
  bool cond(vertex_id v) const {
    return parlib::atomic_load(&(*priority)[v]) > 0;
  }
  bool apply(vertex_id u, vertex_id v) const {
    if (ord.before(u, v)) {
      return parlib::fetch_and_add<std::int64_t>(&(*priority)[v], -1) == 1;
    }
    return false;
  }
  bool update(vertex_id u, vertex_id v, auto) const { return apply(u, v); }
  bool update_atomic(vertex_id u, vertex_id v, auto) const {
    return apply(u, v);
  }
};

}  // namespace coloring_internal

// Returns colors in [0, Delta + 1).
template <typename Graph>
std::vector<vertex_id> color_graph(const Graph& g,
                                   coloring_heuristic heuristic =
                                       coloring_heuristic::llf,
                                   parlib::random rng = parlib::random(
                                       0xc01)) {
  const vertex_id n = g.num_vertices();
  const auto perm = parlib::random_permutation(n, rng);
  std::vector<std::uint32_t> perm_pos(n);
  parlib::parallel_for(0, n, [&](std::size_t i) { perm_pos[perm[i]] = i; });
  auto key = parlib::tabulate<std::uint64_t>(n, [&](std::size_t v) {
    const std::uint64_t d = g.out_degree(static_cast<vertex_id>(v));
    return heuristic == coloring_heuristic::llf
               ? coloring_internal::log2_ceil(d + 1)
               : d;
  });
  const coloring_internal::order ord{&key, &perm_pos};

  std::vector<std::int64_t> priority(n);
  parlib::parallel_for(0, n, [&](std::size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    priority[vi] = static_cast<std::int64_t>(g.count_out(
        v, [&](vertex_id, vertex_id u, auto) { return ord.before(u, v); }));
  });

  std::vector<vertex_id> color(n, kNoVertex);
  auto assign_color = [&](vertex_id v) {
    // Smallest color not used by any neighbor: deg+1 candidates suffice.
    const std::size_t deg = g.out_degree(v);
    std::vector<std::uint8_t> used(deg + 1, 0);
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
      const vertex_id c = color[u];
      if (c != kNoVertex && c <= deg) used[c] = 1;
      return true;
    });
    for (std::size_t c = 0; c <= deg; ++c) {
      if (!used[c]) {
        color[v] = static_cast<vertex_id>(c);
        return;
      }
    }
  };

  auto root_flags = parlib::tabulate<std::uint8_t>(n, [&](std::size_t v) {
    return static_cast<std::uint8_t>(priority[v] == 0);
  });
  vertex_subset roots(n, parlib::pack_index<vertex_id>(root_flags));
  std::uint64_t finished = 0;
  while (finished < n) {
    roots.to_sparse();
    vertex_map(roots, [&](vertex_id v) { assign_color(v); });
    finished += roots.size();
    roots = edge_map(g, roots,
                     coloring_internal::decrement_f{ord, &priority},
                     edge_map_direction::sparse);
  }
  return color;
}

// Asynchronous Jones-Plassmann (the Hasenplaugh et al. execution model the
// paper compares its synchronous implementation against in Section 6,
// reporting the synchronous version 1.2-1.6x slower "due to synchronizing
// on many rounds which contain few vertices"). Instead of global rounds, a
// vertex is colored by whichever task decrements its priority counter to
// zero, which then recursively activates its newly-ready neighbors via
// fork-join — no barriers. The activation DAG has the same O(L log Delta)
// depth, so the bounds are unchanged.
namespace coloring_internal {

template <typename Graph, typename Assign>
void async_activate(const Graph& g, vertex_id v, const order& ord,
                    std::vector<std::int64_t>& priority,
                    const Assign& assign_color) {
  assign_color(v);
  // Collect neighbors that become ready when we decrement them.
  std::vector<vertex_id> ready;
  g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
    if (ord.before(v, u) &&
        parlib::fetch_and_add<std::int64_t>(&priority[u], -1) == 1) {
      ready.push_back(u);
    }
    return true;
  });
  // Activate ready children as a balanced fork-join tree.
  const std::function<void(std::size_t, std::size_t)> spawn =
      [&](std::size_t lo, std::size_t hi) {
        if (hi - lo == 1) {
          async_activate(g, ready[lo], ord, priority, assign_color);
          return;
        }
        const std::size_t mid = lo + (hi - lo) / 2;
        parlib::par_do([&] { spawn(lo, mid); }, [&] { spawn(mid, hi); });
      };
  if (!ready.empty()) spawn(0, ready.size());
}

}  // namespace coloring_internal

template <typename Graph>
std::vector<vertex_id> color_graph_async(const Graph& g,
                                         coloring_heuristic heuristic =
                                             coloring_heuristic::llf,
                                         parlib::random rng = parlib::random(
                                             0xc01)) {
  const vertex_id n = g.num_vertices();
  const auto perm = parlib::random_permutation(n, rng);
  std::vector<std::uint32_t> perm_pos(n);
  parlib::parallel_for(0, n, [&](std::size_t i) { perm_pos[perm[i]] = i; });
  auto key = parlib::tabulate<std::uint64_t>(n, [&](std::size_t v) {
    const std::uint64_t d = g.out_degree(static_cast<vertex_id>(v));
    return heuristic == coloring_heuristic::llf
               ? coloring_internal::log2_ceil(d + 1)
               : d;
  });
  const coloring_internal::order ord{&key, &perm_pos};
  std::vector<std::int64_t> priority(n);
  parlib::parallel_for(0, n, [&](std::size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    priority[vi] = static_cast<std::int64_t>(g.count_out(
        v, [&](vertex_id, vertex_id u, auto) { return ord.before(u, v); }));
  });
  std::vector<vertex_id> color(n, kNoVertex);
  auto assign_color = [&](vertex_id v) {
    const std::size_t deg = g.out_degree(v);
    std::vector<std::uint8_t> used(deg + 1, 0);
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
      const vertex_id c = parlib::atomic_load(&color[u]);
      if (c != kNoVertex && c <= deg) used[c] = 1;
      return true;
    });
    for (std::size_t c = 0; c <= deg; ++c) {
      if (!used[c]) {
        parlib::atomic_store(&color[v], static_cast<vertex_id>(c));
        return;
      }
    }
  };
  auto root_flags = parlib::tabulate<std::uint8_t>(n, [&](std::size_t v) {
    return static_cast<std::uint8_t>(priority[v] == 0);
  });
  auto roots = parlib::pack_index<vertex_id>(root_flags);
  parlib::parallel_for(
      0, roots.size(),
      [&](std::size_t i) {
        coloring_internal::async_activate(g, roots[i], ord, priority,
                                          assign_color);
      },
      1);
  return color;
}

// Number of colors used (max color + 1).
inline vertex_id num_colors(const std::vector<vertex_id>& colors) {
  if (colors.empty()) return 0;
  auto mx = parlib::reduce(colors, parlib::max_monoid<vertex_id>());
  return mx == kNoVertex ? 0 : mx + 1;
}

}  // namespace gbbs

// Biconnectivity (Algorithm 7, Tarjan-Vishkin as implemented in Section 4):
// O(m) expected work, O(max(diam(G) log n, log^3 n)) depth w.h.p. on the
// FA-MT-RAM up to the last pass, whose depth is not polylog-bounded (below).
//
// Pipeline: connectivity labels -> one root per component -> multi-source
// BFS spanning forest, whose frontiers are its levels -> leaffix/rootfix
// computations over those levels (subtree Size, preorder PN, Low, High) ->
// critical tree edges (u, p(u)) where PN(p) <= Low(u) and High(u) < PN(p) +
// Size(p) -> connectivity on G minus critical edges. The resulting
// per-vertex labels answer per-edge biconnectivity queries in O(1) with 2n
// space: a tree edge gets the label of its deeper endpoint, a non-tree edge
// the label of either endpoint (they agree, as non-tree edges are never
// removed).
//
// The last step never builds G minus the critical edges. Cutting the
// critical edges out of the forest leaves pieces: a vertex's piece is its
// nearest ancestor (itself included) that is a root or the child end of a
// critical edge, one top-down pass over the levels. Every non-critical tree
// edge lies inside a piece, and a tree edge between two pieces is critical
// by construction, so the components of G minus the critical edges are the
// pieces joined by the non-tree edges. One parallel pass over the edges
// unites the pieces of each non-tree edge's endpoints in a concurrent
// union-find. Its links always point from the higher root to the lower one,
// so each set's root is its smallest piece id and the labels are the same on
// every run and at every worker count. The trade-off: concurrent union-find
// has no polylog depth bound (a chain of unites can serialize), like the
// union-find connectivity baseline in baselines.h. Contracting the pieces and
// running connectivity() on the quotient would keep the bound, but on R-MAT
// every root-child tree edge is critical, so most non-tree edges cross
// pieces and the quotient is nearly as large as G.
//
// The leaffix (bottom-up) and rootfix (top-down) sums exploit that BFS
// levels are a valid schedule: all children of a vertex live exactly one
// level deeper, so one parallel pass per level suffices. The BFS records
// each frontier as it goes, so the levels are never rebuilt from the tree.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/spanning_forest.h"
#include "graph/graph.h"
#include "parlib/integer_sort.h"
#include "parlib/monoid.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"
#include "parlib/union_find.h"

namespace gbbs {

// A BFS forest organized for level-synchronous leaffix/rootfix passes.
struct rooted_forest {
  std::vector<vertex_id> parents;
  std::vector<std::uint32_t> level;
  std::vector<std::vector<vertex_id>> waves;  // waves[d] = vertices at depth d
  std::vector<edge_id> child_offsets;         // CSR over children
  std::vector<vertex_id> children;

  std::span<const vertex_id> children_of(vertex_id v) const {
    return {children.data() + child_offsets[v],
            children.data() + child_offsets[v + 1]};
  }
  // f(v) on every vertex, one parallel pass per level: top-down, or
  // bottom-up (leaves first) for the leaffix sums.
  template <typename F>
  void for_each_level(bool bottom_up, const F& f) const {
    for (std::size_t i = 0; i < waves.size(); ++i) {
      const auto& wave = waves[bottom_up ? waves.size() - 1 - i : i];
      parlib::parallel_for(0, wave.size(), [&](std::size_t j) { f(wave[j]); });
    }
  }
};

// `levels` are the BFS's frontiers: levels[d] holds the vertices at depth d.
inline rooted_forest build_rooted_forest(
    std::vector<vertex_id> parents,
    std::vector<std::vector<vertex_id>> levels) {
  const std::size_t n = parents.size();
  rooted_forest f;
  f.parents = std::move(parents);
  // Children CSR: non-root vertices stably sorted by parent. Each parent's
  // last child records the end of its run; v's children start at the
  // largest end recorded below v (an exclusive max-scan).
  f.children = parlib::filter(parlib::iota<vertex_id>(n), [&](vertex_id v) {
    return f.parents[v] != v && f.parents[v] != kNoVertex;
  });
  std::size_t bits = 1;
  while ((n >> bits) != 0) ++bits;
  parlib::integer_sort_inplace(
      f.children, [&](vertex_id v) { return f.parents[v]; }, bits);
  f.child_offsets.assign(n + 1, 0);
  parlib::parallel_for(0, f.children.size(), [&](std::size_t i) {
    const vertex_id p = f.parents[f.children[i]];
    if (i + 1 == f.children.size() || f.parents[f.children[i + 1]] != p) {
      f.child_offsets[p] = i + 1;
    }
  });
  parlib::scan_into(f.child_offsets, f.child_offsets,
                    parlib::max_monoid<edge_id>());
  f.level.assign(n, 0);
  for (std::size_t d = 1; d < levels.size(); ++d) {
    const auto& level = levels[d];
    parlib::parallel_for(0, level.size(), [&](std::size_t i) {
      f.level[level[i]] = static_cast<std::uint32_t>(d);
    });
  }
  f.waves = std::move(levels);
  return f;
}

struct biconnectivity_result {
  std::vector<vertex_id> parents;        // BFS forest
  std::vector<std::uint32_t> level;      // forest depth
  std::vector<vertex_id> vertex_labels;  // CC labels of G \ critical edges
  std::uint64_t num_critical_edges = 0;

  // Biconnectivity label of edge (u, v) in O(1).
  vertex_id edge_label(vertex_id u, vertex_id v) const {
    if (parents[u] == v) return vertex_labels[u];
    if (parents[v] == u) return vertex_labels[v];
    return vertex_labels[level[u] > level[v] ? u : v];
  }
};

template <typename Graph>
biconnectivity_result biconnectivity(const Graph& g) {
  const vertex_id n = g.num_vertices();
  auto sf = spanning_forest(g);
  auto forest =
      build_rooted_forest(std::move(sf.parents), std::move(sf.levels));
  const auto& parents = forest.parents;

  // Leaffix: subtree sizes, bottom-up over waves.
  std::vector<std::uint64_t> size(n, 1);
  forest.for_each_level(/*bottom_up=*/true, [&](vertex_id v) {
    for (const vertex_id ch : forest.children_of(v)) size[v] += size[ch];
  });

  // Preorder numbers: trees are laid out consecutively (offset = prefix sum
  // of root subtree sizes); within a tree, rootfix top-down.
  std::vector<std::uint64_t> pre(n, 0);
  {
    auto tree_sizes = parlib::map(
        sf.roots, [&](vertex_id r) { return size[r]; });
    parlib::scan_inplace(tree_sizes);
    parlib::parallel_for(0, sf.roots.size(), [&](std::size_t i) {
      pre[sf.roots[i]] = tree_sizes[i];
    });
  }
  forest.for_each_level(/*bottom_up=*/false, [&](vertex_id v) {
    std::uint64_t next = pre[v] + 1;
    for (const vertex_id ch : forest.children_of(v)) {
      pre[ch] = next;
      next += size[ch];
    }
  });

  // Leaffix Low/High over preorder numbers of non-tree neighbors.
  std::vector<std::uint64_t> low(n), high(n);
  parlib::parallel_for(0, n, [&](std::size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    std::uint64_t lo = pre[v], hi = pre[v];
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id w, auto) {
      const bool tree_edge = parents[v] == w || parents[w] == v;
      if (!tree_edge) {
        lo = std::min(lo, pre[w]);
        hi = std::max(hi, pre[w]);
      }
      return true;
    });
    low[v] = lo;
    high[v] = hi;
  });
  forest.for_each_level(/*bottom_up=*/true, [&](vertex_id v) {
    for (const vertex_id ch : forest.children_of(v)) {
      low[v] = std::min(low[v], low[ch]);
      high[v] = std::max(high[v], high[ch]);
    }
  });

  // Critical tree edges (u, p(u)): subtree(u) never escapes subtree(p(u)).
  std::vector<std::uint8_t> critical(n, 0);  // indexed by child u
  parlib::parallel_for(0, n, [&](std::size_t ui) {
    const auto u = static_cast<vertex_id>(ui);
    const vertex_id p = parents[u];
    if (p == u || p == kNoVertex) return;
    if (pre[p] <= low[u] && high[u] < pre[p] + size[p]) critical[u] = 1;
  });
  const std::uint64_t num_critical =
      parlib::count_if(critical, [](std::uint8_t c) { return c != 0; });

  // Connectivity of G with critical edges removed: forest pieces, joined by
  // the non-tree edges between them. A duplicate of a tree edge counts as
  // that tree edge, as in the Low/High pass.
  std::vector<vertex_id> labels(n);  // piece ids, then component labels
  forest.for_each_level(/*bottom_up=*/false, [&](vertex_id v) {
    const vertex_id p = parents[v];
    labels[v] = (p == v || critical[v]) ? v : labels[p];
  });
  parlib::union_find pieces(n);
  parlib::parallel_for(0, n, [&](std::size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    g.map_out_neighbors(v, [&](vertex_id, vertex_id w, auto) {
      if (w < v && labels[w] != labels[v] && parents[v] != w &&
          parents[w] != v) {
        pieces.unite(labels[v], labels[w]);
      }
    });
  });
  parlib::parallel_for(
      0, n, [&](std::size_t v) { labels[v] = pieces.find(labels[v]); });

  biconnectivity_result res;
  res.parents = std::move(forest.parents);
  res.level = std::move(forest.level);
  res.vertex_labels = std::move(labels);
  res.num_critical_edges = num_critical;
  return res;
}

}  // namespace gbbs

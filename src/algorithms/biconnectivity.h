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
// space: a tree edge gets the label of its child endpoint, a non-tree edge
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
// each frontier as it goes, so the levels are never rebuilt from the tree,
// and no children lists are built either: a bottom-up pass has each vertex
// push into its parent (fetch-and-add for Size, write-min/write-max for Low
// and High), and the top-down preorder pass hands each child its interval
// from a per-parent cursor, PN(v) = fetch-and-add(next(p), Size(v)). The
// order among siblings is then whatever the workers make it, which changes
// no answer: "w lies in subtree(p)" is interval membership under any
// preorder, so the critical edges and the labels are the same on every run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algorithms/spanning_forest.h"
#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"
#include "parlib/union_find.h"

namespace gbbs {

struct biconnectivity_result {
  std::vector<vertex_id> parents;        // BFS forest
  std::vector<vertex_id> vertex_labels;  // CC labels of G \ critical edges
  std::uint64_t num_critical_edges = 0;

  // Biconnectivity label of edge (u, v) in O(1): a tree edge's child end,
  // else either end.
  vertex_id edge_label(vertex_id u, vertex_id v) const {
    return parents[u] == v ? vertex_labels[u] : vertex_labels[v];
  }
};

template <typename Graph>
biconnectivity_result biconnectivity(const Graph& g) {
  const vertex_id n = g.num_vertices();
  auto sf = spanning_forest(g);
  const auto& parents = sf.parents;
  // f(v, parent) on every non-root vertex, one parallel pass per level:
  // top-down, or bottom-up (leaves first) for the leaffix sums.
  auto for_each_level = [&](bool bottom_up, const auto& f) {
    for (std::size_t i = 1; i < sf.levels.size(); ++i) {
      const auto& level = sf.levels[bottom_up ? sf.levels.size() - i : i];
      parlib::parallel_for(0, level.size(), [&](std::size_t j) {
        f(level[j], parents[level[j]]);
      });
    }
  };

  // Leaffix: subtree sizes, each vertex adding its own into its parent.
  std::vector<std::uint64_t> size(n, 1);
  for_each_level(/*bottom_up=*/true, [&](vertex_id v, vertex_id p) {
    parlib::fetch_and_add(&size[p], size[v]);
  });

  // Preorder numbers: trees are laid out consecutively (offset = prefix sum
  // of root subtree sizes); within a tree, rootfix top-down, each child
  // taking the next Size(v) numbers of its parent's cursor.
  std::vector<std::uint64_t> pre(n, 0), next(n, 0);
  {
    auto tree_sizes = parlib::map(
        sf.roots, [&](vertex_id r) { return size[r]; });
    parlib::scan_inplace(tree_sizes);
    parlib::parallel_for(0, sf.roots.size(), [&](std::size_t i) {
      pre[sf.roots[i]] = tree_sizes[i];
      next[sf.roots[i]] = tree_sizes[i] + 1;
    });
  }
  for_each_level(/*bottom_up=*/false, [&](vertex_id v, vertex_id p) {
    pre[v] = parlib::fetch_and_add(&next[p], size[v]);
    next[v] = pre[v] + 1;
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
  for_each_level(/*bottom_up=*/true, [&](vertex_id v, vertex_id p) {
    parlib::write_min(&low[p], low[v]);
    parlib::write_max(&high[p], high[v]);
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
  auto labels = parlib::iota<vertex_id>(n);  // piece ids, then labels
  for_each_level(/*bottom_up=*/false, [&](vertex_id v, vertex_id p) {
    if (!critical[v]) labels[v] = labels[p];
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
  res.parents = std::move(sf.parents);
  res.vertex_labels = std::move(labels);
  res.num_critical_edges = num_critical;
  return res;
}

}  // namespace gbbs

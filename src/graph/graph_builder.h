// Parallel CSR construction from edge lists: stable two-pass radix sort by
// (u, v), self-loop removal, duplicate-edge removal (first weight wins),
// optional symmetrization. O(m) work for word-sized vertex ids.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "parlib/integer_sort.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

namespace builder_internal {

// Sort edges lexicographically by (u, v) using two stable radix passes.
template <typename W>
void sort_edges(std::vector<edge<W>>& edges, vertex_id n) {
  std::size_t bits = 1;
  while ((static_cast<std::uint64_t>(n) >> bits) != 0) ++bits;
  parlib::integer_sort_inplace(
      edges, [](const edge<W>& e) { return e.v; }, bits);
  parlib::integer_sort_inplace(
      edges, [](const edge<W>& e) { return e.u; }, bits);
}

}  // namespace builder_internal

namespace internal {

template <typename W>
std::vector<edge<W>> clean_edges(std::vector<edge<W>> edges, vertex_id n) {
  // Drop edges with endpoints outside [0, n) up front: they would corrupt
  // the CSR offset array. Callers that want them must grow n instead (the
  // batch-dynamic subsystem does).
  edges = parlib::filter(
      edges, [n](const edge<W>& e) { return e.u < n && e.v < n; });
  builder_internal::sort_edges(edges, n);
  auto keep = parlib::tabulate<std::uint8_t>(edges.size(), [&](std::size_t i) {
    const auto& e = edges[i];
    if (e.u == e.v) return std::uint8_t{0};
    if (i > 0 && edges[i - 1].u == e.u && edges[i - 1].v == e.v)
      return std::uint8_t{0};
    return std::uint8_t{1};
  });
  return parlib::pack(edges, keep);
}

// CSR arrays from a clean sorted edge list.
template <typename W>
void csr_from_sorted(const std::vector<edge<W>>& edges, vertex_id n,
                     std::vector<edge_id>& offsets,
                     std::vector<vertex_id>& nghs, std::vector<W>& wghs) {
  const std::size_t m = edges.size();
  // Run starts give the offsets of vertices with edges; degree-0 vertices
  // inherit the next run start via a backward sweep.
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  parlib::parallel_for(0, m, [&](std::size_t i) {
    if (i == 0 || edges[i - 1].u != edges[i].u) {
      offsets[edges[i].u] = i;
    }
  });
  offsets[n] = m;
  // Fill offsets of degree-0 vertices with the next run start (backward
  // max-scan); do it sequentially over n (cheap relative to sort).
  // A parallel-backward-scan version: offsets[v] = min over u >= v of start.
  {
    // mark which vertices have edges
    std::vector<std::uint8_t> has(n, 0);
    parlib::parallel_for(0, m, [&](std::size_t i) {
      if (i == 0 || edges[i - 1].u != edges[i].u) has[edges[i].u] = 1;
    });
    edge_id next = m;
    for (std::size_t v = n; v-- > 0;) {
      if (has[v]) {
        next = offsets[v];
      } else {
        offsets[v] = next;
      }
    }
  }
  nghs.resize(m);
  if constexpr (!std::is_same_v<W, empty_weight>) wghs.resize(m);
  parlib::parallel_for(0, m, [&](std::size_t i) {
    nghs[i] = edges[i].v;
    if constexpr (!std::is_same_v<W, empty_weight>) wghs[i] = edges[i].w;
  });
}

// CSR arrays from an edge list in arbitrary order: sort by (u, v), then
// lay out. Shared by the asymmetric builder's in-CSR transpose and the
// dynamic subsystem's snapshot transpose.
template <typename W>
void csr_from_unsorted(std::vector<edge<W>> edges, vertex_id n,
                       std::vector<edge_id>& offsets,
                       std::vector<vertex_id>& nghs, std::vector<W>& wghs) {
  builder_internal::sort_edges(edges, n);
  csr_from_sorted(edges, n, offsets, nghs, wghs);
}

}  // namespace internal

// Build an undirected (symmetric) graph: every input edge is inserted in
// both directions, then cleaned. m counts directed edge slots (2x the number
// of undirected edges), matching the paper's convention for -Sym graphs.
template <typename W>
graph<W> build_symmetric_graph(vertex_id n, std::vector<edge<W>> edges) {
  const std::size_t m0 = edges.size();
  edges.resize(2 * m0);
  parlib::parallel_for(0, m0, [&](std::size_t i) {
    edges[m0 + i] = {edges[i].v, edges[i].u, edges[i].w};
  });
  auto clean = internal::clean_edges(std::move(edges), n);
  std::vector<edge_id> offsets;
  std::vector<vertex_id> nghs;
  std::vector<W> wghs;
  internal::csr_from_sorted(clean, n, offsets, nghs, wghs);
  return graph<W>(n, clean.size(), /*symmetric=*/true, std::move(offsets),
                  std::move(nghs), std::move(wghs));
}

// Build a directed (asymmetric) graph with both out- and in-CSR.
template <typename W>
graph<W> build_asymmetric_graph(vertex_id n, std::vector<edge<W>> edges) {
  auto clean = internal::clean_edges(std::move(edges), n);
  std::vector<edge_id> out_off, in_off;
  std::vector<vertex_id> out_ngh, in_ngh;
  std::vector<W> out_w, in_w;
  internal::csr_from_sorted(clean, n, out_off, out_ngh, out_w);
  // Transpose for the in-CSR.
  auto rev = parlib::tabulate<edge<W>>(clean.size(), [&](std::size_t i) {
    return edge<W>{clean[i].v, clean[i].u, clean[i].w};
  });
  internal::csr_from_unsorted(std::move(rev), n, in_off, in_ngh, in_w);
  return graph<W>(n, clean.size(), /*symmetric=*/false, std::move(out_off),
                  std::move(out_ngh), std::move(out_w), std::move(in_off),
                  std::move(in_ngh), std::move(in_w));
}

// Keep edges (u, ngh, w) with pred(u, ngh, w); returns a static CSR graph.
// This is the rebuild form of Ligra+'s pack (Section B) — used to direct
// graphs by degree for triangle counting and to drop matched / shortcut
// edges in MM and MSF. The source may be any graph_view model (a live
// dynamic graph or an overlay-fused serving view included): filtering
// reads only out-neighborhoods, so e.g. triangle counting on a dynamic
// view builds its rank-directed DAG straight from base ⊕ overlay without
// ever materializing the merged CSR.
template <typename G, typename F>
graph<typename G::weight_type> filter_graph(const G& g, const F& pred) {
  using W = typename G::weight_type;
  const vertex_id n = g.num_vertices();
  auto degs = parlib::tabulate<edge_id>(n, [&](std::size_t v) {
    return g.count_out(static_cast<vertex_id>(v), pred);
  });
  std::vector<edge_id> offsets(static_cast<std::size_t>(n) + 1);
  edge_id total = 0;
  {
    std::vector<edge_id> tmp = degs;
    total = parlib::scan_inplace(tmp);
    parlib::parallel_for(0, n, [&](std::size_t v) { offsets[v] = tmp[v]; });
    offsets[n] = total;
  }
  std::vector<vertex_id> nghs(total);
  std::vector<W> wghs;
  if constexpr (!std::is_same_v<W, empty_weight>) wghs.resize(total);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    std::size_t k = offsets[v];
    g.map_out_neighbors_early_exit(static_cast<vertex_id>(v),
                       [&](vertex_id u, vertex_id ngh, W w) {
                         if (pred(u, ngh, w)) {
                           nghs[k] = ngh;
                           if constexpr (!std::is_same_v<W, empty_weight>) {
                             wghs[k] = w;
                           }
                           ++k;
                         }
                         return true;
                       });
  });
  // The filtered graph is generally not symmetric even if g was; we build it
  // as out-CSR-only and mark it symmetric so in_* calls alias out_*.
  // Callers (TC) only use out-neighborhoods.
  return graph<W>(n, total, /*symmetric=*/true, std::move(offsets),
                  std::move(nghs), std::move(wghs));
}

// Copy a symmetric graph_view into a fresh static CSR — O(n + m) work.
// Rows are sized by out_degree and filled in map_out_neighbors order. The
// serving layer builds a published version's merged CSR (base ⊕ overlay,
// or all shards stitched) this way.
template <graph_view G>
graph<typename G::weight_type> materialize_csr(const G& g) {
  using W = typename G::weight_type;
  assert(g.symmetric());
  const vertex_id n = g.num_vertices();
  auto offsets = parlib::tabulate<edge_id>(
      static_cast<std::size_t>(n) + 1, [&](std::size_t v) -> edge_id {
        return v < n ? g.out_degree(static_cast<vertex_id>(v)) : 0;
      });
  const edge_id total = parlib::scan_inplace(offsets);
  std::vector<vertex_id> nghs(total);
  std::vector<W> wghs;
  if constexpr (!std::is_same_v<W, empty_weight>) wghs.resize(total);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    edge_id k = offsets[v];
    g.map_out_neighbors(static_cast<vertex_id>(v),
                        [&](vertex_id, vertex_id ngh, W w) {
                          nghs[k] = ngh;
                          if constexpr (!std::is_same_v<W, empty_weight>) {
                            wghs[k] = w;
                          }
                          ++k;
                          (void)w;
                        });
    assert(k == offsets[v + 1]);
  });
  return graph<W>(n, total, /*symmetric=*/true, std::move(offsets),
                  std::move(nghs), std::move(wghs));
}

}  // namespace gbbs

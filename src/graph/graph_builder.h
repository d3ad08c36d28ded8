// CSR construction. One routine lays out every CSR in the library:
// layout_csr(g, pred) sizes each row of a graph_view model (out_degree, or
// count_out under a predicate), scans the sizes into offsets, then fills
// the rows in parallel in map_out_neighbors order — O(n + m) work. It is
// what filter_graph, copy_csr (the dynamic graph's snapshot, decompression
// and the serving layer's merged view), the sharded-ingest seed split and
// the binary writer are made of, and its offsets-and-fill loop
// (internal::layout_rows) is the one connectivity's compacted quotient and
// the edge-list builders reuse: in the builders a row is the vertex's run
// of the edge list after a stable two-pass radix sort by (u, v), minus
// self-loops and repeats (first weight wins). The
// directed builder lays out its in-CSR the same way from the reversed
// out-CSR, which arrives ordered by target and so needs only the pass by
// source.
#pragma once

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

// One side of a CSR: n + 1 offsets, then every row's neighbors (and, for
// weighted graphs, weights) back to back.
template <typename W>
struct csr_arrays {
  std::vector<edge_id> offsets;
  std::vector<vertex_id> nghs;
  std::vector<W> wghs;
};

// The predicate that keeps every edge. layout_csr sizes its rows with
// out_degree (O(1)) instead of count_out.
struct keep_all {
  template <typename W>
  bool operator()(vertex_id, vertex_id, W) const {
    return true;
  }
};

namespace internal {

// The CSR offsets-and-fill loop: row_size(v) is the length of row v and
// row_fill(v, emit) calls emit(ngh, w) on its entries in order.
template <typename W, typename Size, typename Fill>
csr_arrays<W> layout_rows(vertex_id n, const Size& row_size,
                          const Fill& row_fill) {
  csr_arrays<W> c;
  c.offsets = parlib::tabulate<edge_id>(
      static_cast<std::size_t>(n) + 1, [&](std::size_t v) -> edge_id {
        return v < n ? row_size(static_cast<vertex_id>(v)) : 0;
      });
  const edge_id m = parlib::scan_inplace(c.offsets);
  c.nghs.resize(m);
  if constexpr (!std::is_same_v<W, empty_weight>) c.wghs.resize(m);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    edge_id k = c.offsets[v];
    row_fill(static_cast<vertex_id>(v), [&](vertex_id ngh, W w) {
      c.nghs[k] = ngh;
      if constexpr (!std::is_same_v<W, empty_weight>) {
        c.wghs[k] = w;
      } else {
        (void)w;
      }
      ++k;
    });
    assert(k == c.offsets[v + 1]);
  });
  return c;
}

// Radix key width for ids < n.
inline std::size_t id_bits(vertex_id n) {
  std::size_t bits = 1;
  while ((static_cast<std::uint64_t>(n) >> bits) != 0) ++bits;
  return bits;
}

// Edges with both endpoints in [0, n): the others would corrupt the
// offsets. Callers that want them must grow n instead (the batch-dynamic
// subsystem does).
template <typename W>
std::vector<edge<W>> in_range(std::vector<edge<W>> edges, vertex_id n) {
  return parlib::filter(
      edges, [n](const edge<W>& e) { return e.u < n && e.v < n; });
}

// CSR of an edge list with ids < n that is already ordered by target: one
// stable radix pass by source sorts it by (u, v). Row v is v's run of the
// sorted list without self-loops and without repeats of the previous
// (u, v), so the first weight wins.
template <typename W>
csr_arrays<W> csr_from_target_ordered(std::vector<edge<W>> edges,
                                      vertex_id n) {
  parlib::integer_sort_inplace(
      edges, [](const edge<W>& e) { return e.u; }, id_bits(n));
  // run[v] = the first position whose source is >= v, so v's run is
  // [run[v], run[v + 1]). Position i writes the entries of the sources
  // after the one at i - 1, up to and including its own.
  const std::size_t m = edges.size();
  std::vector<edge_id> run(static_cast<std::size_t>(n) + 1);
  parlib::parallel_for(0, m + 1, [&](std::size_t i) {
    const std::size_t lo = i == 0 ? 0 : std::size_t{edges[i - 1].u} + 1;
    const std::size_t hi = i == m ? n : edges[i].u;
    for (std::size_t v = lo; v <= hi; ++v) run[v] = i;
  });
  // f(e) on the kept edges of v's run: not a self-loop, not a repeat.
  auto row = [&](vertex_id v, const auto& f) {
    const std::size_t lo = run[v], hi = run[v + 1];
    for (std::size_t i = lo; i < hi; ++i) {
      const edge<W>& e = edges[i];
      if (e.v != v && (i == lo || edges[i - 1].v != e.v)) f(e);
    }
  };
  return layout_rows<W>(
      n,
      [&](vertex_id v) {
        edge_id d = 0;
        row(v, [&](const edge<W>&) { ++d; });
        return d;
      },
      [&](vertex_id v, const auto& emit) {
        row(v, [&](const edge<W>& e) { emit(e.v, e.w); });
      });
}

// CSR of an edge list with ids < n in any order: a stable radix pass by
// target first.
template <typename W>
csr_arrays<W> csr_from_edges(std::vector<edge<W>> edges, vertex_id n) {
  parlib::integer_sort_inplace(
      edges, [](const edge<W>& e) { return e.v; }, id_bits(n));
  return csr_from_target_ordered(std::move(edges), n);
}

}  // namespace internal

// Lay out g's out-edges (u, ngh, w) with pred(u, ngh, w) as a CSR. g may be
// any graph_view model — a live dynamic graph, an overlay-fused serving
// view, or transposed_view(g) for g's in-side.
template <graph_view G, typename F = keep_all>
csr_arrays<typename G::weight_type> layout_csr(const G& g,
                                               const F& pred = {}) {
  using W = typename G::weight_type;
  return internal::layout_rows<W>(
      g.num_vertices(),
      [&](vertex_id v) -> edge_id {
        if constexpr (std::is_same_v<F, keep_all>) {
          return g.out_degree(v);
        } else {
          return g.count_out(v, pred);
        }
      },
      [&](vertex_id v, const auto& emit) {
        g.map_out_neighbors_early_exit(
            v, [&](vertex_id u, vertex_id ngh, W w) {
              if (pred(u, ngh, w)) emit(ngh, w);
              return true;
            });
      });
}

// A static graph over laid-out arrays: `out` alone when symmetric, `out`
// and `in` when directed.
template <typename W>
graph<W> graph_from_csr(vertex_id n, bool symmetric, csr_arrays<W> out,
                        csr_arrays<W> in = {}) {
  const edge_id m = out.nghs.size();
  return graph<W>(n, m, symmetric, std::move(out.offsets),
                  std::move(out.nghs), std::move(out.wghs),
                  std::move(in.offsets), std::move(in.nghs),
                  std::move(in.wghs));
}

// Static CSR copy of any graph_view model (both sides when directed).
template <graph_view G>
graph<typename G::weight_type> copy_csr(const G& g) {
  if (g.symmetric()) {
    return graph_from_csr(g.num_vertices(), true, layout_csr(g));
  }
  return graph_from_csr(g.num_vertices(), false, layout_csr(g),
                        layout_csr(transposed_view<G>(g)));
}

// Build an undirected (symmetric) graph: every input edge is inserted in
// both directions, then cleaned. m counts directed edge slots (2x the number
// of undirected edges), matching the paper's convention for -Sym graphs.
template <typename W>
graph<W> build_symmetric_graph(vertex_id n, std::vector<edge<W>> edges) {
  edges = internal::in_range(std::move(edges), n);
  const std::size_t m0 = edges.size();
  edges.resize(2 * m0);
  parlib::parallel_for(0, m0, [&](std::size_t i) {
    edges[m0 + i] = {edges[i].v, edges[i].u, edges[i].w};
  });
  return graph_from_csr(n, true,
                        internal::csr_from_edges(std::move(edges), n));
}

// Build a directed (asymmetric) graph with both out- and in-CSR. The
// in-CSR is the out-CSR's edges reversed, laid out the same way; read row
// by row they are already ordered by target.
template <typename W>
graph<W> build_asymmetric_graph(vertex_id n, std::vector<edge<W>> edges) {
  auto out =
      internal::csr_from_edges(internal::in_range(std::move(edges), n), n);
  std::vector<edge<W>> rev(out.nghs.size());
  parlib::parallel_for(0, n, [&](std::size_t v) {
    for (edge_id e = out.offsets[v]; e < out.offsets[v + 1]; ++e) {
      W w{};
      if constexpr (!std::is_same_v<W, empty_weight>) w = out.wghs[e];
      rev[e] = {out.nghs[e], static_cast<vertex_id>(v), w};
    }
  });
  auto in = internal::csr_from_target_ordered(std::move(rev), n);
  return graph_from_csr(n, false, std::move(out), std::move(in));
}

// Keep edges (u, ngh, w) with pred(u, ngh, w); returns a static CSR graph.
// This is the rebuild form of Ligra+'s pack (Section B) — used to direct
// graphs by degree for triangle counting and to drop matched / shortcut
// edges in MM and MSF. The source may be any graph_view model: filtering
// reads only out-neighborhoods, so e.g. triangle counting on a dynamic
// view builds its rank-directed DAG straight from base ⊕ overlay without
// ever materializing the merged CSR. The result is generally not
// symmetric even if g was; it is out-CSR-only and marked symmetric so
// in_* calls alias out_* (callers only use out-neighborhoods).
template <typename G, typename F>
graph<typename G::weight_type> filter_graph(const G& g, const F& pred) {
  return graph_from_csr(g.num_vertices(), true, layout_csr(g, pred));
}

}  // namespace gbbs

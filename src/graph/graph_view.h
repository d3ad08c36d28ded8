// The graph_view concept (Section 3's abstract graph interface, made a
// compile-time contract): the neighborhood-iteration surface that edgeMap
// and the whole analytics suite are written against, so any representation
// that models it — the static CSR (`graph<W>`), the compressed CSR
// (`compressed_graph<W>`), the live batch-dynamic graph
// (`dynamic::dynamic_graph<W>`), the serving layer's overlay-fused
// `serve::dynamic_view<W>`, or the sharded ingest path's stitched
// `serve::composite_view<W>` (per-vertex routing to the owning shard's
// base ⊕ delta rows) — runs the same algorithms unmodified. The
// `transposed_view<G>` adapter at the end swaps a model's two sides.
//
// A model supplies:
//   * num_vertices() / num_edges() — n and the *live* directed edge count
//     (for delta-overlaid models this must include overlay inserts and
//     exclude erases; edgeMap's dense/sparse direction threshold is m/20,
//     so under-reporting m biases traversal toward the wrong mode);
//   * symmetric() — whether the in-side aliases the out-side;
//   * out_degree(v) / in_degree(v) — live degrees;
//   * map_out_neighbors(v, f) — f(v, ngh, w) over the live out-neighborhood
//     in ascending neighbor order (sparse edgeMap, contraction, k-core);
//   * map_in_neighbors(v, f) — the in-side analogue;
//   * map_out_neighbors_early_exit(v, f) — sequential decode, f returns
//     false to stop (the paper's optimized dense traversal, triangle
//     intersection prefixes);
//   * map_in_neighbors_early_exit(v, f) — the in-side analogue, the one
//     dense edgeMap actually scans (for a delta-overlaid model this is
//     what requires a real in-edge overlay);
//   * map_out_neighbors_range(v, j_lo, j_hi, f) — random access into
//     positions [j_lo, j_hi) of the live out-neighborhood (the blocked
//     edgeMap's prefix-summed-degree block splitting, Algorithm 15);
//   * count_out(v, pred) — live out-neighbors satisfying pred (LDD's
//     cut-edge accounting, contraction, and the row sizes of
//     layout_csr under a predicate — the degree pass of every filtered
//     CSR, filter_graph's included).
//
// The probe functors below exist only to let the concept check the
// callable requirements without instantiating anything.
#pragma once

#include <concepts>
#include <cstddef>

#include "graph/graph.h"

namespace gbbs {

namespace view_internal {

// Callback probe for map_*_neighbors / map_out_neighbors_range.
template <typename W>
struct map_probe {
  void operator()(vertex_id, vertex_id, W) const {}
};

// Callback probe for the early-exit decodes (returns "keep going") and
// for count_out predicates (same signature, bool result).
template <typename W>
struct break_probe {
  bool operator()(vertex_id, vertex_id, W) const { return true; }
};

}  // namespace view_internal

template <typename G>
concept graph_view = requires(
    const G& g, vertex_id v, std::size_t j,
    view_internal::map_probe<typename G::weight_type> mf,
    view_internal::break_probe<typename G::weight_type> bf) {
  typename G::weight_type;
  { g.num_vertices() } -> std::convertible_to<vertex_id>;
  { g.num_edges() } -> std::convertible_to<edge_id>;
  { g.symmetric() } -> std::convertible_to<bool>;
  { g.out_degree(v) } -> std::convertible_to<vertex_id>;
  { g.in_degree(v) } -> std::convertible_to<vertex_id>;
  g.map_out_neighbors(v, mf);
  g.map_in_neighbors(v, mf);
  g.map_out_neighbors_early_exit(v, bf);
  g.map_in_neighbors_early_exit(v, bf);
  g.map_out_neighbors_range(v, j, j, mf);
  { g.count_out(v, bf) } -> std::convertible_to<std::size_t>;
};

// The static CSR is the trivial model.
static_assert(graph_view<graph<empty_weight>>);
static_assert(graph_view<graph<std::uint32_t>>);

// The transpose of a view: its out-side is G's in-side and vice versa, so
// edge_map over it follows in-edges (SCC's backward reach) without building
// a reversed CSR. G must also offer map_in_neighbors_range (the static and
// compressed CSRs do). Holds a reference; `g` must outlive the view.
template <typename G>
class transposed_view {
 public:
  using weight_type = typename G::weight_type;

  explicit transposed_view(const G& g) : g_(g) {}

  vertex_id num_vertices() const { return g_.num_vertices(); }
  edge_id num_edges() const { return g_.num_edges(); }
  bool symmetric() const { return g_.symmetric(); }
  vertex_id out_degree(vertex_id v) const { return g_.in_degree(v); }
  vertex_id in_degree(vertex_id v) const { return g_.out_degree(v); }

  template <typename F>
  void map_out_neighbors(vertex_id v, const F& f, bool par = true) const {
    g_.map_in_neighbors(v, f, par);
  }
  template <typename F>
  void map_in_neighbors(vertex_id v, const F& f, bool par = true) const {
    g_.map_out_neighbors(v, f, par);
  }
  template <typename F>
  void map_out_neighbors_early_exit(vertex_id v, const F& f) const {
    g_.map_in_neighbors_early_exit(v, f);
  }
  template <typename F>
  void map_in_neighbors_early_exit(vertex_id v, const F& f) const {
    g_.map_out_neighbors_early_exit(v, f);
  }
  template <typename F>
  void map_out_neighbors_range(vertex_id v, std::size_t j_lo,
                               std::size_t j_hi, const F& f) const {
    g_.map_in_neighbors_range(v, j_lo, j_hi, f);
  }
  template <typename F>
  std::size_t count_out(vertex_id v, const F& pred) const {
    std::size_t c = 0;
    g_.map_in_neighbors_early_exit(v, [&](vertex_id src, vertex_id ngh,
                                          weight_type w) {
      c += pred(src, ngh, w) ? 1 : 0;
      return true;
    });
    return c;
  }

 private:
  const G& g_;
};

static_assert(graph_view<transposed_view<graph<empty_weight>>>);

}  // namespace gbbs

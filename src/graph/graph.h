// CSR graph representation (Section 3).
//
// A single template covers the four shapes the paper uses: symmetric /
// asymmetric crossed with unweighted / integer-weighted. Unweighted graphs
// use W = empty_weight, which occupies no storage. Asymmetric graphs carry
// both the out-CSR and the in-CSR (the in-CSR is what the dense edgeMap
// traverses); symmetric graphs alias the two.
//
// Adjacency lists are sorted by neighbor id and hold no duplicates or
// self-loops (the builder enforces this), which is what the merge-based
// triangle-counting intersection and the compressed format both rely on.
//
// Each vertex also carries a *live degree* that in-place neighborhood
// packing (pack_out) may shrink — the primitive behind the work-efficient
// approximate set cover (Algorithm 14 "Pack out neighbors of sets that are
// covered").
//
// Ownership. The CSR arrays live in one refcounted block shared between
// all copies of a graph: copying a graph<W> is O(1) (a shared_ptr bump),
// which is what lets the serving layer publish a merged CSR and install
// the *same* arrays as the dynamic graph's compacted base with zero
// copies, and lets readers hold a snapshot's arrays alive after the
// writer that built them is gone. The arrays are immutable while shared;
// the one mutating primitive, pack_out, goes through a copy-on-write
// escape hatch (unshare()) that clones the block iff another owner
// exists. Callers that pack in parallel must call unshare() once, from a
// single thread, before the parallel phase — concurrent first-clones
// would race.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "parlib/monoid.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

using vertex_id = std::uint32_t;
using edge_id = std::uint64_t;

inline constexpr vertex_id kNoVertex = ~vertex_id{0};

// Weight type of unweighted graphs; occupies no space in edge structs.
struct empty_weight {
  friend bool operator==(empty_weight, empty_weight) { return true; }
  friend bool operator!=(empty_weight, empty_weight) { return false; }
};

template <typename W>
struct edge {
  vertex_id u;
  vertex_id v;
  [[no_unique_address]] W w;
};

template <typename W>
class graph {
 public:
  using weight_type = W;

  graph() : s_(std::make_shared<storage>()) {}

  // Takes ownership of prebuilt CSR arrays (use graph_builder to construct
  // from edge lists). For symmetric graphs pass empty in_* arrays.
  graph(vertex_id n, edge_id m, bool symmetric,
        std::vector<edge_id> out_offsets, std::vector<vertex_id> out_edges,
        std::vector<W> out_weights, std::vector<edge_id> in_offsets = {},
        std::vector<vertex_id> in_edges = {}, std::vector<W> in_weights = {})
      : n_(n), m_(m), symmetric_(symmetric), s_(std::make_shared<storage>()) {
    s_->out_offsets = std::move(out_offsets);
    s_->out_edges = std::move(out_edges);
    s_->out_weights = std::move(out_weights);
    s_->in_offsets = std::move(in_offsets);
    s_->in_edges = std::move(in_edges);
    s_->in_weights = std::move(in_weights);
    assert(s_->out_offsets.size() == static_cast<std::size_t>(n_) + 1);
    s_->out_live_deg = parlib::tabulate<vertex_id>(n_, [&](std::size_t v) {
      return static_cast<vertex_id>(s_->out_offsets[v + 1] -
                                    s_->out_offsets[v]);
    });
  }

  // Copies share the refcounted CSR block: O(1), no array duplication.

  vertex_id num_vertices() const { return n_; }
  edge_id num_edges() const { return m_; }
  bool symmetric() const { return symmetric_; }

  // ---- shared-ownership introspection ------------------------------------

  // True iff this graph and `other` are views of the same CSR block (the
  // zero-copy publish contract; used by tests and the serving layer).
  bool shares_storage(const graph& other) const { return s_ == other.s_; }

  // Owners of this graph's CSR block (1 = uniquely owned).
  long storage_use_count() const { return s_.use_count(); }

  // Copy-on-write escape hatch: clone the CSR block iff it is shared, so
  // subsequent in-place mutation (pack_out) cannot be observed through
  // other owners. Must not race with other accesses to this same graph
  // object; call once from a single thread before parallel packing.
  void unshare() {
    if (s_.use_count() > 1) s_ = std::make_shared<storage>(*s_);
  }

  vertex_id out_degree(vertex_id v) const { return s_->out_live_deg[v]; }
  vertex_id in_degree(vertex_id v) const {
    if (symmetric_) return out_degree(v);
    return static_cast<vertex_id>(s_->in_offsets[v + 1] - s_->in_offsets[v]);
  }

  std::span<const vertex_id> out_neighbors(vertex_id v) const {
    return {s_->out_edges.data() + s_->out_offsets[v], out_degree(v)};
  }
  std::span<const vertex_id> in_neighbors(vertex_id v) const {
    if (symmetric_) return out_neighbors(v);
    return {s_->in_edges.data() + s_->in_offsets[v], in_degree(v)};
  }

  W out_weight(vertex_id v, std::size_t j) const {
    if constexpr (std::is_same_v<W, empty_weight>) {
      return empty_weight{};
    } else {
      return s_->out_weights[s_->out_offsets[v] + j];
    }
  }
  W in_weight(vertex_id v, std::size_t j) const {
    if constexpr (std::is_same_v<W, empty_weight>) {
      return empty_weight{};
    } else {
      return symmetric_ ? s_->out_weights[s_->out_offsets[v] + j]
                        : s_->in_weights[s_->in_offsets[v] + j];
    }
  }

  // ---- neighborhood primitives (shared interface with compressed_graph) --

  // f(v, ngh, w) over out-neighbors; parallel for high degrees.
  template <typename F>
  void map_out_neighbors(vertex_id v, const F& f, bool par = true) const {
    const auto nghs = out_neighbors(v);
    const auto base = s_->out_offsets[v];
    auto body = [&](std::size_t j) { f(v, nghs[j], weight_at(base, j)); };
    if (par && nghs.size() > 1024) {
      parlib::parallel_for(0, nghs.size(), body);
    } else {
      for (std::size_t j = 0; j < nghs.size(); ++j) body(j);
    }
  }

  template <typename F>
  void map_in_neighbors(vertex_id v, const F& f, bool par = true) const {
    if (symmetric_) {
      map_out_neighbors(v, f, par);
      return;
    }
    const auto nghs = in_neighbors(v);
    const auto base = s_->in_offsets[v];
    auto body = [&](std::size_t j) {
      f(v, nghs[j], in_weight_at(base, j));
    };
    if (par && nghs.size() > 1024) {
      parlib::parallel_for(0, nghs.size(), body);
    } else {
      for (std::size_t j = 0; j < nghs.size(); ++j) body(j);
    }
  }

  // Sequential decode with early exit: f returns false to stop. Used by the
  // optimized dense edgeMap (Section 3).
  template <typename F>
  void map_out_neighbors_early_exit(vertex_id v, const F& f) const {
    const auto nghs = out_neighbors(v);
    const auto base = s_->out_offsets[v];
    for (std::size_t j = 0; j < nghs.size(); ++j) {
      if (!f(v, nghs[j], weight_at(base, j))) return;
    }
  }

  template <typename F>
  void map_in_neighbors_early_exit(vertex_id v, const F& f) const {
    if (symmetric_) {
      map_out_neighbors_early_exit(v, f);
      return;
    }
    const auto nghs = in_neighbors(v);
    const auto base = s_->in_offsets[v];
    for (std::size_t j = 0; j < nghs.size(); ++j) {
      if (!f(v, nghs[j], in_weight_at(base, j))) return;
    }
  }

  // f over out-neighbor positions [j_lo, j_hi) — the random access the
  // blocked edgeMap needs (Algorithm 15).
  template <typename F>
  void map_out_neighbors_range(vertex_id v, std::size_t j_lo, std::size_t j_hi,
                     const F& f) const {
    const auto nghs = out_neighbors(v);
    const auto base = s_->out_offsets[v];
    for (std::size_t j = j_lo; j < j_hi && j < nghs.size(); ++j) {
      f(v, nghs[j], weight_at(base, j));
    }
  }

  // The in-side analogue (edge_map over a transposed_view).
  template <typename F>
  void map_in_neighbors_range(vertex_id v, std::size_t j_lo, std::size_t j_hi,
                              const F& f) const {
    if (symmetric_) {
      map_out_neighbors_range(v, j_lo, j_hi, f);
      return;
    }
    const auto nghs = in_neighbors(v);
    const auto base = s_->in_offsets[v];
    for (std::size_t j = j_lo; j < j_hi && j < nghs.size(); ++j) {
      f(v, nghs[j], in_weight_at(base, j));
    }
  }

  template <typename M, typename F>
  typename M::value_type reduce_out(vertex_id v, const F& f,
                                    const M& monoid) const {
    const auto nghs = out_neighbors(v);
    const auto base = s_->out_offsets[v];
    typename M::value_type acc = monoid.identity;
    for (std::size_t j = 0; j < nghs.size(); ++j) {
      acc = monoid.combine(acc, f(v, nghs[j], weight_at(base, j)));
    }
    return acc;
  }

  template <typename F>
  std::size_t count_out(vertex_id v, const F& pred) const {
    const auto nghs = out_neighbors(v);
    const auto base = s_->out_offsets[v];
    std::size_t c = 0;
    for (std::size_t j = 0; j < nghs.size(); ++j) {
      c += pred(v, nghs[j], weight_at(base, j)) ? 1 : 0;
    }
    return c;
  }

  // |N_out(u) ∩ N_out(v)| by sorted merge (triangle counting, Section A).
  std::size_t intersect_out(vertex_id u, vertex_id v) const {
    const auto a = out_neighbors(u);
    const auto b = out_neighbors(v);
    std::size_t i = 0, j = 0, c = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        ++c;
        ++i;
        ++j;
      }
    }
    return c;
  }

  // In-place pack: keep out-neighbors satisfying pred(v, ngh, w), shrinking
  // the live degree. Stable; preserves sortedness. O(deg(v)) work.
  //
  // Mutates the CSR block: unshares first (COW), so other owners of a
  // previously shared block are unaffected. When packing many vertices in
  // parallel, call unshare() once before the parallel loop — the per-call
  // unshare below is then a no-op use_count read.
  template <typename F>
  void pack_out(vertex_id v, const F& pred) {
    unshare();
    const auto base = s_->out_offsets[v];
    const auto deg = out_degree(v);
    std::size_t k = 0;
    for (std::size_t j = 0; j < deg; ++j) {
      const vertex_id ngh = s_->out_edges[base + j];
      const W w = weight_at(base, j);
      if (pred(v, ngh, w)) {
        s_->out_edges[base + k] = ngh;
        if constexpr (!std::is_same_v<W, empty_weight>) {
          s_->out_weights[base + k] = w;
        }
        ++k;
      }
    }
    s_->out_live_deg[v] = static_cast<vertex_id>(k);
  }

  // All out-edges as a flat list (respects live degrees).
  std::vector<edge<W>> edges() const {
    auto degs = parlib::tabulate<edge_id>(
        n_, [&](std::size_t v) { return out_degree(static_cast<vertex_id>(v)); });
    const edge_id total = parlib::scan_inplace(degs);
    std::vector<edge<W>> out(total);
    parlib::parallel_for(0, n_, [&](std::size_t v) {
      const auto nghs = out_neighbors(static_cast<vertex_id>(v));
      const auto base = s_->out_offsets[v];
      for (std::size_t j = 0; j < nghs.size(); ++j) {
        out[degs[v] + j] = {static_cast<vertex_id>(v), nghs[j],
                            weight_at(base, j)};
      }
    });
    return out;
  }

  std::size_t size_in_bytes() const {
    return s_->out_offsets.size() * sizeof(edge_id) +
           s_->out_edges.size() * sizeof(vertex_id) +
           s_->out_weights.size() * sizeof(W) +
           s_->in_offsets.size() * sizeof(edge_id) +
           s_->in_edges.size() * sizeof(vertex_id) +
           s_->in_weights.size() * sizeof(W);
  }

 private:
  // The refcounted CSR block. Immutable while shared; pack_out clones it
  // on first write (unshare).
  struct storage {
    std::vector<edge_id> out_offsets;
    std::vector<vertex_id> out_edges;
    std::vector<W> out_weights;
    std::vector<edge_id> in_offsets;
    std::vector<vertex_id> in_edges;
    std::vector<W> in_weights;
    std::vector<vertex_id> out_live_deg;
  };

  W weight_at(edge_id base, std::size_t j) const {
    if constexpr (std::is_same_v<W, empty_weight>) {
      return empty_weight{};
    } else {
      return s_->out_weights[base + j];
    }
  }
  W in_weight_at(edge_id base, std::size_t j) const {
    if constexpr (std::is_same_v<W, empty_weight>) {
      return empty_weight{};
    } else {
      return s_->in_weights[base + j];
    }
  }

  vertex_id n_ = 0;
  edge_id m_ = 0;
  bool symmetric_ = true;
  std::shared_ptr<storage> s_;
};

using unweighted_graph = graph<empty_weight>;
using weighted_graph = graph<std::uint32_t>;

}  // namespace gbbs

// A symmetric CSR's undirected edges, each once at its lower endpoint and
// identified by its CSR position there; MSF and maximal matching read their
// edges through it (Section 4) instead of materializing the edge list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

template <typename Graph>
class csr_edges {
 public:
  explicit csr_edges(const Graph& g)
      : g_(&g), starts_(static_cast<std::size_t>(g.num_vertices()) + 1, 0) {
    parlib::parallel_for(0, g.num_vertices(), [&](std::size_t v) {
      starts_[v] = g.out_degree(static_cast<vertex_id>(v));
    });
    parlib::scan_inplace(starts_);
  }

  // m: two positions per undirected edge.
  edge_id num_positions() const { return starts_.back(); }

  // Packs, in CSR order, what f(u, v, w, p, emit) emits for each u < v.
  template <typename T, typename F>
  std::vector<T> extract(const F& f) const {
    std::vector<T> out;
    parlib::pack_blocks(g_->num_vertices(), [&](std::size_t u,
                                                const auto& emit) {
      std::uint64_t p = starts_[u];
      g_->map_out_neighbors_early_exit(
          static_cast<vertex_id>(u), [&](vertex_id a, vertex_id b, auto w) {
            if (a < b) f(a, b, w, p, emit);
            ++p;
            return true;
          });
    }, out);
    return out;
  }

  // The edge at position p; u is the last row starting at or before p.
  edge<std::uint32_t> edge_at(std::uint64_t p) const {
    const auto u = static_cast<vertex_id>(
        std::upper_bound(starts_.begin(), starts_.end(), p) -
        starts_.begin() - 1);
    edge<std::uint32_t> e{u, kNoVertex, 0};
    const std::size_t j = p - starts_[u];
    g_->map_out_neighbors_range(u, j, j + 1,
                                [&](vertex_id, vertex_id v, auto w) {
                                  e.v = v;
                                  e.w = w;
                                });
    return e;
  }

 private:
  const Graph* g_;
  std::vector<edge_id> starts_;
};

}  // namespace gbbs

// Minimum spanning forest (Algorithm 9): Boruvka over an edge list with
// priority-writes and pointer-jumping, O(m log n) work and O(log^2 n) depth
// on the PW-MT-RAM.
//
// Following Section 4, the whole edge list is never materialized. The first
// filtering step samples a pivot weight from the CSR, extracts the ~3n/2
// lightest edges straight from the graph (each undirected edge once, at its
// lower endpoint), runs Boruvka on them, and then extracts the heavier
// edges whose endpoints are still in different components, relabeled to
// component ids (the pack-out). Further filtering steps, if any, repeat
// select / Boruvka / pack-out on that remainder list, and one final Boruvka
// call solves what is left. The CSR reads, pivot samples and position
// lookups go through csr_edges.h, which maximal matching shares. An edge's
// id is its CSR position; ties are broken by it, which makes the chosen
// forest deterministic and total weight minimal. Boruvka allocates its
// scratch once per call, not per round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "algorithms/csr_edges.h"
#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"
#include "parlib/sort.h"

namespace gbbs {

namespace msf_internal {

struct indexed_edge {
  vertex_id u, v;
  std::uint32_t w;
  std::uint64_t id;  // CSR position of the original edge (tie-breaker)
};

// (weight, index) packed for priority-writes: lower weight wins, then lower
// index.
inline std::uint64_t edge_priority(const indexed_edge& e, std::uint32_t idx) {
  return (static_cast<std::uint64_t>(e.w) << 32) | idx;
}

inline constexpr std::uint64_t kNoPriority =
    std::numeric_limits<std::uint64_t>::max();

// Writes to `out` the edges of in[0, size) satisfying `keep` whose endpoints
// lie in different components, relabeled to component ids. The pack is
// stable, so positions (the priority tie-break) keep the original order.
template <typename F>
std::size_t shortcut(const std::vector<indexed_edge>& in, std::size_t size,
                     std::vector<indexed_edge>& out,
                     const std::vector<vertex_id>& parents,
                     std::vector<std::size_t>* scratch, const F& keep) {
  auto each = [&](std::size_t i, const auto& emit) {
    const vertex_id pu = parents[in[i].u], pv = parents[in[i].v];
    if (pu != pv && keep(in[i])) emit(indexed_edge{pu, pv, in[i].w, in[i].id});
  };
  return parlib::pack_blocks(size, each, out, 0, scratch);
}

// One Boruvka solve over `edges` whose endpoints are component ids in the
// global `parents` array (updated in place); appends chosen edge ids to
// `forest`, which must have capacity for them. Scratch is allocated once
// per call: each round packs the survivors into the other edge buffer.
inline void boruvka(std::vector<vertex_id>& parents,
                    std::vector<indexed_edge> edges,
                    std::vector<std::uint64_t>& forest) {
  const std::size_t n = parents.size();
  std::size_t size = edges.size();
  if (size == 0) return;
  std::vector<std::uint64_t> best(n, kNoPriority);
  std::vector<indexed_edge> next(size);
  std::vector<std::uint8_t> chosen(size);
  std::vector<std::size_t> block_counts;
  block_counts.reserve(parlib::num_blocks(size, parlib::kSeqBlockSize));
  while (size > 0) {
    // Min-weight incident edge per live component root.
    parlib::parallel_for(0, size, [&](std::size_t i) {
      const auto pri = edge_priority(edges[i], static_cast<std::uint32_t>(i));
      parlib::write_min(&best[edges[i].u], pri);
      parlib::write_min(&best[edges[i].v], pri);
    });
    // An edge is chosen if it won on either endpoint. The endpoint it won
    // on hooks onto the other endpoint; a 2-cycle (edge won on both) is
    // broken by rooting the larger endpoint.
    parlib::parallel_for(0, size, [&](std::size_t i) {
      const auto& e = edges[i];
      const auto pri = edge_priority(e, static_cast<std::uint32_t>(i));
      const bool won_u = best[e.u] == pri;
      const bool won_v = best[e.v] == pri;
      chosen[i] = won_u || won_v;
      if (won_u && won_v) {
        parents[std::min(e.u, e.v)] = std::max(e.u, e.v);
      } else if (won_u) {
        parents[e.u] = e.v;
      } else if (won_v) {
        parents[e.v] = e.u;
      }
    });
    // Pointer-jump every vertex to its root and reset its winner slot.
    // Jumps read parents that other jumps rewrite (to an ancestor either
    // way), hence atomic accesses.
    parlib::parallel_for(0, n, [&](std::size_t v) {
      vertex_id root = static_cast<vertex_id>(v);
      while (parlib::atomic_load(&parents[root]) != root) {
        root = parlib::atomic_load(&parents[root]);
      }
      parlib::atomic_store(&parents[v], root);
      best[v] = kNoPriority;
    });
    auto won = [&](std::size_t i, const auto& emit) {
      if (chosen[i]) emit(edges[i].id);
    };
    parlib::pack_blocks(size, won, forest, forest.size(), &block_counts);
    size = shortcut(edges, size, next, parents, &block_counts,
                    [](const indexed_edge&) { return true; });
    std::swap(edges, next);
  }
}

}  // namespace msf_internal

struct msf_result {
  std::vector<edge<std::uint32_t>> forest;  // original endpoints + weights
  std::uint64_t total_weight = 0;
  std::size_t num_filter_steps = 0;
};

// use_filtering=false runs plain edge-list Boruvka (the Zhou baseline the
// paper compares against in Section 6).
template <typename Graph>
msf_result msf(const Graph& g, bool use_filtering = true,
               std::size_t filter_steps = 3) {
  const vertex_id n = g.num_vertices();
  const csr_edges csr(g);
  const edge_id m = csr.num_positions();
  auto parents = parlib::iota<vertex_id>(n);
  // The CSR's edges with keep(w) whose endpoints lie in different
  // components, relabeled to component ids, in CSR order.
  auto extract = [&](const auto& keep) {
    return csr.template extract<msf_internal::indexed_edge>(
        [&](vertex_id a, vertex_id b, auto w, std::uint64_t p,
            const auto& emit) {
          if (parents[a] != parents[b] && keep(w)) {
            emit(msf_internal::indexed_edge{parents[a], parents[b], w, p});
          }
        });
  };
  std::vector<std::uint64_t> forest;
  forest.reserve(n);
  msf_result res;

  const std::size_t target = 3 * static_cast<std::size_t>(n) / 2 + 1;
  std::vector<msf_internal::indexed_edge> edges;
  if (use_filtering && filter_steps > 0 && m / 2 > 2 * target) {
    // Step 1 reads the CSR. The pivot's rank among weights sampled over
    // all m positions (two per undirected edge) scales to target.
    ++res.num_filter_steps;
    const std::uint32_t pivot = parlib::approximate_kth_smallest(
        m, 2 * target,
        [&](std::size_t i) { return csr.edge_at(i).w; },
        parlib::random(0x317));
    msf_internal::boruvka(
        parents,
        extract([&](std::uint32_t w) { return w <= pivot; }),
        forest);
    // Pack out: the heavy edges whose endpoints are still apart.
    edges = extract([&](std::uint32_t w) { return w > pivot; });
    for (std::size_t step = 1;
         step < filter_steps && edges.size() > 2 * target; ++step) {
      ++res.num_filter_steps;
      const std::uint32_t next_pivot = parlib::approximate_kth_smallest(
          edges.size(), target, [&](std::size_t i) { return edges[i].w; },
          parlib::random(0x317 + step));
      auto light = parlib::filter(
          edges, [&](const auto& e) { return e.w <= next_pivot; });
      if (light.empty() || light.size() == edges.size()) break;
      msf_internal::boruvka(parents, std::move(light), forest);
      decltype(edges) rest;
      msf_internal::shortcut(edges, edges.size(), rest, parents, nullptr,
                             [&](const auto& e) { return e.w > next_pivot; });
      edges = std::move(rest);
    }
  } else {
    edges = extract([](std::uint32_t) { return true; });
  }
  msf_internal::boruvka(parents, std::move(edges), forest);

  res.forest = parlib::map(
      forest, [&](std::uint64_t p) { return csr.edge_at(p); });
  auto ws = parlib::map(res.forest, [](const auto& e) {
    return static_cast<std::uint64_t>(e.w);
  });
  res.total_weight = parlib::reduce_add(ws);
  return res;
}

}  // namespace gbbs

// Maximal matching (Algorithm 11, prefix-based): O(m) expected work,
// O(log^3 m / log log m) depth w.h.p. on the PW-MT-RAM.
//
// The undirected edges are read from the CSR once, each at its lower
// endpoint (csr_edges.h, shared with MSF), with the hash of its CSR
// position p, rng.ith_rand(p), as its random priority. Per Section 4, a
// constant number of filtering steps each extract the ~3n/2 highest-priority
// (lowest key) remaining edges, run the parallel greedy matcher on the
// prefix (an edge joins the matching when it is the best-priority edge at
// both endpoints), and then pack out edges incident to matched vertices.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "algorithms/csr_edges.h"
#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"
#include "parlib/sort.h"

namespace gbbs {

namespace mm_internal {

struct prio_edge {
  vertex_id u, v;
  std::uint64_t pri;  // random priority, distinct per edge
};

// The empty winner slot. An edge whose priority equals it still matches
// correctly: it reads its own priority back from an endpoint slot only if
// no other edge wrote there, that is, when it is the minimum there anyway.
inline constexpr std::uint64_t kNoPriority =
    std::numeric_limits<std::uint64_t>::max();

// Greedy matcher on a prefix: repeated rounds of "claim both endpoints with
// priority-write(min), commit edges that won both".
template <typename W>
void greedy_match(std::vector<prio_edge> prefix,
                  std::vector<std::uint8_t>& matched,
                  std::vector<std::uint64_t>& best,
                  std::vector<edge<W>>& matching) {
  while (!prefix.empty()) {
    parlib::parallel_for(0, prefix.size(), [&](std::size_t i) {
      parlib::write_min(&best[prefix[i].u], prefix[i].pri);
      parlib::write_min(&best[prefix[i].v], prefix[i].pri);
    });
    const std::size_t old = matching.size();
    parlib::pack_blocks(prefix.size(), [&](std::size_t i, const auto& emit) {
      const auto& e = prefix[i];
      if (best[e.u] == e.pri && best[e.v] == e.pri) {
        emit(edge<W>{e.u, e.v, W{}});
      }
    }, matching, old);
    parlib::parallel_for(old, matching.size(), [&](std::size_t i) {
      matched[matching[i].u] = 1;
      matched[matching[i].v] = 1;
    });
    // Reset priority slots and drop edges with a matched endpoint. Edges
    // that share an endpoint reset its slot concurrently, hence atomic
    // stores.
    parlib::parallel_for(0, prefix.size(), [&](std::size_t i) {
      parlib::atomic_store(&best[prefix[i].u], kNoPriority);
      parlib::atomic_store(&best[prefix[i].v], kNoPriority);
    });
    prefix = parlib::filter(prefix, [&](const prio_edge& e) {
      return !matched[e.u] && !matched[e.v];
    });
  }
}

}  // namespace mm_internal

// Returns matched edges (one record per matched pair, u < v).
template <typename Graph>
std::vector<edge<typename Graph::weight_type>> maximal_matching(
    const Graph& g, parlib::random rng = parlib::random(0x4242),
    std::size_t filter_steps = 3) {
  using W = typename Graph::weight_type;
  const vertex_id n = g.num_vertices();
  // An edge's priority hashes its CSR position p: rng.ith_rand is a
  // bijection (the splitmix64 finalizer is invertible), so priorities are
  // distinct for every position below m.
  auto edges = csr_edges(g).template extract<mm_internal::prio_edge>(
      [&](vertex_id u, vertex_id v, auto, std::uint64_t p, const auto& emit) {
        emit(mm_internal::prio_edge{u, v, rng.ith_rand(p)});
      });

  std::vector<std::uint8_t> matched(n, 0);
  std::vector<std::uint64_t> best(n, mm_internal::kNoPriority);
  std::vector<edge<W>> matching;

  const std::size_t target = 3 * static_cast<std::size_t>(n) / 2 + 1;
  for (std::size_t step = 0;
       step < filter_steps && edges.size() > 2 * target; ++step) {
    const std::uint64_t pivot = parlib::approximate_kth_smallest(
        edges.size(), target, [&](std::size_t i) { return edges[i].pri; },
        parlib::random(0x77 + step));
    auto prefix = parlib::filter(
        edges, [&](const auto& e) { return e.pri <= pivot; });
    mm_internal::greedy_match<W>(std::move(prefix), matched, best, matching);
    edges = parlib::filter(edges, [&](const auto& e) {
      return e.pri > pivot && !matched[e.u] && !matched[e.v];
    });
  }
  mm_internal::greedy_match<W>(std::move(edges), matched, best, matching);
  return matching;
}

}  // namespace gbbs

// Low-diameter decomposition (Algorithm 5, Miller-Peng-Xu): computes a
// (2*beta, O(log n / beta)) decomposition in O(m) expected work and
// O(log^2 n) depth w.h.p. on the TS-MT-RAM.
//
// Each vertex draws a shift delta_v ~ Exp(beta); vertex v starts a BFS ball
// at time floor(delta_max - delta_v). Ball growing runs as one synchronous
// multi-source BFS where unvisited vertices whose start time has arrived
// join the frontier as fresh cluster centers; ties between balls arriving
// at the same step are broken arbitrarily (CAS), which perturbs the number
// of cut edges by only a constant factor [Shun-Dhulipala-Blelloch '14].
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

namespace ldd_internal {

struct ldd_f {
  std::vector<vertex_id>* cluster;
  std::vector<vertex_id>* parents;  // optional: BFS-tree parent per vertex

  // Races update_atomic's CAS on the same slot, hence an atomic load.
  bool cond(vertex_id v) const {
    return parlib::atomic_load(&(*cluster)[v]) == kNoVertex;
  }
  bool update(vertex_id u, vertex_id v, auto) const {
    if ((*cluster)[v] == kNoVertex) {
      (*cluster)[v] = (*cluster)[u];
      if (parents) (*parents)[v] = u;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id u, vertex_id v, auto) const {
    if (parlib::atomic_cas(&(*cluster)[v], kNoVertex, (*cluster)[u])) {
      if (parents) (*parents)[v] = u;
      return true;
    }
    return false;
  }
};

}  // namespace ldd_internal

// cluster[v] = id (a vertex id) of v's cluster center. If `parents` is
// non-null it receives, for every non-center vertex, the neighbor whose
// ball-growing step acquired it — these edges form a spanning tree of each
// cluster (used by the LDD-based spanning forest).
template <typename Graph>
std::vector<vertex_id> ldd(const Graph& g, double beta,
                           parlib::random rng = parlib::random(0x1dd),
                           std::vector<vertex_id>* parents = nullptr) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> cluster(n, kNoVertex);
  if (parents) parents->assign(n, kNoVertex);
  if (n == 0) return cluster;

  // Shifts and start times. Start times are bucketed by integer round so
  // each round appends its new centers in O(|bucket|).
  auto shifts = parlib::tabulate<double>(
      n, [&](std::size_t v) { return rng.ith_exponential(v, beta); });
  const double max_shift =
      parlib::reduce(shifts, parlib::max_monoid<double>());
  auto start_round = parlib::tabulate<std::uint32_t>(n, [&](std::size_t v) {
    return static_cast<std::uint32_t>(max_shift - shifts[v]);
  });
  const std::uint32_t max_round =
      parlib::reduce(start_round, parlib::max_monoid<std::uint32_t>());
  // Group vertices by start round (counting sort).
  auto by_start = parlib::iota<vertex_id>(n);
  auto round_offsets = parlib::counting_sort_inplace(
      by_start, [&](vertex_id v) { return start_round[v]; },
      static_cast<std::size_t>(max_round) + 1);

  vertex_subset frontier(n);
  std::uint64_t num_visited = 0;
  std::uint32_t round = 0;
  while (num_visited < n) {
    // Fresh centers whose start time arrived and are still unvisited.
    std::vector<vertex_id> fresh;
    if (round <= max_round) {
      const std::size_t lo = round_offsets[round];
      const std::size_t hi = round_offsets[round + 1];
      auto candidates = parlib::tabulate<vertex_id>(
          hi - lo, [&](std::size_t i) { return by_start[lo + i]; });
      fresh = parlib::filter(candidates, [&](vertex_id v) {
        return cluster[v] == kNoVertex;
      });
      parlib::parallel_for(0, fresh.size(),
                           [&](std::size_t i) { cluster[fresh[i]] = fresh[i]; });
    }
    if (!fresh.empty()) {
      frontier.to_sparse();
      auto ids = frontier.sparse();
      const std::size_t old = ids.size();
      ids.resize(old + fresh.size());
      parlib::parallel_for(0, fresh.size(),
                           [&](std::size_t i) { ids[old + i] = fresh[i]; });
      frontier = vertex_subset(n, std::move(ids));
    }
    num_visited += frontier.size();
    frontier =
        edge_map(g, frontier, ldd_internal::ldd_f{&cluster, parents});
    ++round;
  }
  return cluster;
}

// Number of inter-cluster edges (for testing the beta*m guarantee).
template <typename Graph>
std::uint64_t num_cut_edges(const Graph& g,
                            const std::vector<vertex_id>& cluster) {
  auto counts = parlib::tabulate<std::uint64_t>(
      g.num_vertices(), [&](std::size_t v) {
        return g.count_out(static_cast<vertex_id>(v),
                           [&](vertex_id u, vertex_id ngh, auto) {
                             return cluster[u] != cluster[ngh];
                           });
      });
  return parlib::reduce_add(counts);
}

}  // namespace gbbs

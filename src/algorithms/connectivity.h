// Connectivity (Algorithm 6, Shun-Dhulipala-Blelloch): O(m) expected work,
// O(log^3 n) depth w.h.p. on the TS-MT-RAM. Each level runs a low-diameter
// decomposition, contracts the clustering, and recurses until the quotient
// has no edges; labels are then mapped back down the recursion. Only
// clusters with an inter-cluster edge recurse: an isolated cluster's label
// is final at its level, so no later level scans it again.
//
// The same recursion yields a spanning forest (Section 4: "the connectivity
// algorithm can be modified to compute a spanning forest") when given a
// forest out-pointer: each level's ball-growing parent edges span its
// clusters, and contraction keeps one original edge per quotient edge, so
// the next level's forest lifts back to edges of this level's graph. Same
// bounds; connectivity() passes null and spanning_forest_ldd() a vector.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/contraction.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "algorithms/ldd.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

namespace connectivity_internal {

// The symmetric quotient `q` restricted to the ascending vertex list `keep`,
// which holds every non-isolated vertex; keep[i] becomes vertex i. The
// renumbering is monotone, so rows stay sorted. O(|keep| + m) work, laid
// out by the shared CSR routine (graph_builder.h).
inline graph<empty_weight> compact(const graph<empty_weight>& q,
                                   const std::vector<vertex_id>& keep) {
  std::vector<vertex_id> new_id(q.num_vertices(), kNoVertex);
  parlib::parallel_for(0, keep.size(), [&](std::size_t i) {
    new_id[keep[i]] = static_cast<vertex_id>(i);
  });
  const auto k = static_cast<vertex_id>(keep.size());
  return graph_from_csr(
      k, /*symmetric=*/true,
      internal::layout_rows<empty_weight>(
          k, [&](vertex_id i) { return edge_id{q.out_degree(keep[i])}; },
          [&](vertex_id i, const auto& emit) {
            for (const vertex_id w : q.out_neighbors(keep[i])) {
              emit(new_id[w], empty_weight{});
            }
          }));
}

// Labels of g; with `forest` set, also its spanning forest's edges.
template <typename Graph>
std::vector<vertex_id> connectivity_rec(
    const Graph& g, double beta, parlib::random rng,
    std::vector<std::pair<vertex_id, vertex_id>>* forest) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> parents;
  auto clusters = ldd(g, beta, rng, forest ? &parents : nullptr);
  auto contracted =
      contract(g, clusters, /*keep_representatives=*/forest != nullptr);
  if (forest) {
    // This level's ball edges, each non-center vertex to its parent.
    parlib::pack_blocks(n, [&](std::size_t v, const auto& emit) {
      if (parents[v] != kNoVertex) emit(std::pair{vertex_id(v), parents[v]});
    }, *forest);
  }
  // Labels of this level: v's cluster, renumbered densely.
  auto level_labels = parlib::tabulate<vertex_id>(n, [&](std::size_t v) {
    return contracted.cluster_to_vertex[clusters[v]];
  });
  const auto& q = contracted.quotient;
  if (q.num_edges() == 0) return level_labels;
  // Only clusters with an inter-cluster edge recurse. An isolated cluster
  // keeps its quotient id as its label. Kept cluster i gets keep[L] for its
  // label L one level down: a kept cluster's id, so never an isolated one's.
  auto keep = parlib::filter(parlib::iota<vertex_id>(q.num_vertices()),
                             [&](vertex_id c) { return q.out_degree(c) > 0; });
  // If a round failed to shrink the graph (possible on tiny inputs when all
  // shift draws land in the same unit interval), halve beta so the next
  // level's balls grow larger; this keeps the recursion finite without
  // affecting the expected bounds.
  const double next_beta = q.num_vertices() == n ? beta * 0.5 : beta;
  std::vector<std::pair<vertex_id, vertex_id>> kept_forest;
  auto kept_labels = connectivity_rec(compact(q, keep), next_beta, rng.next(),
                                      forest ? &kept_forest : nullptr);
  if (forest) {
    // Kept edge (a, b) joins clusters keep[a] and keep[b]; lift it to the
    // edge of g that contraction kept for that pair.
    const std::size_t base = forest->size();
    forest->resize(base + kept_forest.size());
    parlib::parallel_for(0, kept_forest.size(), [&](std::size_t i) {
      const auto [a, b] = kept_forest[i];
      (*forest)[base + i] = contracted.representative(keep[a], keep[b]);
    });
  }
  auto quot_labels = parlib::iota<vertex_id>(q.num_vertices());
  parlib::parallel_for(0, keep.size(), [&](std::size_t i) {
    quot_labels[keep[i]] = keep[kept_labels[i]];
  });
  return parlib::tabulate<vertex_id>(n, [&](std::size_t v) {
    return quot_labels[level_labels[v]];
  });
}

}  // namespace connectivity_internal

// Component labels in [0, #clusters-at-top-level); two vertices share a
// label iff they are connected.
template <typename Graph>
std::vector<vertex_id> connectivity(const Graph& g, double beta = 0.2,
                                    parlib::random rng = parlib::random(
                                        0xcc)) {
  return connectivity_internal::connectivity_rec(g, beta, rng, nullptr);
}

// One representative vertex per connected component: the minimum vertex id
// carrying each label.
inline std::vector<vertex_id> component_representatives(
    const std::vector<vertex_id>& labels) {
  const std::size_t n = labels.size();
  std::vector<vertex_id> rep_of_label(n, kNoVertex);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    parlib::write_min(&rep_of_label[labels[v]],
                      static_cast<vertex_id>(v));
  });
  return parlib::filter(rep_of_label,
                        [](vertex_id r) { return r != kNoVertex; });
}

// Whether two component labelings describe the same partition (labels may
// differ; the mapping between them must be bijective). The cross-check
// used by the dynamic/serving verification paths to compare maintained
// labels against a from-scratch connectivity().
inline bool same_partition(const std::vector<vertex_id>& a,
                           const std::vector<vertex_id>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<vertex_id, vertex_id> a2b, b2a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    auto [ia, fresh_a] = a2b.try_emplace(a[v], b[v]);
    if (ia->second != b[v]) return false;
    auto [ib, fresh_b] = b2a.try_emplace(b[v], a[v]);
    if (ib->second != a[v]) return false;
  }
  return true;
}

}  // namespace gbbs

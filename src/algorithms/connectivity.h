// Connectivity (Algorithm 6, Shun-Dhulipala-Blelloch): O(m) expected work,
// O(log^3 n) depth w.h.p. on the TS-MT-RAM. Each level runs a low-diameter
// decomposition, contracts the clustering, and recurses until the quotient
// has no edges; labels are then mapped back down the recursion. Only
// clusters with an inter-cluster edge recurse: an isolated cluster's label
// is final at its level, so no later level scans it again.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/contraction.h"
#include "graph/graph.h"
#include "algorithms/ldd.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

namespace connectivity_internal {

// The symmetric quotient `q` restricted to the ascending vertex list `keep`,
// which holds every non-isolated vertex; keep[i] becomes vertex i. The
// renumbering is monotone, so rows stay sorted. O(|keep| + m) work.
inline graph<empty_weight> compact(const graph<empty_weight>& q,
                                   const std::vector<vertex_id>& keep) {
  std::vector<vertex_id> new_id(q.num_vertices(), kNoVertex);
  parlib::parallel_for(0, keep.size(), [&](std::size_t i) {
    new_id[keep[i]] = static_cast<vertex_id>(i);
  });
  auto offsets = parlib::tabulate<edge_id>(keep.size() + 1, [&](std::size_t i) {
    return i < keep.size() ? edge_id{q.out_degree(keep[i])} : edge_id{0};
  });
  const edge_id m = parlib::scan_inplace(offsets);
  std::vector<vertex_id> nghs(m);
  parlib::parallel_for(0, keep.size(), [&](std::size_t i) {
    const auto row = q.out_neighbors(keep[i]);
    for (std::size_t j = 0; j < row.size(); ++j) {
      nghs[offsets[i] + j] = new_id[row[j]];
    }
  });
  return graph<empty_weight>(static_cast<vertex_id>(keep.size()), m,
                             /*symmetric=*/true, std::move(offsets),
                             std::move(nghs), {});
}

template <typename Graph>
std::vector<vertex_id> connectivity_rec(const Graph& g, double beta,
                                        parlib::random rng, int depth) {
  const vertex_id n = g.num_vertices();
  auto clusters = ldd(g, beta, rng);
  auto contracted = contract(g, clusters);
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
  auto kept_labels =
      connectivity_rec(compact(q, keep), next_beta, rng.next(), depth + 1);
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
  return connectivity_internal::connectivity_rec(g, beta, rng, 0);
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

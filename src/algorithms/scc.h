// Strongly connected components (Algorithm 8, Blelloch-Gu-Shun-Sun):
// O(m log n) expected work, O(diam(G) log n) depth w.h.p. on the PW-MT-RAM.
//
// Vertices are randomly permuted and processed in exponentially growing
// batches of centers. Each phase searches forward and backward from its
// centers within each center's subproblem, storing (vertex, center) pairs in
// the probe-clustered hash multimap of Section 5 ("Techniques for
// overlapping searches"). Vertices a center reaches both ways form its SCC
// (labeled by the minimum such center); vertices reached one way refine
// their subproblem to the minimum visiting center. Every search round is
// one edge_map, so a sparse round costs O(frontier + its edges), not O(n);
// backward rounds run over transposed_view(g), which follows in-edges.
//
// Optimizations from Section 4: iterative trimming of zero in/out-degree
// vertices, and a single-pivot first phase (one forward and one backward
// reach with visited flags) that peels the giant SCC before any hash table
// is allocated.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"
#include "parlib/hash_table.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

struct scc_options {
  double beta = 2.0;        // batch growth rate
  bool trim = true;         // iterative zero-degree trimming
  bool single_pivot = true; // one-pivot reach as the first phase
  std::size_t max_trim_rounds = 8;
  parlib::random rng = parlib::random(0x5cc);
};

namespace scc_internal {

inline constexpr vertex_id kUnlabeled = kNoVertex;

// Single-pivot reach: acquires live, unvisited vertices.
struct reach_f {
  std::uint8_t* vis;
  const std::uint8_t* done;

  // Relaxed read: update_atomic's CAS may write the flag concurrently.
  bool cond(vertex_id v) const {
    return !done[v] && std::atomic_ref<std::uint8_t>(vis[v]).load(
                           std::memory_order_relaxed) == 0;
  }
  bool update(vertex_id, vertex_id v, auto) const {
    vis[v] = 1;
    return true;
  }
  bool update_atomic(vertex_id, vertex_id v, auto) const {
    return parlib::test_and_set(&vis[v]);
  }
};

// One multi-search round: u hands each of its centers c to a live v in c's
// subproblem; v joins the next frontier once (`queued`) if it gained one.
// The table is concurrent, so dense and sparse rounds share the update.
struct multi_search_f {
  parlib::reachability_table* table;
  const vertex_id* labels;
  const vertex_id* center_sub;  // subproblem label per center index
  const std::uint8_t* done;
  std::uint8_t* queued;
  std::uint64_t* added;  // insertions per worker slot

  bool cond(vertex_id v) const { return !done[v]; }
  bool update(vertex_id u, vertex_id v, auto) const {
    bool any = false;
    table->for_each_label(u, [&](vertex_id ci) {
      if (labels[v] == center_sub[ci] && !table->contains(v, ci) &&
          table->insert(v, ci)) {
        ++added[parlib::worker_slot()];
        any = true;
      }
    });
    return any && parlib::test_and_set(&queued[v]);
  }
  bool update_atomic(vertex_id u, vertex_id v, auto w) const {
    return update(u, v, w);
  }
};

// One direction of the multi-search from `centers` over `g` (a
// transposed_view for the backward direction), restricted to each center's
// subproblem label; returns the (v, center index) pairs.
template <typename View>
parlib::reachability_table multi_search(
    const View& g, const std::vector<vertex_id>& centers,
    const std::vector<vertex_id>& labels, const std::vector<std::uint8_t>& done) {
  const vertex_id n = g.num_vertices();
  // Center c searches within subproblem labels[c]; snapshot them.
  const auto center_sub =
      parlib::map(centers, [&](vertex_id c) { return labels[c]; });
  // Initial capacity: centers + slack; grows geometrically via rebuild.
  parlib::reachability_table table(std::max<std::size_t>(
      256, centers.size() * 4));
  parlib::parallel_for(0, centers.size(), [&](std::size_t i) {
    table.insert(centers[i], static_cast<vertex_id>(i));
  });
  std::vector<std::uint8_t> queued(n, 0);
  // Insertions per worker *slot*, so external workers (and the shared
  // unregistered slot) stay in bounds without a contended global counter.
  std::vector<std::uint64_t> added(parlib::max_worker_slots(), 0);
  vertex_subset frontier(n, std::vector<vertex_id>(centers));
  while (!frontier.empty()) {
    // Upper-bound this round's insertions: sum over u in frontier of
    // (#labels of u) * degree(u), then grow the table if needed (Section 5).
    frontier.to_sparse();
    auto bounds = parlib::map(frontier.sparse(), [&](vertex_id u) {
      return static_cast<std::uint64_t>(table.count_labels(u)) *
             g.out_degree(u);
    });
    const std::uint64_t need = 2 * (centers.size() + parlib::reduce_add(added) +
                                    parlib::reduce_add(bounds));
    if (need > table.capacity()) {
      parlib::reachability_table bigger(need);
      auto entries = table.entries();
      parlib::parallel_for(0, entries.size(), [&](std::size_t i) {
        bigger.insert(static_cast<vertex_id>(entries[i] >> 32),
                      static_cast<vertex_id>(entries[i] & 0xFFFFFFFFu));
      });
      table = std::move(bigger);
    }
    frontier = edge_map(
        g, frontier,
        multi_search_f{&table, labels.data(), center_sub.data(), done.data(),
                       queued.data(), added.data()});
    frontier.for_each([&](vertex_id v) { queued[v] = 0; });
  }
  return table;
}

}  // namespace scc_internal

struct scc_result {
  std::vector<vertex_id> labels;  // SCC id per vertex
  std::size_t num_phases = 0;
};

template <typename Graph>
scc_result scc(const Graph& g, scc_options opts = {}) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> labels(n, scc_internal::kUnlabeled);
  std::vector<std::uint8_t> done(n, 0);
  scc_result res;
  if (n == 0) return res;

  // Final SCC label per vertex (assigned when done).
  std::vector<vertex_id> scc_label(n, scc_internal::kUnlabeled);
  vertex_id next_singleton_label = n;  // trimmed vertices get fresh labels

  const transposed_view<Graph> gt(g);  // backward searches follow in-edges

  // --- Trimming: vertices with no live out- or in-neighbor form singleton
  // SCCs.
  if (opts.trim) {
    auto has_live = [&](const auto& view, vertex_id v) {
      bool live = false;
      view.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
        live = !done[u];
        return !live;
      });
      return live;
    };
    for (std::size_t round = 0; round < opts.max_trim_rounds; ++round) {
      auto trivially_done = parlib::filter(
          parlib::iota<vertex_id>(n), [&](vertex_id v) {
            return !done[v] && !(has_live(g, v) && has_live(gt, v));
          });
      if (trivially_done.empty()) break;
      parlib::parallel_for(0, trivially_done.size(), [&](std::size_t i) {
        const vertex_id v = trivially_done[i];
        done[v] = 1;
        scc_label[v] = next_singleton_label + static_cast<vertex_id>(i);
      });
      next_singleton_label += static_cast<vertex_id>(trivially_done.size());
    }
  }

  const auto perm = parlib::random_permutation(n, opts.rng);

  // --- Single-pivot first phase: forward and backward reach from the first
  // not-done vertex in permutation order (finds the giant SCC cheaply).
  std::size_t perm_pos = 0;
  if (opts.single_pivot) {
    while (perm_pos < n && done[perm[perm_pos]]) ++perm_pos;
    if (perm_pos < n) {
      const vertex_id pivot = perm[perm_pos];
      auto reach = [&](const auto& view) {
        std::vector<std::uint8_t> vis(n, 0);
        vis[pivot] = 1;
        vertex_subset frontier(n, pivot);
        while (!frontier.empty()) {
          frontier = edge_map(view, frontier,
                              scc_internal::reach_f{vis.data(), done.data()});
        }
        return vis;
      };
      auto fwd = reach(g);
      auto bwd = reach(gt);
      parlib::parallel_for(0, n, [&](std::size_t v) {
        if (done[v]) return;
        if (fwd[v] && bwd[v]) {
          done[v] = 1;
          scc_label[v] = pivot;
        } else if (fwd[v]) {
          labels[v] = 1;  // refined subproblems: fwd-only
        } else if (bwd[v]) {
          labels[v] = 2;  // bwd-only
        }
      });
      ++perm_pos;
      ++res.num_phases;
    }
  }

  // --- Batched multi-search phases.
  std::size_t batch = 1;
  vertex_id center_priority_base = 4;  // label space above the pivot labels
  while (perm_pos < n) {
    const std::size_t take = std::min<std::size_t>(
        static_cast<std::size_t>(batch), n - perm_pos);
    auto candidates = parlib::tabulate<vertex_id>(
        take, [&](std::size_t i) { return perm[perm_pos + i]; });
    auto centers = parlib::filter(
        candidates, [&](vertex_id v) { return !done[v]; });
    perm_pos += take;
    batch = static_cast<std::size_t>(batch * opts.beta) + 1;
    if (centers.empty()) continue;
    ++res.num_phases;

    auto fwd = scc_internal::multi_search(g, centers, labels, done);
    auto bwd = scc_internal::multi_search(gt, centers, labels, done);

    // Classify visited vertices. Center indices are per-phase; priority is
    // the index within `centers` (respecting permutation order).
    auto fwd_entries = fwd.entries();
    auto bwd_entries = bwd.entries();
    std::vector<vertex_id> both_min(n, scc_internal::kUnlabeled);
    std::vector<vertex_id> xor_min(n, scc_internal::kUnlabeled);
    parlib::parallel_for(0, fwd_entries.size(), [&](std::size_t i) {
      const auto v = static_cast<vertex_id>(fwd_entries[i] >> 32);
      const auto ci = static_cast<vertex_id>(fwd_entries[i] & 0xFFFFFFFFu);
      parlib::write_min(bwd.contains(v, ci) ? &both_min[v] : &xor_min[v], ci);
    });
    parlib::parallel_for(0, bwd_entries.size(), [&](std::size_t i) {
      const auto v = static_cast<vertex_id>(bwd_entries[i] >> 32);
      const auto ci = static_cast<vertex_id>(bwd_entries[i] & 0xFFFFFFFFu);
      if (!fwd.contains(v, ci)) {
        // Backward-only: offset by centers.size() to separate the F\B and
        // B\F sides of the same center into different subproblems.
        parlib::write_min(&xor_min[v],
                          static_cast<vertex_id>(ci + centers.size()));
      }
    });
    parlib::parallel_for(0, n, [&](std::size_t v) {
      if (done[v]) return;
      if (both_min[v] != scc_internal::kUnlabeled) {
        done[v] = 1;
        scc_label[v] = centers[both_min[v]];
      } else if (xor_min[v] != scc_internal::kUnlabeled) {
        labels[v] = center_priority_base + xor_min[v];
      }
    });
    center_priority_base += static_cast<vertex_id>(2 * centers.size());
  }

  res.labels = std::move(scc_label);
  return res;
}

}  // namespace gbbs

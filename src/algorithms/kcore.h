// k-core decomposition (Algorithm 13, Julienne): O(m + n) expected work and
// O(rho (G + log n)) depth w.h.p., where rho is the graph's peeling
// complexity and G = kKcoreSmallRoundEdges.
//
// Vertices are bucketed by induced degree; each round peels the minimum
// bucket, assigns those vertices their coreness, and decreases the induced
// degree of surviving neighbors. The degree update of a round depends on
// its peeled-edge total (the out-degree sum of the popped bucket):
//   * below G edges, one sequential pass counts removed edges per neighbor
//     in a dense per-call array `removed[n]` (allocated on the first such
//     round, zero between rounds) and applies each touched neighbor once.
//     Skewed graphs peel hundreds of such rounds (R-MAT scale 17: about
//     300 rounds, most under 64 vertices), where the parallel primitives
//     below cost more in forks and allocations than the round's work;
//   * from G edges up, two implementations (the subject of Table 6):
//     - kcore_variant::histogram — the work-efficient low-contention
//       histogram of Section 5 (one (neighbor, 1) pair per removed edge,
//       reduced by key);
//     - kcore_variant::fetch_and_add — the contended baseline: a
//       fetch-and-add per removed edge on the neighbor's `removed` counter;
//       the edge whose add returns 0 records the neighbor in its slot, and
//       the recorded slots are the round's touched set.
//     The fetch-and-add variant uses its parallel path in every round, so
//     Table 6 compares it against the default variant on every graph.
// Every path applies deg[u] = max(deg[u] - removed, k) to each touched
// survivor, so coreness and num_rounds do not depend on the path taken.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/bucketing.h"
#include "graph/graph.h"
#include "obs/registry.h"
#include "parlib/atomics.h"
#include "parlib/histogram.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

enum class kcore_variant { histogram, fetch_and_add };

// Peeled-edge total below which a histogram-variant round updates degrees
// sequentially (the grain G above).
inline constexpr std::uint64_t kKcoreSmallRoundEdges = std::uint64_t{1} << 16;

struct kcore_result {
  std::vector<vertex_id> coreness;
  std::size_t num_rounds = 0;  // rho: number of peeling rounds
  vertex_id max_core = 0;      // kmax: degeneracy
};

template <typename Graph>
kcore_result kcore(const Graph& g,
                   kcore_variant variant = kcore_variant::histogram) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> deg(n);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    deg[v] = g.out_degree(static_cast<vertex_id>(v));
  });
  std::vector<std::uint8_t> finished(n, 0);

  auto bucket_of = [&](vertex_id v) -> bucket_id {
    return finished[v] ? kNullBucket : static_cast<bucket_id>(deg[v]);
  };
  auto buckets = make_buckets(n, bucket_of, bucket_order::increasing);

  kcore_result res;
  res.coreness.assign(n, 0);
  vertex_id k = 0;
  const auto& ev = obs::events();
  // removed[u]: u's peeled edges this round; all zero between rounds.
  std::vector<vertex_id> removed;
  std::vector<vertex_id> touched;

  // Lower a touched survivor's degree by its r removed edges, clamped at k
  // (the paper's max(newD, k)); returns its new bucket, null if unchanged.
  auto lower_degree = [&](vertex_id u, vertex_id r) -> bucket_id {
    const vertex_id induced = deg[u];
    const vertex_id nd = std::max<vertex_id>(induced - r, k);
    deg[u] = nd;
    return buckets.get_bucket(induced, nd);
  };

  while (true) {
    auto [bkt, ids] = buckets.next_bucket();
    if (bkt == kNullBucket) break;
    ++res.num_rounds;
    k = std::max(k, static_cast<vertex_id>(bkt));
    parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
      finished[ids[i]] = 1;
      res.coreness[ids[i]] = k;
    });
    // Peeled edges to survivors whose degree can still drop.
    auto live = [&](vertex_id u) { return !finished[u] && deg[u] > k; };

    auto per_vertex = parlib::tabulate<std::uint64_t>(
        ids.size(), [&](std::size_t i) { return g.out_degree(ids[i]); });
    const std::uint64_t total = parlib::scan_inplace(per_vertex);

    std::vector<std::pair<vertex_id, bucket_id>> updates;
    if (variant == kcore_variant::fetch_and_add) {
      if (removed.empty()) removed.assign(n, 0);
      std::vector<vertex_id> winners(total);
      parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
        std::size_t off = per_vertex[i];
        g.map_out_neighbors_early_exit(ids[i], [&](vertex_id, vertex_id u, auto) {
          const bool first =
              live(u) && parlib::fetch_and_add<vertex_id>(&removed[u], 1) == 0;
          winners[off++] = first ? u : kNoVertex;
          return true;
        });
      });
      ev.fetch_add_ops.add(total);
      auto affected = parlib::filter(
          winners, [](vertex_id u) { return u != kNoVertex; });
      updates.resize(affected.size());
      parlib::parallel_for(0, affected.size(), [&](std::size_t i) {
        const vertex_id u = affected[i];
        updates[i] = {u, lower_degree(u, std::exchange(removed[u], 0))};
      });
    } else if (total < kKcoreSmallRoundEdges) {
      if (removed.empty()) removed.assign(n, 0);
      touched.clear();
      for (const vertex_id v : ids) {
        g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
          if (live(u) && removed[u]++ == 0) touched.push_back(u);
          return true;
        });
      }
      for (const vertex_id u : touched) {
        const bucket_id dest = lower_degree(u, std::exchange(removed[u], 0));
        if (dest != kNullBucket) updates.emplace_back(u, dest);
      }
    } else {
      // One (neighbor, 1) pair per peeled edge into surviving vertices.
      std::vector<std::pair<vertex_id, std::uint64_t>> pairs(total);
      parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
        std::size_t off = per_vertex[i];
        g.map_out_neighbors_early_exit(ids[i], [&](vertex_id, vertex_id u, auto) {
          pairs[off++] = {u, 1};
          return true;
        });
      });
      auto live_pairs = parlib::filter(
          pairs, [&](const auto& p) { return live(p.first); });
      ev.histogram_calls.add();
      updates = parlib::histogram_filter<vertex_id, std::uint64_t>(
          live_pairs, [](std::uint64_t a, std::uint64_t b) { return a + b; },
          0,
          [&](vertex_id u, std::uint64_t r)
              -> std::optional<std::pair<vertex_id, bucket_id>> {
            const bucket_id dest =
                lower_degree(u, static_cast<vertex_id>(r));
            if (dest == kNullBucket) return std::nullopt;
            return std::make_pair(u, dest);
          });
    }
    buckets.update_buckets(updates);
  }
  res.max_core = k;
  return res;
}

}  // namespace gbbs

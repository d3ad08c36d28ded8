// k-core decomposition (Algorithm 13, Julienne): O(m + n) expected work and
// O(rho log n) depth w.h.p., where rho is the graph's peeling complexity.
//
// Vertices are bucketed by induced degree; each round peels the minimum
// bucket, assigns those vertices their coreness, and decreases the induced
// degree of surviving neighbors. Two implementations of the degree-update
// step (the subject of Table 6):
//   * kcore_variant::histogram — the work-efficient low-contention
//     histogram of Section 5 (one (neighbor, 1) pair per removed edge,
//     reduced by key);
//   * kcore_variant::fetch_and_add — the contended baseline: a direct
//     fetch-and-add per removed edge on the neighbor's degree counter.
#pragma once

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

  while (true) {
    auto [bkt, ids] = buckets.next_bucket();
    if (bkt == kNullBucket) break;
    ++res.num_rounds;
    k = std::max(k, static_cast<vertex_id>(bkt));
    parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
      finished[ids[i]] = 1;
      res.coreness[ids[i]] = k;
    });

    std::vector<std::pair<vertex_id, bucket_id>> updates;
    if (variant == kcore_variant::histogram) {
      // One (neighbor, 1) pair per peeled edge into surviving vertices.
      auto per_vertex = parlib::tabulate<std::uint64_t>(
          ids.size(), [&](std::size_t i) {
            return g.out_degree(ids[i]);
          });
      const std::uint64_t total = parlib::scan_inplace(per_vertex);
      std::vector<std::pair<vertex_id, std::uint64_t>> pairs(total);
      parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
        std::size_t off = per_vertex[i];
        g.map_out_neighbors_early_exit(ids[i], [&](vertex_id, vertex_id u, auto) {
          pairs[off++] = {u, 1};
          return true;
        });
      });
      auto live_pairs = parlib::filter(pairs, [&](const auto& p) {
        return !finished[p.first];
      });
      ev.histogram_calls.add();
      updates = parlib::histogram_filter<vertex_id, std::uint64_t>(
          live_pairs, [](std::uint64_t a, std::uint64_t b) { return a + b; },
          0,
          [&](vertex_id v, std::uint64_t removed)
              -> std::optional<std::pair<vertex_id, bucket_id>> {
            const vertex_id induced = deg[v];
            if (induced <= k) return std::nullopt;
            const vertex_id nd = std::max<vertex_id>(
                induced - static_cast<vertex_id>(removed), k);
            deg[v] = nd;
            const bucket_id dest = buckets.get_bucket(induced, nd);
            if (dest == kNullBucket) return std::nullopt;
            return std::make_pair(v, dest);
          });
    } else {
      // Contended baseline: FA per edge, then collect touched survivors.
      std::vector<std::uint8_t> touched(n, 0);
      std::uint64_t edges_removed = 0;
      parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
        g.map_out_neighbors(ids[i], [&](vertex_id, vertex_id u, auto) {
          if (!finished[u]) {
            parlib::fetch_and_add<vertex_id>(&deg[u], vertex_id(-1));
            if (!touched[u]) parlib::test_and_set(&touched[u]);
          }
        });
      });
      parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
        parlib::fetch_and_add<std::uint64_t>(&edges_removed,
                                             g.out_degree(ids[i]));
      });
      ev.fetch_add_ops.add(edges_removed);
      auto affected = parlib::pack_index<vertex_id>(touched);
      updates.resize(affected.size());
      parlib::parallel_for(0, affected.size(), [&](std::size_t i) {
        const vertex_id v = affected[i];
        // FA may have driven deg below k; clamp (paper's max(newD, k)).
        const vertex_id clamped = std::max(deg[v], k);
        deg[v] = clamped;
        updates[i] = {v, static_cast<bucket_id>(clamped)};
      });
    }
    buckets.update_buckets(updates);
  }
  res.max_core = k;
  return res;
}

}  // namespace gbbs

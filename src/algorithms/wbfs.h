// Integral-weight SSSP (weighted BFS, Algorithm 4 / Julienne): O(m)
// expected work and O(diam(G) log n) depth w.h.p. on the PW-MT-RAM.
// Vertices are bucketed by tentative distance; popping buckets in
// increasing order settles vertices (integer weights >= 1 guarantee no
// future relaxation below the current bucket). Relaxations inside a round
// use priority-write(min) plus a test-and-set round flag so each improved
// vertex is shipped to update_buckets exactly once.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "graph/bucketing.h"
#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"

namespace gbbs {

namespace wbfs_internal {

struct wbfs_f {
  std::vector<std::uint32_t>* dist;
  std::vector<std::uint8_t>* flags;

  bool cond(vertex_id) const { return true; }
  std::optional<std::uint32_t> update_atomic(vertex_id u, vertex_id v,
                                             std::uint32_t w) const {
    const std::uint32_t nd = (*dist)[u] + w;
    std::optional<std::uint32_t> res;
    if (nd < parlib::atomic_load(&(*dist)[v])) {
      if (parlib::test_and_set(&(*flags)[v])) {
        res = (*dist)[v];  // old distance (its current bucket)
      }
      parlib::write_min(&(*dist)[v], nd);
    }
    return res;
  }
};

}  // namespace wbfs_internal

struct wbfs_result {
  std::vector<std::uint32_t> dist;  // kInfDist if unreachable
  std::size_t num_rounds = 0;       // bucket pops
};

// use_blocked selects edge_map_data's blocked kernel (edgeMapBlocked) vs its
// unblocked one (one slot per incident edge) for the relaxation step (the
// Table 6 "wBFS blocked/unblocked" comparison).
template <typename Graph>
wbfs_result wbfs(const Graph& g, vertex_id src, bool use_blocked = true) {
  const vertex_id n = g.num_vertices();
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(n, kInf);
  std::vector<std::uint8_t> flags(n, 0);
  dist[src] = 0;

  auto bucket_of = [&](vertex_id v) -> bucket_id {
    return dist[v] == kInf ? kNullBucket : static_cast<bucket_id>(dist[v]);
  };
  auto b = make_buckets(n, bucket_of, bucket_order::increasing);

  std::size_t rounds = 0;
  while (true) {
    auto [bkt, ids] = b.next_bucket();
    if (bkt == kNullBucket) break;
    ++rounds;
    vertex_subset frontier(n, std::move(ids));
    auto moved = edge_map_data<std::uint32_t>(
        g, frontier, wbfs_internal::wbfs_f{&dist, &flags}, use_blocked);
    // Reset round flags and compute destination buckets from the *final*
    // distance of this round (several relaxations may have landed).
    const auto& entries = moved.entries();
    std::vector<std::pair<vertex_id, bucket_id>> updates(entries.size());
    parlib::parallel_for(0, entries.size(), [&](std::size_t i) {
      const vertex_id v = entries[i].first;
      flags[v] = 0;
      updates[i] = {v, static_cast<bucket_id>(dist[v])};
    });
    b.update_buckets(updates);
  }
  return {std::move(dist), rounds};
}

}  // namespace gbbs

// Approximate set cover (Algorithm 14, Blelloch-Peng-Tangwongsan via
// Julienne): O(m) expected work, O(log^3 n) depth w.h.p. on the PW-MT-RAM,
// producing an O(log n)-approximation.
//
// The instance is a bipartite graph: sets are vertices [0, num_sets),
// elements are [num_sets, n). Sets are bucketed by floor(log_{1+eps} deg)
// and processed from the highest bucket. Each round packs covered elements
// out of the popped sets' adjacency lists (in-place pack_out — this is why
// the routine takes the graph by value), splits the sets into those still
// at the bucket's threshold (SC) and those to rebucket (SR), and runs one
// MaNIS step on SC: every set writes a random priority to its remaining
// elements with priority-write(min); sets that win at least
// ceil((1+eps)^(b-1)) elements join the cover.
//
// Per Section 4/6, the priorities of the active sets are REGENERATED every
// round: a set's priority is a hash of its id under the round's fork of the
// seed, ties broken by id (the id fills the low half, so priorities stay
// distinct). The `regenerate_priorities = false` baseline reuses static
// vertex-id priorities, reproducing the pathology the paper reports on
// meshes/tori (up to 56x slower on 3D-Torus).
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/bucketing.h"
#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

struct set_cover_options {
  double epsilon = 0.01;
  bool regenerate_priorities = true;  // the paper's fix; false = baseline
  parlib::random rng = parlib::random(0x5e7c);
};

struct set_cover_result {
  std::vector<vertex_id> cover;  // chosen set ids
  std::size_t num_rounds = 0;
};

// NOTE: takes the graph by value — adjacency lists are packed in place.
template <typename Graph>
set_cover_result set_cover(Graph g, vertex_id num_sets,
                           set_cover_options opts = {}) {
  // The by-value copy shares the caller's CSR block; detach it up front so
  // the parallel pack_out below mutates a uniquely-owned clone (a COW race
  // inside the loop would be unsafe, and packing through a shared block
  // would corrupt the caller's graph).
  g.unshare();
  const vertex_id n = g.num_vertices();
  const double one_eps = 1.0 + opts.epsilon;
  auto bucket_of_deg = [&](vertex_id d) -> bucket_id {
    if (d == 0) return kNullBucket;
    return static_cast<bucket_id>(
        std::ceil(std::log(static_cast<double>(d)) / std::log(one_eps)));
  };
  auto threshold_of_bucket = [&](bucket_id b) -> vertex_id {
    const double t = std::pow(one_eps, b > 0 ? b - 1 : 0);
    return static_cast<vertex_id>(std::ceil(t));
  };

  // covered[e] for elements; elt_winner[e] = priority-packed winning set.
  constexpr std::uint64_t kNoWinner = ~std::uint64_t{0};
  std::vector<std::uint8_t> covered(n, 0);
  std::vector<std::uint8_t> in_cover(num_sets, 0);
  std::vector<std::uint64_t> elt_winner(n, kNoWinner);

  std::vector<bucket_id> set_bucket(num_sets);
  parlib::parallel_for(0, num_sets, [&](std::size_t s) {
    set_bucket[s] = bucket_of_deg(g.out_degree(static_cast<vertex_id>(s)));
  });
  auto bucket_of = [&](vertex_id s) -> bucket_id { return set_bucket[s]; };
  auto buckets = make_buckets(num_sets, bucket_of, bucket_order::decreasing);

  set_cover_result res;
  while (true) {
    auto [bkt, sets] = buckets.next_bucket();
    if (bkt == kNullBucket) break;
    ++res.num_rounds;

    // Pack out covered elements; recompute degrees.
    parlib::parallel_for(0, sets.size(), [&](std::size_t i) {
      g.pack_out(sets[i], [&](vertex_id, vertex_id e, auto) {
        return !covered[e];
      });
    });
    const vertex_id thresh = threshold_of_bucket(static_cast<bucket_id>(bkt));
    auto sc = parlib::filter(
        sets, [&](vertex_id s) { return g.out_degree(s) >= thresh; });
    auto sr = parlib::filter(
        sets, [&](vertex_id s) { return g.out_degree(s) < thresh; });

    // MaNIS step over SC with (optionally regenerated) random priorities.
    const parlib::random round_rng = opts.rng.fork(res.num_rounds);
    auto pri = parlib::map(sc, [&](vertex_id s) {
      const std::uint32_t r =
          opts.regenerate_priorities
              ? static_cast<std::uint32_t>(round_rng.ith_rand(s))
              : s;
      return (static_cast<std::uint64_t>(r) << 32) | s;
    });
    parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
      g.map_out_neighbors(sc[i], [&](vertex_id, vertex_id e, auto) {
        parlib::write_min(&elt_winner[e], pri[i]);
      });
    });
    // Sets that acquired >= thresh elements join the cover and cover them.
    parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
      const std::size_t acquired = g.count_out(
          sc[i], [&](vertex_id, vertex_id e, auto) {
            return elt_winner[e] == pri[i];
          });
      if (acquired < thresh) return;
      in_cover[sc[i]] = 1;
      set_bucket[sc[i]] = kNullBucket;  // done
      g.map_out_neighbors(sc[i], [&](vertex_id, vertex_id e, auto) {
        if (elt_winner[e] == pri[i]) covered[e] = 1;
      });
    });
    // Reset priority slots of elements that stayed uncovered. The sets
    // that share an element reset its slot concurrently, hence atomic
    // stores.
    parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
      g.map_out_neighbors(sc[i], [&](vertex_id, vertex_id e, auto) {
        if (!covered[e]) parlib::atomic_store(&elt_winner[e], kNoWinner);
      });
    });
    // Rebucket losers and shrunken sets.
    auto losers =
        parlib::filter(sc, [&](vertex_id s) { return !in_cover[s]; });
    std::vector<std::pair<vertex_id, bucket_id>> updates;
    updates.reserve(losers.size() + sr.size());
    auto add_updates = [&](const std::vector<vertex_id>& vs) {
      const std::size_t old = updates.size();
      updates.resize(old + vs.size());
      parlib::parallel_for(0, vs.size(), [&](std::size_t i) {
        const vertex_id s = vs[i];
        // Losers keep their degree but must re-run (possibly same bucket):
        // clamp to one below the current bucket to guarantee progress.
        bucket_id nb = bucket_of_deg(g.out_degree(s));
        if (nb != kNullBucket && nb >= static_cast<bucket_id>(bkt) &&
            bkt > 0) {
          nb = static_cast<bucket_id>(bkt);
        }
        set_bucket[s] = nb;
        updates[old + i] = {s, nb};
      });
    };
    add_updates(losers);
    add_updates(sr);
    buckets.update_buckets(updates);
  }

  res.cover = parlib::pack_index<vertex_id>(in_cover);
  return res;
}

}  // namespace gbbs

// Tests for the traversal-generic graph views:
//   * the randomized equivalence suite: BFS / k-core / triangles /
//     connectivity computed on the overlay-fused serve::dynamic_view (and
//     on the live dynamic_graph itself) must match the same algorithms on
//     a compacted snapshot(), across mixed insert/erase batch schedules
//     and across both edge_map directions (dense / blocked sparse);
//   * the acceptance check: query-engine analytics on a version with a
//     non-empty overlay never materialize the merged CSR (asserted via
//     the registry's serve.merged_csr_materializations count), while
//     explicitly-stale queries do — exactly once per version;
//   * the in-edge overlay: a directed live dynamic_graph's in-side
//     (degrees, neighborhoods, and the dense edgeMap that scans them)
//     matches the transposed snapshot after inserts and erases;
//   * the persistent overlay index: an ingest touching few vertices
//     shares every untouched bucket (shared_ptr-identical) with the
//     previous snapshot — the O(batch) refresh contract;
//   * the live edge count: num_edges() of a dynamic view includes overlay
//     inserts and excludes erases (what edge_map's direction threshold
//     consumes).
#include <algorithm>
#include <cstdint>
#include <future>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/connectivity.h"
#include "algorithms/kcore.h"
#include "algorithms/triangle.h"
#include "dynamic/dynamic_graph.h"
#include "graph/compression/compressed_graph.h"
#include "graph/edge_map.h"
#include "graph/graph_builder.h"
#include "graph/graph_view.h"
#include "obs/registry.h"
#include "parlib/random.h"
#include "serve/dynamic_view.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/snapshot_manager.h"

namespace {

using gbbs::edge;
using gbbs::edge_map_direction;
using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::serve::query;
using gbbs::serve::query_engine;
using gbbs::serve::query_kind;
using gbbs::serve::snapshot_manager;

using uw_update = gbbs::dynamic::update<empty_weight>;

// Every representation models the one traversal concept.
static_assert(gbbs::graph_view<gbbs::graph<empty_weight>>);
static_assert(gbbs::graph_view<gbbs::compressed_graph<empty_weight>>);
static_assert(gbbs::graph_view<gbbs::dynamic::dynamic_graph<empty_weight>>);
static_assert(gbbs::graph_view<gbbs::serve::dynamic_view<empty_weight>>);

std::vector<uw_update> inserts(const std::vector<std::pair<vertex_id,
                                                           vertex_id>>& es) {
  std::vector<uw_update> ups;
  ups.reserve(es.size());
  for (const auto& [u, v] : es) {
    ups.push_back({u, v, {}, gbbs::dynamic::update_op::insert});
  }
  return ups;
}

std::vector<uw_update> erases(const std::vector<std::pair<vertex_id,
                                                          vertex_id>>& es) {
  std::vector<uw_update> ups;
  ups.reserve(es.size());
  for (const auto& [u, v] : es) {
    ups.push_back({u, v, {}, gbbs::dynamic::update_op::erase});
  }
  return ups;
}

// A mixed batch schedule: each round inserts fresh random edges and
// erases a random subset of the currently live ones. Deterministic in
// `seed`.
struct mixed_schedule {
  explicit mixed_schedule(std::uint64_t seed, vertex_id n)
      : rng_(seed), n_(n) {}

  std::vector<uw_update> next_batch(std::size_t num_inserts,
                                    std::size_t num_erases) {
    std::vector<std::pair<vertex_id, vertex_id>> ins;
    for (std::size_t i = 0; i < num_inserts; ++i, ++k_) {
      const auto u = static_cast<vertex_id>(rng_.ith_rand(2 * k_) % n_);
      const auto v = static_cast<vertex_id>(rng_.ith_rand(2 * k_ + 1) % n_);
      if (u == v) continue;
      ins.emplace_back(u, v);
      live_.insert({std::min(u, v), std::max(u, v)});
    }
    std::vector<std::pair<vertex_id, vertex_id>> del;
    std::vector<std::pair<vertex_id, vertex_id>> live_list(live_.begin(),
                                                           live_.end());
    for (std::size_t i = 0; i < num_erases && !live_list.empty();
         ++i, ++k_) {
      const auto pick = static_cast<std::size_t>(rng_.ith_rand(2 * k_) %
                                                 live_list.size());
      del.push_back(live_list[pick]);
      live_.erase(live_list[pick]);
    }
    auto batch = inserts(ins);
    auto era = erases(del);
    batch.insert(batch.end(), era.begin(), era.end());
    return batch;
  }

  parlib::random rng_;
  vertex_id n_;
  std::size_t k_ = 0;
  std::set<std::pair<vertex_id, vertex_id>> live_;
};

// BFS / k-core / triangles / connectivity on `view` must equal the same
// algorithms on the compacted reference CSR.
template <typename View>
void expect_view_matches_reference(const View& view,
                                   const gbbs::graph<empty_weight>& ref) {
  ASSERT_EQ(view.num_vertices(), ref.num_vertices());
  ASSERT_EQ(view.num_edges(), ref.num_edges());
  const vertex_id n = ref.num_vertices();
  for (vertex_id v = 0; v < n; ++v) {
    ASSERT_EQ(view.out_degree(v), ref.out_degree(v)) << "degree of " << v;
  }
  // BFS from a few sources, in every edge_map mode (dense exercises the
  // in-side early-exit decode, blocked the prefix-summed range access).
  for (vertex_id src : {vertex_id{0}, static_cast<vertex_id>(n / 2),
                        static_cast<vertex_id>(n - 1)}) {
    const auto want = gbbs::bfs(ref, src);
    for (auto dir : {edge_map_direction::sparse, edge_map_direction::dense}) {
      EXPECT_EQ(gbbs::bfs(view, src, dir), want)
          << "bfs mode " << static_cast<int>(dir) << " from " << src;
    }
  }
  EXPECT_EQ(gbbs::kcore(view).coreness, gbbs::kcore(ref).coreness);
  EXPECT_EQ(gbbs::triangle_count(view), gbbs::triangle_count(ref));
  EXPECT_TRUE(gbbs::same_partition(gbbs::connectivity(view),
                                   gbbs::connectivity(ref)));
}

// ---- the randomized equivalence suite -------------------------------------

TEST(DynamicViewEquivalence, MixedInsertEraseSchedules) {
  const auto& builds = gbbs::obs::events().merged_csr_materializations;
  for (std::uint64_t seed : {7u, 21u, 63u}) {
    const vertex_id n = 192;
    // Huge threshold: the overlay never auto-compacts, so every round
    // queries a genuinely uncompacted view.
    snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/1e9);
    mixed_schedule sched(seed, n);
    for (int round = 0; round < 6; ++round) {
      mgr.ingest(sched.next_batch(/*num_inserts=*/140, /*num_erases=*/45));
      auto idx = mgr.overlay().read();
      ASSERT_NE(idx, nullptr);
      ASSERT_GT(idx->overlay_size(), 0u) << "overlay unexpectedly empty";
      const auto ref = mgr.live().snapshot();
      const auto before = builds.value();
      // The serve-side view over the published overlay index...
      expect_view_matches_reference(
          gbbs::serve::dynamic_view<empty_weight>(idx), ref);
      // ...and the live dynamic graph itself, traversed uncompacted.
      expect_view_matches_reference(mgr.live(), ref);
      // None of the view-side traversals materialized the merged CSR.
      EXPECT_EQ(builds.value(), before);
    }
  }
}

// ---- the acceptance check: no materialization on the analytics path -------

TEST(DynamicViewEquivalence, EngineAnalyticsNeverMaterializeUnlessStale) {
  const vertex_id n = 96;
  snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/1e9);
  mixed_schedule sched(5, n);
  mgr.ingest(sched.next_batch(200, 30));
  mgr.publish();  // the published version carries a non-empty overlay
  mgr.ingest(sched.next_batch(60, 10));  // plus unpublished ingest on top

  auto snap = mgr.pin();
  ASSERT_TRUE(snap);
  ASSERT_NE(snap.overlay(), nullptr) << "test needs a non-empty overlay";

  const auto live_ref = mgr.live().snapshot();
  const auto& builds = gbbs::obs::events().merged_csr_materializations;
  const auto before = builds.value();
  {
    query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 3);
    auto fb = engine.submit({query_kind::bfs_distance, 0, n / 2});
    auto fk = engine.submit({query_kind::kcore_max, 0, 0});
    auto ft = engine.submit({query_kind::triangles, 0, 0});
    auto fc = engine.submit({query_kind::connectivity_refine, 0, 0});
    EXPECT_EQ(fb.get().value, gbbs::bfs(live_ref, 0)[n / 2]);
    EXPECT_EQ(fk.get().value, gbbs::kcore(live_ref).max_core);
    EXPECT_EQ(ft.get().value, gbbs::triangle_count(live_ref));
    EXPECT_EQ(fc.get().value,
              gbbs::component_representatives(gbbs::connectivity(live_ref))
                  .size());
    engine.drain();
    // Fresh analytics on a non-empty overlay: zero merged-CSR builds.
    EXPECT_EQ(builds.value(), before);

    // Pinned-version analytics (no overlay engine involved) also traverse
    // the version's overlay through a dynamic_view — still no merge.
    (void)execute_query(snap, {query_kind::triangles, 0, 0});
    EXPECT_EQ(builds.value(), before);

    // An explicitly-stale query pays the merge — once per version.
    query stale_tri{query_kind::triangles, 0, 0};
    stale_tri.stale = true;
    auto fs1 = engine.submit(stale_tri);
    (void)fs1.get();
    EXPECT_EQ(builds.value(), before + 1);
    auto fs2 = engine.submit(stale_tri);  // memoized: no second build
    (void)fs2.get();
    EXPECT_EQ(builds.value(), before + 1);
  }
}

// ---- in-edge overlay on the live directed graph ---------------------------

TEST(InEdgeOverlay, DirectedLiveGraphMatchesSnapshot) {
  const vertex_id n = 128;
  gbbs::dynamic::dynamic_graph<empty_weight> dg(n, /*symmetric=*/false);
  parlib::random rng(11);
  std::set<std::pair<vertex_id, vertex_id>> live;
  std::size_t k = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<uw_update> batch;
    for (int i = 0; i < 120; ++i, ++k) {
      const auto u = static_cast<vertex_id>(rng.ith_rand(2 * k) % n);
      const auto v = static_cast<vertex_id>(rng.ith_rand(2 * k + 1) % n);
      if (u == v) continue;
      batch.push_back({u, v, {}, gbbs::dynamic::update_op::insert});
      live.insert({u, v});
    }
    std::vector<std::pair<vertex_id, vertex_id>> live_list(live.begin(),
                                                           live.end());
    for (int i = 0; i < 30 && !live_list.empty(); ++i, ++k) {
      const auto pick = static_cast<std::size_t>(rng.ith_rand(2 * k) %
                                                 live_list.size());
      batch.push_back({live_list[pick].first, live_list[pick].second, {},
                       gbbs::dynamic::update_op::erase});
      live.erase(live_list[pick]);
    }
    dg.apply(std::move(batch));

    const auto snap = dg.snapshot();
    ASSERT_FALSE(snap.symmetric());
    for (vertex_id v = 0; v < n; ++v) {
      ASSERT_EQ(dg.in_degree(v), snap.in_degree(v)) << "in-degree of " << v;
      std::vector<vertex_id> got;
      dg.map_in_neighbors_early_exit(
          v, [&](vertex_id, vertex_id u, empty_weight) {
            got.push_back(u);
            return true;
          });
      const auto want_span = snap.in_neighbors(v);
      const std::vector<vertex_id> want(want_span.begin(), want_span.end());
      ASSERT_EQ(got, want) << "in-neighbors of " << v;
    }
    // The direction-optimized dense edgeMap scans in-edges: a dense-mode
    // BFS on the live directed graph must match the snapshot's.
    for (auto dir : {edge_map_direction::sparse, edge_map_direction::dense}) {
      EXPECT_EQ(gbbs::bfs(dg, 0, dir), gbbs::bfs(snap, 0, dir))
          << "mode " << static_cast<int>(dir);
    }
  }
}

// ---- persistent index: O(batch) refresh shares untouched buckets ----------

TEST(OverlayIndex, IncrementalRefreshSharesUntouchedBuckets) {
  const vertex_id n = 4096;
  snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/1e9);
  // Seed a wide overlay: one edge per vertex pair (v, v+1) over half the
  // graph, so the index has many buckets.
  std::vector<std::pair<vertex_id, vertex_id>> wide;
  for (vertex_id v = 0; v + 1 < n / 2; v += 2) wide.emplace_back(v, v + 1);
  mgr.ingest(inserts(wide));
  auto idx1 = mgr.overlay().read();
  ASSERT_GT(idx1->bucket_count(), 8u);

  // A small batch touching two vertices (four mirrored endpoints).
  mgr.ingest(inserts({{1000, 1001}, {2000, 2001}}));
  auto idx2 = mgr.overlay().read();
  ASSERT_EQ(idx2->bucket_count(), idx1->bucket_count());

  std::size_t shared = 0, rebuilt = 0;
  for (std::size_t b = 0; b < idx2->bucket_count(); ++b) {
    if (idx1->buckets[b] == idx2->buckets[b]) {
      ++shared;
    } else {
      ++rebuilt;
    }
  }
  // At most one bucket per touched endpoint is rebuilt; the rest alias.
  EXPECT_LE(rebuilt, 4u);
  EXPECT_GT(shared, idx2->bucket_count() / 2);

  // Content is still right on both sides of the split.
  EXPECT_TRUE(idx2->contains_edge(1000, 1001));
  EXPECT_TRUE(idx2->contains_edge(0, 1));
  EXPECT_EQ(idx2->degree(2000), 1u);

  // The untouched rows are shared at row granularity too: spot-check that
  // a vertex far from the batch resolves to the same row object.
  const auto* r1 = idx1->row(4);
  const auto* r2 = idx2->row(4);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r1->entries.get(), r2->entries.get());
}

// ---- live edge count feeds the direction threshold ------------------------

TEST(OverlayIndex, LiveEdgeCountIncludesOverlay) {
  // Seed graph: a 64-vertex path (126 directed edges after mirroring).
  const vertex_id n = 64;
  std::vector<edge<empty_weight>> path;
  for (vertex_id v = 0; v + 1 < n; ++v) path.push_back({v, v + 1, {}});
  auto seed = gbbs::build_symmetric_graph<empty_weight>(n, path);
  const auto base_m = seed.num_edges();

  snapshot_manager<empty_weight> mgr(std::move(seed),
                                     /*compact_threshold=*/1e9);
  // 8 fresh undirected edges -> +16 directed; 2 erased -> -4.
  mgr.ingest(inserts({{0, 10}, {0, 20}, {0, 30}, {1, 11}, {2, 12}, {3, 13},
                      {4, 14}, {5, 15}}));
  mgr.ingest(erases({{0, 10}, {1, 11}}));
  auto idx = mgr.overlay().read();
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->m, base_m + 16 - 4);
  gbbs::serve::dynamic_view<empty_weight> dv(idx);
  EXPECT_EQ(dv.num_edges(), mgr.live().num_edges());
  EXPECT_EQ(dv.num_edges(), mgr.live().snapshot().num_edges());
}

// ---- merged-row range access ----------------------------------------------

TEST(MergedRowRange, MatchesFullDecodeSlices) {
  const vertex_id n = 80;
  snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/1e9);
  mixed_schedule sched(3, n);
  mgr.ingest(sched.next_batch(300, 60));
  auto idx = mgr.overlay().read();
  gbbs::serve::dynamic_view<empty_weight> dv(idx);
  const auto& live = mgr.live();
  for (vertex_id v = 0; v < n; ++v) {
    std::vector<vertex_id> full;
    dv.map_out_neighbors(v, [&](vertex_id, vertex_id ngh, empty_weight) {
      full.push_back(ngh);
    });
    const std::size_t deg = full.size();
    for (auto [lo, hi] : std::vector<std::pair<std::size_t, std::size_t>>{
             {0, deg},
             {0, deg / 2},
             {deg / 2, deg},
             {deg / 3, 2 * deg / 3},
             {deg, deg + 5}}) {
      std::vector<vertex_id> want(
          full.begin() + static_cast<long>(std::min(lo, deg)),
          full.begin() + static_cast<long>(std::min(hi, deg)));
      std::vector<vertex_id> got_view, got_live;
      dv.map_out_neighbors_range(
          v, lo, hi, [&](vertex_id, vertex_id ngh, empty_weight) {
            got_view.push_back(ngh);
          });
      live.map_out_neighbors_range(
          v, lo, hi, [&](vertex_id, vertex_id ngh, empty_weight) {
            got_live.push_back(ngh);
          });
      ASSERT_EQ(got_view, want) << "view range [" << lo << "," << hi
                                << ") of " << v;
      ASSERT_EQ(got_live, want) << "live range [" << lo << "," << hi
                                << ") of " << v;
    }
  }
}

}  // namespace

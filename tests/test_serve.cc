// Tests for the concurrent snapshot-serving subsystem (src/serve):
//   * snapshot_store pin/publish lifecycle — pins are self-contained
//     shared handles, so a pinned version survives arbitrarily many
//     publish/compact cycles unchanged while version *nodes* are
//     reclaimed eagerly;
//   * typed query dispatch against a pinned version;
//   * overlay-served fresh point reads: a read issued after ingest() but
//     before publish() observes the new edges via the delta-aware path;
//   * the bounded submit queue (reject and block overflow policies);
//   * inline point reads: answered on the submitting thread with the
//     route/version/epoch their view plan gives, a zero queue wait, no
//     result-cache traffic, and the same admission rule as analytics;
//   * the acceptance check: with ingest and >= 4 reader threads running
//     simultaneously, every query result equals the result of the same
//     static algorithm on the snapshot version it was admitted against.
//
// Shared-CSR storage lifetime (arrays outliving writer/store, zero-copy
// publish) is covered in test_shared_csr.cc.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/connectivity.h"
#include "algorithms/kcore.h"
#include "algorithms/triangle.h"
#include "dynamic/stream.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "obs/registry.h"
#include "parlib/random.h"
#include "robust/failpoint.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/sharded_ingest.h"
#include "serve/snapshot_manager.h"
#include "serve/snapshot_store.h"

namespace {

using gbbs::edge;
using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::serve::overlay_view;
using gbbs::serve::pinned_snapshot;
using gbbs::serve::query;
using gbbs::serve::query_engine;
using gbbs::serve::query_engine_options;
using gbbs::serve::query_kind;
using gbbs::serve::query_result;
using gbbs::serve::query_route;
using gbbs::serve::query_status;
using gbbs::serve::sharded_snapshot_manager;
using gbbs::serve::snapshot_manager;
using gbbs::serve::snapshot_store;

using uw_edge = edge<empty_weight>;
using uw_update = gbbs::dynamic::update<empty_weight>;

std::vector<uw_update> inserts(const std::vector<uw_edge>& edges) {
  std::vector<uw_update> ups;
  ups.reserve(edges.size());
  for (const auto& e : edges) {
    ups.push_back({e.u, e.v, {}, gbbs::dynamic::update_op::insert});
  }
  return ups;
}

template <typename G1, typename G2>
void expect_same_csr(const G1& a, const G2& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (vertex_id v = 0; v < a.num_vertices(); ++v) {
    auto na = a.out_neighbors(v);
    auto nb = b.out_neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "degree of " << v;
    for (std::size_t j = 0; j < na.size(); ++j) {
      ASSERT_EQ(na[j], nb[j]) << "neighbor " << j << " of " << v;
    }
  }
}

// ---- snapshot_store lifecycle ---------------------------------------------

TEST(SnapshotStore, EmptyStorePinIsNull) {
  snapshot_store<empty_weight> store;
  auto snap = store.pin();
  EXPECT_FALSE(snap);
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.live_versions(), 0u);
}

TEST(SnapshotStore, PinSeesLatestPublished) {
  snapshot_store<empty_weight> store;
  auto g1 = gbbs::build_symmetric_graph<empty_weight>(
      4, std::vector<uw_edge>{{0, 1, {}}});
  auto g2 = gbbs::build_symmetric_graph<empty_weight>(
      4, std::vector<uw_edge>{{0, 1, {}}, {1, 2, {}}});
  EXPECT_EQ(store.publish(g1, std::vector<vertex_id>{0, 0, 2, 3}), 1u);
  EXPECT_EQ(store.publish(g2, std::vector<vertex_id>{0, 0, 0, 3}), 2u);
  auto snap = store.pin();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap.version(), 2u);
  EXPECT_EQ(snap.view().num_edges(), 4u);
  EXPECT_EQ(snap.components().label(2), 0u);
  // v1's node had no hazard on it, so publishing v2 reclaimed it.
  EXPECT_EQ(store.live_versions(), 1u);
}

// Pins are self-contained shared handles: version nodes are reclaimed
// eagerly (live_versions collapses to the head), yet a held pin keeps
// reading its version's data — the arrays outlive the node.
TEST(SnapshotStore, PinnedDataSurvivesNodeReclamation) {
  snapshot_store<empty_weight> store;
  auto g1 = gbbs::build_symmetric_graph<empty_weight>(
      3, std::vector<uw_edge>{{0, 1, {}}});
  auto g2 = gbbs::build_symmetric_graph<empty_weight>(
      3, std::vector<uw_edge>{{0, 1, {}}, {1, 2, {}}});
  store.publish(g1, std::vector<vertex_id>{0, 0, 2});
  auto pin_a = store.pin();
  store.publish(g2, std::vector<vertex_id>{0, 0, 0});
  store.publish(g2, std::vector<vertex_id>{0, 0, 0});
  // Nodes of v1/v2 are gone (no pin-based retention), head remains.
  EXPECT_EQ(store.live_versions(), 1u);
  // The pin still owns v1's data outright.
  EXPECT_EQ(pin_a.version(), 1u);
  EXPECT_EQ(pin_a.view().num_edges(), 2u);
  EXPECT_EQ(pin_a.view().out_degree(2), 0u);
  EXPECT_FALSE(pin_a.components().connected(0, 2));
  pin_a.release();
  EXPECT_EQ(store.live_versions(), 1u);
}

// The satellite coverage: a pinned snapshot survives subsequent
// compact()/publish cycles unchanged and queries against it stay valid.
TEST(SnapshotManager, PinnedSnapshotSurvivesCompactAndPublishCycles) {
  const vertex_id n = 64;
  std::vector<uw_edge> prefix;
  for (vertex_id v = 0; v + 1 < 32; ++v) prefix.push_back({v, v + 1, {}});

  snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/0.25);
  mgr.ingest(inserts(prefix));
  mgr.publish();
  auto pinned = mgr.pin();
  ASSERT_TRUE(pinned);
  auto reference = gbbs::build_symmetric_graph<empty_weight>(n, prefix);
  expect_same_csr(pinned.view(), reference);
  const auto dist_before = gbbs::bfs(pinned.view(), 0);

  // Grind the writer: more batches, publishes, and hand-off compactions.
  parlib::random rng(7);
  for (int round = 0; round < 6; ++round) {
    std::vector<uw_edge> extra;
    for (int i = 0; i < 40; ++i) {
      extra.push_back({static_cast<vertex_id>(rng.ith_rand(2 * i) % n),
                       static_cast<vertex_id>(rng.ith_rand(2 * i + 1) % n),
                       {}});
    }
    rng = rng.next();
    mgr.ingest(inserts(extra));
    mgr.publish();
  }
  EXPECT_GT(mgr.num_compactions(), 0u);

  // The pinned version is bit-for-bit what it was, and queries still work.
  expect_same_csr(pinned.view(), reference);
  EXPECT_EQ(gbbs::bfs(pinned.view(), 0), dist_before);
  query q{query_kind::bfs_distance, 0, 31};
  EXPECT_EQ(execute_query(pinned, q).value, 31u);

  // Version nodes are reclaimed eagerly: only the head is resident even
  // while the old version stays pinned (the pin owns its data directly).
  EXPECT_EQ(mgr.store().live_versions(), 1u);
  pinned.release();
  mgr.store().collect();
  EXPECT_EQ(mgr.store().live_versions(), 1u);
}

// ---- query dispatch -------------------------------------------------------

TEST(Query, DispatchAllKinds) {
  // Triangle 0-1-2 plus a pendant 3; vertex 4 isolated.
  std::vector<uw_edge> edges{{0, 1, {}}, {1, 2, {}}, {0, 2, {}}, {2, 3, {}}};
  snapshot_manager<empty_weight> mgr(5);
  mgr.ingest(inserts(edges));
  mgr.publish();
  auto snap = mgr.pin();
  ASSERT_TRUE(snap);

  EXPECT_EQ(execute_query(snap, {query_kind::degree, 2, 0}).value, 3u);
  auto nb = execute_query(snap, {query_kind::neighbors, 0, 0});
  EXPECT_EQ(nb.list, (std::vector<vertex_id>{1, 2}));
  EXPECT_EQ(execute_query(snap, {query_kind::connected, 0, 3}).value, 1u);
  EXPECT_EQ(execute_query(snap, {query_kind::connected, 0, 4}).value, 0u);
  EXPECT_EQ(execute_query(snap, {query_kind::component, 0, 0}).value,
            execute_query(snap, {query_kind::component, 3, 0}).value);
  EXPECT_EQ(execute_query(snap, {query_kind::bfs_distance, 0, 3}).value, 2u);
  EXPECT_EQ(execute_query(snap, {query_kind::bfs_distance, 0, 4}).value,
            gbbs::kInfDist);
  EXPECT_EQ(execute_query(snap, {query_kind::kcore_max, 0, 0}).value, 2u);
  EXPECT_EQ(execute_query(snap, {query_kind::triangles, 0, 0}).value, 1u);

  // Vertices beyond the snapshot are isolated singletons.
  EXPECT_EQ(execute_query(snap, {query_kind::degree, 100, 0}).value, 0u);
  EXPECT_EQ(execute_query(snap, {query_kind::connected, 100, 100}).value, 1u);
  EXPECT_EQ(execute_query(snap, {query_kind::connected, 100, 0}).value, 0u);
  EXPECT_EQ(execute_query(snap, {query_kind::bfs_distance, 0, 100}).value,
            gbbs::kInfDist);
  EXPECT_EQ(execute_query(snap, {query_kind::component, 100, 0}).value, 100u);
}

TEST(QueryEngine, ServesSubmittedQueries) {
  std::vector<uw_edge> edges{{0, 1, {}}, {1, 2, {}}, {3, 4, {}}};
  snapshot_manager<empty_weight> mgr(5);
  mgr.ingest(inserts(edges));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), 2);

  auto f1 = engine.submit({query_kind::degree, 1, 0});
  auto f2 = engine.submit({query_kind::connected, 0, 2});
  auto f3 = engine.submit({query_kind::bfs_distance, 0, 2});
  auto r1 = f1.get();
  EXPECT_EQ(r1.value, 2u);
  EXPECT_EQ(r1.version, mgr.current_version());
  EXPECT_GE(r1.latency_s, 0.0);
  EXPECT_EQ(f2.get().value, 1u);
  EXPECT_EQ(f3.get().value, 2u);
  engine.drain();
  EXPECT_EQ(engine.completed(), 3u);
}

TEST(QueryEngine, SubmitAfterStopResolvesImmediately) {
  snapshot_manager<empty_weight> mgr(4);
  query_engine<empty_weight> engine(mgr.store(), 2);
  engine.stop();
  auto f = engine.submit({query_kind::degree, 0, 0});
  auto r = f.get();  // never stuck
  EXPECT_EQ(r.status, query_status::rejected);
  EXPECT_EQ(r.version, 0u);
  EXPECT_EQ(engine.dropped(), 1u);
}

// ---- overlay-served fresh point reads -------------------------------------
//
// The acceptance bullet: a point read issued after ingest() but *before*
// publish() observes the new edge via the delta-aware path, while the
// pinned (published) version still shows the old state.

TEST(OverlayView, PointReadsSeeUnpublishedIngest) {
  snapshot_manager<empty_weight> mgr(8);  // publishes v1 = empty graph
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}}));
  // No publish: the published head is still the empty graph...
  auto snap = mgr.pin();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap.view().num_edges(), 0u);
  EXPECT_EQ(execute_query(snap, {query_kind::degree, 1, 0}).value, 0u);

  // ...but the overlay index already serves the ingested edges.
  auto idx = mgr.overlay().read();
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->epoch, mgr.updates_ingested());
  EXPECT_EQ(idx->degree(1), 2u);
  EXPECT_EQ(idx->neighbors(1), (std::vector<vertex_id>{0, 2}));
  EXPECT_TRUE(idx->contains_edge(0, 1));
  EXPECT_FALSE(idx->contains_edge(0, 2));
  EXPECT_TRUE(idx->cc.connected(0, 2));
  EXPECT_FALSE(idx->cc.connected(0, 3));

  auto fresh = execute_fresh_query(idx, {query_kind::degree, 1, 0});
  EXPECT_EQ(fresh.value, 2u);
  EXPECT_GT(fresh.epoch, 0u);

  // After publish, the pinned path catches up and the two paths agree.
  mgr.publish();
  auto snap2 = mgr.pin();
  EXPECT_EQ(execute_query(snap2, {query_kind::degree, 1, 0}).value, 2u);
}

TEST(OverlayView, EngineRoutesAllKindsToFreshPath) {
  snapshot_manager<empty_weight> mgr(8);
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 2);
  mgr.ingest(inserts({{2, 3, {}}}));
  // Unpublished edge, visible through the engine's fresh path.
  auto fd = engine.submit({query_kind::degree, 2, 0});
  auto fn = engine.submit({query_kind::neighbors, 2, 0});
  auto fc = engine.submit({query_kind::connected, 2, 3});
  EXPECT_EQ(fd.get().value, 1u);
  EXPECT_EQ(fn.get().list, (std::vector<vertex_id>{3}));
  EXPECT_EQ(fc.get().value, 1u);
  // Traversal analytics match the point-read freshness: the unpublished
  // edge is traversed via the overlay-fused dynamic_view.
  auto fb = engine.submit({query_kind::bfs_distance, 2, 3});
  EXPECT_EQ(fb.get().value, 1u);
  // An explicitly-stale analytics query still executes against the
  // published (empty) version.
  query stale_bfs{query_kind::bfs_distance, 2, 3};
  stale_bfs.stale = true;
  auto fs = engine.submit(stale_bfs);
  EXPECT_EQ(fs.get().value, gbbs::kInfDist);
}

// Overlay reads stay correct across erases and across publish-point
// compaction handing the overlay off to a fresh shared base.
TEST(OverlayView, TracksErasesAndCompaction) {
  // threshold 0: publish compacts eagerly, so each publish folds the
  // overlay into a fresh shared base.
  snapshot_manager<empty_weight> mgr(6, /*compact_threshold=*/0.0);
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}, {3, 4, {}}}));
  mgr.publish();
  mgr.ingest({{1, 2, {}, gbbs::dynamic::update_op::erase}});
  auto idx = mgr.overlay().read();
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->degree(1), 1u);
  EXPECT_FALSE(idx->contains_edge(1, 2));
  EXPECT_EQ(idx->neighbors(1), (std::vector<vertex_id>{0}));
  // Erase triggered a connectivity rebuild + re-anchor; cc is exact.
  EXPECT_FALSE(idx->cc.connected(0, 2));
  EXPECT_TRUE(idx->cc.connected(3, 4));

  // Publish folds the overlay into a fresh shared base; the refreshed
  // index rebuilds against it and keeps answering.
  mgr.publish();
  auto idx2 = mgr.overlay().read();
  EXPECT_EQ(idx2->overlay_size(), 0u);
  EXPECT_EQ(idx2->degree(1), 1u);
  EXPECT_EQ(idx2->neighbors(0), (std::vector<vertex_id>{1}));
}

// ---- bounded submit queue -------------------------------------------------

TEST(QueryEngine, BoundedQueueRejectPolicyDropsAndCounts) {
  // One reader kept busy by BFS queries over a long path graph; a tiny
  // queue in reject mode must drop most of a large burst.
  const vertex_id n = 1u << 15;
  std::vector<uw_edge> path;
  path.reserve(n - 1);
  for (vertex_id v = 0; v + 1 < n; ++v) path.push_back({v, v + 1, {}});
  snapshot_manager<empty_weight> mgr(n);
  mgr.ingest(inserts(path));
  mgr.publish();

  gbbs::serve::query_engine_options opts;
  opts.max_queue = 4;
  opts.on_overflow = gbbs::serve::query_engine_options::overflow_policy::reject;
  query_engine<empty_weight> engine(mgr.store(), 1, opts);

  std::vector<std::future<query_result>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(engine.submit({query_kind::bfs_distance, 0, n - 1}));
  }
  std::size_t rejected = 0, served = 0;
  for (auto& f : futs) {
    auto r = f.get();  // every future resolves, dropped or not
    if (r.status == query_status::rejected) {
      ++rejected;
    } else {
      ++served;
      EXPECT_EQ(r.value, n - 1);
    }
  }
  EXPECT_EQ(rejected, engine.dropped());
  EXPECT_EQ(rejected + served, 64u);
  EXPECT_GT(rejected, 0u) << "a 64-burst into a 4-slot queue must drop";
  engine.drain();
  EXPECT_EQ(engine.completed(), served);
}

TEST(QueryEngine, BoundedQueueBlockPolicyServesEverything) {
  std::vector<uw_edge> edges{{0, 1, {}}, {1, 2, {}}};
  snapshot_manager<empty_weight> mgr(4);
  mgr.ingest(inserts(edges));
  mgr.publish();

  gbbs::serve::query_engine_options opts;
  opts.max_queue = 2;
  opts.on_overflow = gbbs::serve::query_engine_options::overflow_policy::block;
  query_engine<empty_weight> engine(mgr.store(), 1, opts);

  std::vector<std::future<query_result>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(engine.submit({query_kind::degree, 1, 0}));
  }
  for (auto& f : futs) {
    auto r = f.get();
    EXPECT_EQ(r.status, query_status::ok);
    EXPECT_EQ(r.value, 2u);
  }
  EXPECT_EQ(engine.dropped(), 0u);
  engine.drain();
  EXPECT_EQ(engine.completed(), 32u);
}

// ---- the acceptance test: consistency under concurrency -------------------
//
// A writer thread ingests an R-MAT stream batch by batch, publishing (and
// hand-off compacting) after every batch, while a 4-reader query engine
// executes a mixed query workload and two extra checker threads pin
// versions directly and audit their internal consistency. The writer
// retains one pin per published version, so after the run every engine
// result can be re-checked against the exact immutable version it was
// admitted to — any torn read, use-after-free, or overlay leak into a
// published CSR makes these comparisons fail (and TSan flag the race).

TEST(Serve, ConsistencyUnderConcurrentIngest) {
  const std::uint32_t scale = 10;
  const vertex_id n = vertex_id{1} << scale;
  auto full = gbbs::rmat_symmetric(scale, std::size_t{8} << scale, 42);
  auto stream_edges = gbbs::dynamic::undirected_stream_edges(full);
  const std::size_t batch_size = (stream_edges.size() + 15) / 16;

  snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/0.25);
  std::vector<pinned_snapshot<empty_weight>> retained;
  retained.push_back(mgr.pin());  // version 1: the empty graph
  // Undirected prefix length at each publish, indexed like `retained`.
  std::vector<std::size_t> prefix_at;
  prefix_at.push_back(0);

  {
    query_engine<empty_weight> engine(mgr.store(), 4);
    std::vector<std::pair<query, std::future<query_result>>> pending;

    // Checker threads: pin directly, concurrently with ingest, and audit
    // the pinned version's invariants (degree sum, partition vs. the
    // static connectivity of the same pinned CSR, version monotonicity).
    std::atomic<bool> ingest_done{false};
    auto checker = [&] {
      std::uint64_t last_version = 0;
      do {
        auto snap = mgr.pin();
        ASSERT_TRUE(snap);
        EXPECT_GE(snap.version(), last_version);
        last_version = snap.version();
        const auto& g = snap.view();
        std::uint64_t degree_sum = 0;
        for (vertex_id v = 0; v < g.num_vertices(); ++v) {
          degree_sum += g.out_degree(v);
        }
        EXPECT_EQ(degree_sum, g.num_edges()) << "torn CSR in version "
                                             << snap.version();
        EXPECT_TRUE(gbbs::same_partition(
            snap.components().materialize(g.num_vertices()),
            gbbs::connectivity(g)))
            << "stale/torn components in version " << snap.version();
      } while (!ingest_done.load(std::memory_order_acquire));
    };
    std::thread check_a(checker), check_b(checker);

    // Writer: ingest + publish per batch; submit a query burst after each
    // publish so readers execute against a moving version frontier.
    gbbs::dynamic::edge_stream<empty_weight> stream(stream_edges);
    parlib::random rng(123);
    std::size_t qi = 0;
    while (!stream.done()) {
      mgr.ingest(stream.next_inserts(batch_size));
      mgr.publish();
      retained.push_back(mgr.pin());
      prefix_at.push_back(stream.delivered());
      for (int k = 0; k < 24; ++k, ++qi) {
        const auto u = static_cast<vertex_id>(rng.ith_rand(3 * qi) % n);
        const auto v =
            static_cast<vertex_id>(rng.ith_rand(3 * qi + 1) % n);
        const std::uint64_t dice = rng.ith_rand(3 * qi + 2) % 100;
        query q;
        if (dice < 35) {
          q = {query_kind::degree, u, 0};
        } else if (dice < 55) {
          q = {query_kind::neighbors, u, 0};
        } else if (dice < 75) {
          q = {query_kind::connected, u, v};
        } else if (dice < 85) {
          q = {query_kind::component, u, 0};
        } else if (dice < 95) {
          q = {query_kind::bfs_distance, u, v};
        } else if (dice < 98) {
          q = {query_kind::kcore_max, 0, 0};
        } else {
          q = {query_kind::triangles, 0, 0};
        }
        pending.emplace_back(q, engine.submit(q));
      }
      rng = rng.next();
    }
    engine.drain();
    ingest_done.store(true, std::memory_order_release);
    check_a.join();
    check_b.join();

    // Post-hoc: every result equals the static algorithm on the retained
    // immutable version it was admitted against.
    std::map<std::uint64_t, const pinned_snapshot<empty_weight>*> by_version;
    for (const auto& p : retained) by_version[p.version()] = &p;
    struct version_expect {
      std::vector<vertex_id> cc_labels;
      std::uint64_t kcore_max = 0, triangles = 0;
      bool have_cc = false, have_kcore = false, have_tri = false;
    };
    std::map<std::uint64_t, version_expect> memo;

    for (auto& [q, fut] : pending) {
      query_result r = fut.get();
      auto it = by_version.find(r.version);
      ASSERT_NE(it, by_version.end())
          << "result admitted against unknown version " << r.version;
      const auto& snap = *it->second;
      const auto& g = snap.view();
      auto& exp = memo[r.version];
      switch (q.kind) {
        case query_kind::degree:
          EXPECT_EQ(r.value, q.u < g.num_vertices()
                                 ? g.out_degree(q.u)
                                 : 0u);
          break;
        case query_kind::neighbors: {
          std::vector<vertex_id> want;
          if (q.u < g.num_vertices()) {
            auto nghs = g.out_neighbors(q.u);
            want.assign(nghs.begin(), nghs.end());
          }
          EXPECT_EQ(r.list, want);
          break;
        }
        case query_kind::connected: {
          if (!exp.have_cc) {
            exp.cc_labels = gbbs::connectivity(g);
            exp.have_cc = true;
          }
          const bool want = exp.cc_labels[q.u] == exp.cc_labels[q.v];
          EXPECT_EQ(r.value, want ? 1u : 0u)
              << "connected(" << q.u << "," << q.v << ") @v" << r.version;
          break;
        }
        case query_kind::component:
          EXPECT_EQ(r.value, snap.components().label(q.u));
          break;
        case query_kind::bfs_distance:
          EXPECT_EQ(r.value, gbbs::bfs(g, q.u)[q.v])
              << "bfs(" << q.u << "->" << q.v << ") @v" << r.version;
          break;
        case query_kind::kcore_max:
          if (!exp.have_kcore) {
            exp.kcore_max = gbbs::kcore(g).max_core;
            exp.have_kcore = true;
          }
          EXPECT_EQ(r.value, exp.kcore_max);
          break;
        case query_kind::triangles:
          if (!exp.have_tri) {
            exp.triangles = gbbs::triangle_count(g);
            exp.have_tri = true;
          }
          EXPECT_EQ(r.value, exp.triangles);
          break;
        case query_kind::connectivity_refine:
        case query_kind::num_kinds:
          // Not generated by this test's mix.
          break;
      }
    }

    // Each retained version is exactly the stream prefix it was published
    // at (insert-only stream of deduped edges: m = 2 * prefix length).
    for (std::size_t i = 0; i < retained.size(); ++i) {
      EXPECT_EQ(retained[i].view().num_edges(), 2 * prefix_at[i])
          << "version " << retained[i].version();
    }
  }

  // Version nodes were reclaimed eagerly all along — the retained pins
  // own their data directly, independent of the store's node list.
  EXPECT_EQ(mgr.store().live_versions(), 1u);
  EXPECT_EQ(retained.front().view().num_edges(), 0u);  // v1: empty graph
  retained.clear();
  mgr.store().collect();
  EXPECT_EQ(mgr.store().live_versions(), 1u);
}

// Freshness of the default route: an unpublished shortcut edge is visible
// to analytics right away, even after a run of identical queries against
// the published version — the engine never answers from the published
// merged CSR unless asked (q.stale) or browned out.
TEST(QueryEngine, FreshAnalyticsSeeUnpublishedShortcut) {
  const vertex_id n = 10;
  snapshot_manager<empty_weight> mgr(n);
  std::vector<uw_edge> path;
  for (vertex_id u = 0; u + 1 < n; ++u) path.push_back({u, u + 1, {}});
  mgr.ingest(inserts(path));
  mgr.publish();

  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(),
                                    /*num_readers=*/2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(
        engine.submit({query_kind::bfs_distance, 0, n - 1, false})
            .get()
            .value,
        static_cast<std::uint64_t>(n - 1));
  }

  // Unpublished shortcut: fresh distance drops to 1; the published version
  // still says n-1, so serving from it would be visibly stale.
  mgr.ingest(inserts({{0, n - 1, {}}}));
  for (int i = 0; i < 10; ++i) {
    const auto r =
        engine.submit({query_kind::bfs_distance, 0, n - 1, false}).get();
    EXPECT_EQ(r.value, 1u) << "served a stale result";
    EXPECT_EQ(r.route, query_route::overlay);
  }
}

// The routing table (query_engine.h header), one row at a time, straight
// off select_view.
TEST(SelectView, RouteTable) {
  const vertex_id n = 16;
  snapshot_manager<empty_weight> mgr(n);
  std::vector<uw_edge> path;
  for (vertex_id u = 0; u + 1 < n; ++u) path.push_back({u, u + 1, {}});
  mgr.ingest(inserts(path));
  mgr.publish();
  mgr.ingest(inserts({{0, n - 1, {}}}));  // the published version lags by 1
  const std::uint64_t published = mgr.pin().updates_ingested();
  const std::uint64_t behind = mgr.updates_ingested() - published;
  ASSERT_EQ(behind, 1u);

  const query point{query_kind::degree, 0, 0};
  const query bfs{query_kind::bfs_distance, 0, n - 1};
  query stale_bfs = bfs;
  stale_bfs.stale = true;
  const overlay_view<empty_weight>* ov = &mgr.overlay();
  const auto plan = [&](const query& q, const overlay_view<empty_weight>* f,
                        int level, bool sub = false,
                        std::uint64_t bound = 1) {
    return select_view(q, f, mgr.store(), level, sub, bound);
  };

  // Overlay engine: point reads and analytics both read the overlay, at
  // its epoch.
  for (const query& q : {point, bfs}) {
    auto p = plan(q, ov, 0);
    ASSERT_TRUE(p);
    EXPECT_EQ(p.route, query_route::overlay);
    EXPECT_EQ(p.epoch, mgr.updates_ingested());
    EXPECT_EQ(execute_plan(std::move(p), q, nullptr).route,
              query_route::overlay);
  }
  EXPECT_EQ(execute_plan(plan(bfs, ov, 0), bfs, nullptr).value, 1u);

  // q.stale, and no overlay wired: the published version.
  const auto expect_pinned = [&](const query& q,
                                 const overlay_view<empty_weight>* f) {
    auto p = plan(q, f, 0);
    ASSERT_TRUE(p);
    EXPECT_EQ(p.route, query_route::pinned);
    EXPECT_EQ(p.epoch, published);
    const auto r = execute_plan(std::move(p), q, nullptr);
    EXPECT_EQ(r.route, query_route::pinned);
    EXPECT_EQ(r.value, n - 1u) << "pinned reads the published version";
  };
  expect_pinned(stale_bfs, ov);
  expect_pinned(bfs, nullptr);

  // Brownout level >= 1: analytics degrade while the published version is
  // within the staleness bound; beyond it, and for point reads and
  // standing-query re-evaluations, they stay on the overlay.
  for (int level : {1, 3}) {
    auto p = plan(bfs, ov, level, false, /*bound=*/behind);
    ASSERT_TRUE(p);
    EXPECT_EQ(p.route, query_route::degraded);
    EXPECT_EQ(p.staleness, behind);
    const auto r = execute_plan(std::move(p), bfs, nullptr);
    EXPECT_EQ(r.route, query_route::degraded);
    EXPECT_EQ(r.staleness, behind);
    EXPECT_EQ(r.value, n - 1u);
  }
  EXPECT_EQ(plan(bfs, ov, 1, false, /*bound=*/behind - 1).route,
            query_route::overlay);
  EXPECT_EQ(plan(point, ov, 1).route, query_route::overlay);
  EXPECT_EQ(plan(bfs, ov, 1, /*sub=*/true).route, query_route::overlay);
  EXPECT_EQ(plan(stale_bfs, ov, 1).route, query_route::pinned);

  // Nothing to pin: store.pin.fail resolves the pinned route unavailable.
  auto& fp = gbbs::robust::registry::instance();
  fp.configure("store.pin.fail", gbbs::robust::failpoint_mode::always);
  EXPECT_FALSE(plan(bfs, nullptr, 0));
  EXPECT_FALSE(plan(stale_bfs, ov, 0));
  EXPECT_EQ(plan(bfs, ov, 1).route, query_route::overlay)
      << "a failed degrade pin falls back to the overlay";
  fp.reset();
}

TEST(SelectView, ShardedRouteTable) {
  const vertex_id n = 16;
  sharded_snapshot_manager<empty_weight> mgr(
      n, {.num_shards = 2, .block_bits = 2});
  std::vector<uw_update> raw;
  for (vertex_id u = 0; u + 1 < n; ++u) {
    raw.push_back({u, u + 1, {}, gbbs::dynamic::update_op::insert});
  }
  mgr.ingest(std::move(raw));
  mgr.flush();
  const auto router = mgr.router();

  // Per-vertex point reads go to the owning shard's overlay.
  for (vertex_id u : {vertex_id{0}, vertex_id{5}, vertex_id{n - 1}}) {
    for (query_kind k : {query_kind::degree, query_kind::neighbors}) {
      const query q{k, u, 0};
      const auto* f = fresh_source<empty_weight>(q, nullptr, router);
      EXPECT_EQ(f, &router.owner(u));
      auto p = select_view(q, f, mgr.store(), 0, false, 0);
      ASSERT_TRUE(p);
      EXPECT_EQ(p.route, query_route::overlay);
    }
  }
  const query deg5{query_kind::degree, 5, 0};
  EXPECT_EQ(execute_plan(select_view(deg5, &router.owner(5), mgr.store(), 0,
                                     false, 0),
                         deg5, nullptr)
                .value,
            2u);

  // connected (and analytics) need the composite barrier: the latest
  // composite version, at its clock — under brownout too.
  for (const query& q : {query{query_kind::connected, 0, n - 1},
                         query{query_kind::bfs_distance, 0, n - 1}}) {
    const auto* f = fresh_source<empty_weight>(q, nullptr, router);
    EXPECT_EQ(f, nullptr);
    auto p = select_view(q, f, mgr.store(), /*degrade_level=*/1, false, 0);
    ASSERT_TRUE(p);
    EXPECT_EQ(p.route, query_route::pinned);
    ASSERT_NE(p.snap.composite(), nullptr);
    EXPECT_EQ(p.epoch, mgr.composite_clock());
  }
  const query conn{query_kind::connected, 0, n - 1};
  EXPECT_EQ(execute_plan(select_view<empty_weight>(conn, nullptr,
                                                   mgr.store(), 0, false, 0),
                         conn, nullptr)
                .value,
            1u);
}

// ---- inline point reads ----------------------------------------------------
//
// Point reads (degree / neighbors / connected / component) execute inside
// submit() on the calling thread; analytics and standing-query
// re-evaluations keep the reader pool. These tests arm failpoints
// themselves, so they come last: the reset would disarm an env-armed
// injection for the tests after them.

gbbs::robust::registry& fp() { return gbbs::robust::registry::instance(); }

// Spin until the named failpoint has fired `count` times (the thread that
// hit it is then inside the injected delay).
void await_triggers(const std::string& name, std::uint64_t count) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    std::uint64_t seen = 0;
    for (const auto& [n, c] : fp().trigger_counts()) {
      if (n == name) seen = c;
    }
    if (seen >= count) return;
    ASSERT_LT(std::chrono::steady_clock::now(), until)
        << name << " never fired";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

bool ready(const std::future<query_result>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

TEST(InlinePointReads, ReadyWhileTheOnlyReaderIsHeld) {
  fp().reset();
  snapshot_manager<empty_weight> mgr(8);
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}}));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1);

  // The delay fires once, on the analytics query, and holds the only
  // reader; the point read behind it must not wait.
  fp().configure("serve.exec.delay", gbbs::robust::failpoint_mode::always,
                 1.0, 0, /*arg_us=*/300000);
  auto fb = engine.submit({query_kind::bfs_distance, 0, 2});
  await_triggers("serve.exec.delay", 1);
  fp().configure("serve.exec.delay", gbbs::robust::failpoint_mode::off);
  auto fd = engine.submit({query_kind::degree, 1, 0});
  ASSERT_TRUE(ready(fd)) << "point read waited for the held reader";
  EXPECT_FALSE(ready(fb));
  const auto rd = fd.get();
  EXPECT_EQ(rd.status, query_status::ok);
  EXPECT_EQ(rd.value, 2u);
  EXPECT_EQ(rd.route, query_route::overlay);
  EXPECT_EQ(fb.get().value, 2u);
  engine.drain();
  EXPECT_EQ(engine.completed(), 2u);
  std::uint64_t fired = 0;
  for (const auto& [n, c] : fp().trigger_counts()) {
    if (n == "serve.exec.delay") fired = c;
  }
  EXPECT_EQ(fired, 1u);
  fp().reset();
}

// stop() returns only after every admitted query has finished, inline
// point reads still running on client threads included: the caller may
// destroy the store and overlay right after it.
TEST(InlinePointReads, StopWaitsForRunningInlineReads) {
  fp().reset();
  snapshot_manager<empty_weight> mgr(8);
  mgr.ingest(inserts({{0, 1, {}}}));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1);
  fp().configure("serve.exec.delay", gbbs::robust::failpoint_mode::always,
                 1.0, 0, /*arg_us=*/200000);
  std::thread client([&] {
    EXPECT_EQ(engine.submit({query_kind::degree, 0, 0}).get().value, 1u);
  });
  await_triggers("serve.exec.delay", 1);  // the read is mid-execution
  engine.stop();
  EXPECT_EQ(engine.completed(), 1u) << "stop() returned mid-read";
  client.join();
  fp().reset();
}

// An inline answer is exactly what its view plan gives: route, version,
// epoch and payload equal execute_plan(select_view(...)) on the same
// (quiescent) view, for every wiring the engine supports.
void expect_point_reads_match_plan(
    query_engine<empty_weight>& engine,
    const snapshot_store<empty_weight>& store,
    const overlay_view<empty_weight>* overlay,
    const gbbs::serve::shard_router<empty_weight>& router, vertex_id n) {
  for (const query_kind k : {query_kind::degree, query_kind::neighbors,
                             query_kind::connected, query_kind::component}) {
    for (vertex_id u = 0; u < n; u += 3) {
      const query q{k, u, (u * 7 + 1) % n};
      auto fut = engine.submit(q);
      ASSERT_TRUE(ready(fut));
      const query_result got = fut.get();
      const query_result want = execute_plan(
          select_view(q, gbbs::serve::fresh_source(q, overlay, router), store,
                      0, false, gbbs::serve::kDegradedStalenessBound),
          q, nullptr);
      ASSERT_EQ(got.status, query_status::ok);
      EXPECT_EQ(got.route, want.route) << query_kind_name(k) << " " << u;
      EXPECT_EQ(got.version, want.version) << query_kind_name(k) << " " << u;
      EXPECT_EQ(got.epoch, want.epoch) << query_kind_name(k) << " " << u;
      EXPECT_EQ(got.value, want.value) << query_kind_name(k) << " " << u;
      EXPECT_EQ(got.list, want.list) << query_kind_name(k) << " " << u;
    }
  }
}

TEST(InlinePointReads, AnswerEqualsTheirViewPlan) {
  const vertex_id n = 32;
  std::vector<uw_update> path;
  for (vertex_id u = 0; u + 1 < n / 2; ++u) {
    path.push_back({u, u + 1, {}, gbbs::dynamic::update_op::insert});
  }
  {
    // Overlay engine, with an unpublished batch so the overlay and the
    // published version differ; and the snapshot-only engine on the
    // same store.
    snapshot_manager<empty_weight> mgr(n);
    mgr.ingest(std::vector<uw_update>(path));
    mgr.publish();
    mgr.ingest(inserts({{0, n - 1, {}}, {n - 2, n - 1, {}}}));
    query_engine<empty_weight> fresh(mgr.store(), &mgr.overlay(), 1);
    expect_point_reads_match_plan(fresh, mgr.store(), &mgr.overlay(), {}, n);
    query_engine<empty_weight> pinned(mgr.store(), 1);
    expect_point_reads_match_plan(pinned, mgr.store(), nullptr, {}, n);
  }
  {
    gbbs::serve::sharded_snapshot_manager<empty_weight> mgr(
        n, {.num_shards = 2, .block_bits = 2});
    mgr.ingest(std::vector<uw_update>(path));
    mgr.flush();
    const auto router = mgr.router();
    query_engine<empty_weight> sharded(mgr.store(), router, 1);
    expect_point_reads_match_plan(sharded, mgr.store(), nullptr, router, n);
  }
}

// Stage accounting: an inline read never waits in the queue, so its
// kind's queue-wait histogram gets one sample of exactly 0 per read.
TEST(InlinePointReads, RecordZeroQueueWait) {
  snapshot_manager<empty_weight> mgr(8);
  mgr.ingest(inserts({{0, 1, {}}}));
  mgr.publish();
  const auto queue_wait = [] {
    for (const auto& [name, h] :
         gbbs::obs::registry::global().read().histograms) {
      if (name == "serve.query.queue_wait.degree") return h;
    }
    return gbbs::obs::histogram::summary{};
  };
  const auto before = queue_wait();
  constexpr std::uint64_t kReads = 20;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1);
  for (std::uint64_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(engine.submit({query_kind::degree, 0, 0}).get().value, 1u);
  }
  const auto after = queue_wait();
  EXPECT_EQ(after.count - before.count, kReads);
  EXPECT_EQ(after.sum_s, before.sum_s) << "an inline read waited";
  const auto stats =
      engine.latency_by_kind()[static_cast<std::size_t>(query_kind::degree)];
  EXPECT_EQ(stats.count, kReads);
  EXPECT_LT(stats.queue_p99_s, 1e-9);
}

TEST(InlinePointReads, BypassTheResultCache) {
  const vertex_id n = 64;
  snapshot_manager<empty_weight> mgr(n);
  gbbs::serve::result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}}));
  mgr.publish();

  const std::uint64_t h0 = cache.hits();
  const std::uint64_t m0 = cache.misses();
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(engine.submit({query_kind::degree, 1, 0}).get().value, 2u);
    EXPECT_EQ(engine.submit({query_kind::neighbors, 1, 0}).get().list,
              (std::vector<vertex_id>{0, 2}));
    EXPECT_EQ(engine.submit({query_kind::connected, 0, 2}).get().value, 1u);
    EXPECT_EQ(engine.submit({query_kind::component, 2, 0}).get().status,
              query_status::ok);
  }
  EXPECT_EQ(cache.hits(), h0);
  EXPECT_EQ(cache.misses(), m0);
  EXPECT_EQ(cache.entries(), 0u);
}

// The admission rule is the analytics one, minus brownout shedding:
// rejected after stop(), by the saturate failpoint and by a hard-full
// queue (though a point read takes no slot), never shed at brownout
// level 3, and its submit still ticks the ladder.
TEST(InlinePointReads, KeepTheAdmissionRule) {
  fp().reset();
  const vertex_id n = 64;
  snapshot_manager<empty_weight> mgr(n);
  std::vector<uw_edge> path;
  for (vertex_id u = 0; u + 1 < n; ++u) path.push_back({u, u + 1, {}});
  mgr.ingest(inserts(path));
  mgr.publish();
  const query point{query_kind::degree, 1, 0};
  const query bfs{query_kind::bfs_distance, 0, n - 1};

  // Hold the only reader on one analytics query, then disarm.
  const auto hold_reader = [](query_engine<empty_weight>& engine,
                              const query& q) {
    fp().reset();
    fp().configure("serve.exec.delay", gbbs::robust::failpoint_mode::always,
                   1.0, 0, /*arg_us=*/300000);
    auto f = engine.submit(q);
    await_triggers("serve.exec.delay", 1);
    fp().configure("serve.exec.delay", gbbs::robust::failpoint_mode::off);
    return f;
  };

  {  // Saturate failpoint, then a hard-full queue (reject policy).
    query_engine_options opts;
    opts.max_queue = 2;
    query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);
    fp().configure("serve.submit.saturate",
                   gbbs::robust::failpoint_mode::always);
    EXPECT_EQ(engine.submit(point).get().status, query_status::rejected);
    EXPECT_EQ(engine.dropped(), 1u);
    fp().reset();

    auto held = hold_reader(engine, bfs);
    auto q1 = engine.submit(bfs);
    auto q2 = engine.submit(bfs);  // the queue is now hard-full
    auto fp_full = engine.submit(point);
    ASSERT_TRUE(ready(fp_full));
    EXPECT_EQ(fp_full.get().status, query_status::rejected);
    EXPECT_EQ(engine.dropped(), 2u);
    for (auto* f : {&held, &q1, &q2}) EXPECT_EQ(f->get().value, n - 1);
    EXPECT_EQ(engine.submit(point).get().status, query_status::ok);
    engine.drain();
    EXPECT_EQ(engine.completed(), 4u);

    // After stop(): rejected at once, not counted as completed.
    engine.stop();
    auto late = engine.submit(point);
    ASSERT_TRUE(ready(late));
    EXPECT_EQ(late.get().status, query_status::rejected);
    EXPECT_EQ(engine.dropped(), 3u);
    EXPECT_EQ(engine.completed(), 4u);
  }

  {  // Block policy: a point read waits for queue space like analytics.
    query_engine_options opts;
    opts.max_queue = 1;
    opts.on_overflow = query_engine_options::overflow_policy::block;
    query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);
    auto held = hold_reader(engine, bfs);
    auto queued = engine.submit(bfs);  // fills the one slot
    std::atomic<bool> returned{false};
    std::thread client([&] {
      EXPECT_EQ(engine.submit(point).get().value, 2u);
      returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load()) << "point read skipped the block policy";
    client.join();
    EXPECT_EQ(held.get().value, n - 1);
    EXPECT_EQ(queued.get().value, n - 1);
    EXPECT_EQ(engine.dropped(), 0u);
  }

  {  // Brownout level 3: analytics shed, point reads served fresh.
    query_engine_options opts;
    opts.max_queue = 8;  // rungs at depths 2 / 4 / 6
    opts.brownout = true;
    query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);
    std::vector<std::future<query_result>> analytics;
    analytics.push_back(hold_reader(engine, bfs));
    for (int i = 0; i < 6; ++i) analytics.push_back(engine.submit(bfs));
    EXPECT_EQ(engine.degrade_level(), 2);
    // This submit sees depth 6: the ladder steps to 3 on a point read.
    auto fd = engine.submit(point);
    ASSERT_TRUE(ready(fd));
    EXPECT_EQ(engine.degrade_level(), 3);
    const auto rd = fd.get();
    EXPECT_EQ(rd.status, query_status::ok);
    EXPECT_EQ(rd.value, 2u);
    EXPECT_EQ(rd.route, query_route::overlay);
    EXPECT_EQ(engine.submit(bfs).get().status, query_status::rejected);
    EXPECT_EQ(engine.shed(), 1u);
    for (auto& f : analytics) EXPECT_EQ(f.get().status, query_status::ok);
  }
  fp().reset();
}

}  // namespace

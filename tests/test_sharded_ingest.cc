// Tests for the multi-writer sharded ingest path (serve/sharded_ingest.h):
//   * split_batch's double-booking invariant — every update lands on
//     owner(u)'s shard, cross-shard edges appear on both endpoint shards,
//     and nothing is lost or duplicated within a shard;
//   * cross-shard consistency — randomized mixed insert/erase schedules
//     over 1/2/4 shards produce, at every flushed version, exactly the
//     same graph, component partition, and point-read answers as the
//     single-writer snapshot_manager fed the identical update stream;
//   * the composite version clock under a straggling shard — with the
//     ingest.shard.apply.delay failpoint pinning one of two shards, a
//     publish() while the straggler lags must re-publish the old clock
//     value (never a composite containing a batch some shard has not
//     applied), and flush() must then surface everything;
//   * the seeded constructor — a symmetric seed splits into the shards
//     with the seed as the composite, and a directed seed throws;
//   * ingest vs. concurrent readers (the TSan target): shard workers
//     applying and refreshing their overlays while reader threads
//     pin composite versions, traverse them, and route point reads
//     through a query_engine with the shard router.
#include <atomic>
#include <cstdint>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/connectivity.h"
#include "dynamic/shard_partition.h"
#include "dynamic/update_batch.h"
#include "graph/generators.h"
#include "parlib/random.h"
#include "robust/failpoint.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/sharded_ingest.h"
#include "serve/snapshot_manager.h"

namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::dynamic::shard_partition;
using gbbs::dynamic::update_op;
using gbbs::serve::query_engine;
using gbbs::serve::query_kind;
using gbbs::serve::query_result;
using gbbs::serve::sharded_snapshot_manager;
using gbbs::serve::snapshot_manager;

using uw_update = gbbs::dynamic::update<empty_weight>;

// A deterministic mixed schedule: per batch, random inserts over n
// vertices plus (once past the warmup batches) erases sampled from edges
// inserted earlier — the same raw vectors go to every manager under test.
std::vector<std::vector<uw_update>> make_schedule(vertex_id n,
                                                  std::size_t num_batches,
                                                  std::size_t batch_size,
                                                  std::uint64_t seed) {
  parlib::random rng(seed);
  std::vector<std::vector<uw_update>> schedule;
  std::vector<std::pair<vertex_id, vertex_id>> inserted;
  std::size_t k = 0;
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<uw_update> raw;
    for (std::size_t i = 0; i < batch_size; ++i, ++k) {
      const auto u = static_cast<vertex_id>(rng.ith_rand(2 * k) % n);
      const auto v = static_cast<vertex_id>(rng.ith_rand(2 * k + 1) % n);
      if (u == v) continue;
      raw.push_back({u, v, {}, update_op::insert});
      inserted.emplace_back(u, v);
    }
    if (b >= 2 && !inserted.empty()) {
      for (std::size_t i = 0; i < batch_size / 4; ++i, ++k) {
        const auto& e = inserted[rng.ith_rand(2 * k) % inserted.size()];
        raw.push_back({e.first, e.second, {}, update_op::erase});
      }
    }
    schedule.push_back(std::move(raw));
  }
  return schedule;
}

void expect_same_csr(const gbbs::graph<empty_weight>& a,
                     const gbbs::graph<empty_weight>& b) {
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

// ---- split_batch ----------------------------------------------------------

TEST(ShardPartition, SplitBatchDoubleBooking) {
  const vertex_id n = 64;
  parlib::random rng(7);
  std::vector<uw_update> raw;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto u = static_cast<vertex_id>(rng.ith_rand(2 * i) % n);
    const auto v = static_cast<vertex_id>(rng.ith_rand(2 * i + 1) % n);
    if (u != v) raw.push_back({u, v, {}, update_op::insert});
  }
  auto batch = gbbs::dynamic::make_batch(std::move(raw), /*mirror=*/true);
  shard_partition part(4, /*block_bits=*/2);
  auto subs = gbbs::dynamic::split_batch(batch, part);
  ASSERT_EQ(subs.size(), 4u);

  std::size_t total = 0;
  std::set<std::pair<vertex_id, vertex_id>> seen;
  for (std::size_t s = 0; s < subs.size(); ++s) {
    EXPECT_EQ(subs[s].max_vertex, batch.max_vertex);
    for (const auto& up : subs[s].updates) {
      // Ownership: every update on shard s belongs to it.
      EXPECT_EQ(part.owner(up.u), s);
      seen.emplace(up.u, up.v);
    }
    total += subs[s].updates.size();
  }
  // Nothing lost, nothing duplicated: the shards partition the batch.
  EXPECT_EQ(total, batch.updates.size());
  EXPECT_EQ(seen.size(), batch.updates.size());
  // Double-booking: the mirrored batch carries (u, v) and (v, u), so each
  // undirected edge is present on owner(u)'s and owner(v)'s shard.
  for (const auto& up : batch.updates) {
    EXPECT_TRUE(seen.count({up.u, up.v}));
    EXPECT_TRUE(seen.count({up.v, up.u}));
  }
}

// ---- cross-shard consistency ---------------------------------------------

TEST(ShardedIngest, MatchesSingleShardReference) {
  const vertex_id n = 300;
  const auto schedule = make_schedule(n, /*num_batches=*/8,
                                      /*batch_size=*/256, /*seed=*/11);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2},
                             std::size_t{4}}) {
    snapshot_manager<empty_weight> ref(n);
    sharded_snapshot_manager<empty_weight> mgr(
        n, {.num_shards = shards, .block_bits = 3});
    for (const auto& raw : schedule) {
      ref.ingest(std::vector<uw_update>(raw));
      ref.publish();
      mgr.ingest(std::vector<uw_update>(raw));
      mgr.flush();

      auto rsnap = ref.pin();
      auto snap = mgr.pin();
      ASSERT_TRUE(snap);
      // Identical graph at every composite version...
      expect_same_csr(snap.view(), rsnap.view());
      // ...the unmaterialized stitched view routes to the same rows...
      gbbs::serve::composite_view<empty_weight> cv(snap.composite_handle());
      ASSERT_EQ(cv.num_edges(), snap.view().num_edges());
      for (vertex_id v = 0; v < n; ++v) {
        auto nb = rsnap.view().out_neighbors(v);
        ASSERT_EQ(cv.out_degree(v), nb.size()) << "degree of " << v;
        std::size_t j = 0;
        bool ordered = true;
        cv.map_out_neighbors(v, [&](vertex_id, vertex_id ngh, empty_weight) {
          if (j >= nb.size() || nb[j] != ngh) ordered = false;
          ++j;
        });
        ASSERT_TRUE(ordered) << "row of " << v;
      }
      // ...and the barrier-merged components match the reference
      // partition (both checked against a static traversal).
      const auto labels =
          snap.components().materialize(snap.num_vertices());
      EXPECT_TRUE(gbbs::same_partition(
          labels, rsnap.components().materialize(rsnap.num_vertices())));
      EXPECT_TRUE(gbbs::same_partition(labels,
                                       gbbs::connectivity(snap.view())));
    }

    // Point reads through the engine's shard router agree with the
    // reference CSR (after flush, shard-apply freshness == composite).
    auto rsnap = ref.pin();
    query_engine<empty_weight> eng(mgr.store(), mgr.router(), 2);
    for (vertex_id v = 0; v < n; v += 17) {
      auto deg = eng.submit({query_kind::degree, v, 0}).get();
      ASSERT_EQ(deg.status, gbbs::serve::query_status::ok);
      EXPECT_EQ(deg.value, rsnap.view().out_neighbors(v).size());
      auto nbr = eng.submit({query_kind::neighbors, v, 0}).get();
      auto nb = rsnap.view().out_neighbors(v);
      ASSERT_EQ(nbr.list.size(), nb.size());
      for (std::size_t j = 0; j < nb.size(); ++j) {
        EXPECT_EQ(nbr.list[j], nb[j]);
      }
    }
  }
}

TEST(ShardedIngest, EmptySlicesGrowInLockstep) {
  // A batch touching only high vertex ids grows *every* shard's vertex
  // set (empty sub-batches still carry max_vertex), keeping n consistent
  // across the stitched composite.
  sharded_snapshot_manager<empty_weight> mgr(
      8, {.num_shards = 4, .block_bits = 1});
  std::vector<uw_update> raw;
  raw.push_back({100, 101, {}, update_op::insert});
  mgr.ingest(std::move(raw));
  mgr.flush();
  auto snap = mgr.pin();
  EXPECT_EQ(snap.num_vertices(), 102u);
  for (std::size_t s = 0; s < mgr.num_shards(); ++s) {
    auto idx = mgr.shard_overlay(s).read();
    ASSERT_TRUE(idx != nullptr);
    EXPECT_EQ(idx->n, 102u);
  }
}

TEST(ShardedIngest, SeedSplitsAcrossShards) {
  // A symmetric seed is split by row owner; the composite is the seed.
  const auto seed = gbbs::rmat_symmetric(7, 1024, 3);
  sharded_snapshot_manager<empty_weight> mgr(
      seed, {.num_shards = 2, .block_bits = 3});
  auto snap = mgr.pin();
  ASSERT_TRUE(snap);
  expect_same_csr(snap.view(), seed);
}

TEST(ShardedIngest, DirectedSeedThrows) {
  // The sharded path is symmetric-only: split_seed would hand each shard a
  // directed CSR with no in-side, which the first in_degree reads past.
  auto seed = gbbs::rmat_directed(7, 1024, 3);
  ASSERT_FALSE(seed.symmetric());
  EXPECT_THROW((sharded_snapshot_manager<empty_weight>(
                   std::move(seed), {.num_shards = 2, .block_bits = 3})),
               std::invalid_argument);
}

// ---- straggler shard vs the composite clock ------------------------------

TEST(ShardedIngest, StragglerNeverPublishesEarly) {
  auto& freg = gbbs::robust::registry::instance();
  freg.reset();
  freg.set_seed(3);
  // Exactly one of the two per-batch shard applies (whichever hits the
  // point second) sleeps 200ms — a deterministic straggler.
  freg.configure("ingest.shard.apply.delay",
                 gbbs::robust::failpoint_mode::every_nth, 0, 2, 200000);

  {
    sharded_snapshot_manager<empty_weight> mgr(
        64, {.num_shards = 2, .block_bits = 2});
    EXPECT_EQ(mgr.composite_clock(), 0u);
    std::vector<uw_update> raw;
    for (vertex_id i = 0; i + 1 < 64; ++i) {
      raw.push_back({i, i + 1, {}, update_op::insert});
    }
    mgr.ingest(std::move(raw));

    // Wait for the fast shard's overlay to cover batch 1 while the
    // straggler still holds the clock at 0.
    bool window = false;
    for (int spin = 0; spin < 4000; ++spin) {
      const bool one_applied = mgr.shard_overlay(0).epoch() >= 1 ||
                               mgr.shard_overlay(1).epoch() >= 1;
      if (one_applied) {
        window = mgr.applied_version() == 0;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(window) << "straggler window not observed";

    // Publishing inside the window must not surface batch 1: the clock's
    // minimum is still 0, so the composite re-publishes clock 0.
    mgr.publish();
    EXPECT_EQ(mgr.composite_clock(), 0u);
    {
      auto snap = mgr.pin();
      EXPECT_EQ(snap.view().num_edges(), 0u);
    }
    // Guard against the straggler finishing between the checks above: the
    // window assertion is only meaningful if the clock was still 0 when
    // publish() ran. (The 200ms sleep makes this overwhelmingly likely;
    // if the host stalled that long, re-check rather than fail falsely.)
    if (mgr.applied_version() == 0) {
      EXPECT_EQ(mgr.pin().view().num_edges(), 0u);
    }

    // flush() waits the straggler out and surfaces everything.
    mgr.flush();
    EXPECT_EQ(mgr.composite_clock(), 1u);
    auto snap = mgr.pin();
    EXPECT_EQ(snap.view().num_edges(), 126u);
    EXPECT_TRUE(gbbs::same_partition(
        snap.components().materialize(snap.num_vertices()),
        gbbs::connectivity(snap.view())));
  }
  freg.reset();
}

// ---- ingest vs concurrent readers (TSan target) --------------------------

TEST(ShardedIngest, ConcurrentReadersDuringIngest) {
  const vertex_id n = 256;
  const auto schedule = make_schedule(n, /*num_batches=*/6,
                                      /*batch_size=*/256, /*seed=*/23);
  snapshot_manager<empty_weight> ref(n);
  sharded_snapshot_manager<empty_weight> mgr(
      n, {.num_shards = 2, .block_bits = 3});
  query_engine<empty_weight> eng(mgr.store(), mgr.router(), 2);

  std::atomic<bool> done{false};
  // Pin-and-traverse readers: composite versions must always be
  // internally consistent (stitched m matches the materialized CSR, the
  // component partition matches a static traversal of the same version).
  std::thread pinner([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto snap = mgr.pin();
      if (!snap) continue;
      const auto& view = snap.view();
      EXPECT_EQ(view.num_edges() % 2, 0u);
      EXPECT_TRUE(gbbs::same_partition(
          snap.components().materialize(snap.num_vertices()),
          gbbs::connectivity(view)));
    }
  });
  // Router readers: inline point reads against the owner shard's
  // overlay while that shard's worker applies and refreshes.
  std::thread router_reader([&] {
    parlib::random rng(41);
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto v = static_cast<vertex_id>(rng.ith_rand(i++) % n);
      auto deg = eng.submit({query_kind::degree, v, 0}).get();
      EXPECT_EQ(deg.status, gbbs::serve::query_status::ok);
    }
  });

  for (const auto& raw : schedule) {
    ref.ingest(std::vector<uw_update>(raw));
    ref.publish();
    mgr.ingest(std::vector<uw_update>(raw));
    mgr.publish();
  }
  mgr.flush();
  done.store(true, std::memory_order_release);
  pinner.join();
  router_reader.join();

  expect_same_csr(mgr.pin().view(), ref.pin().view());
}

}  // namespace

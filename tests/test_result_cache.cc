// Tests for the bucket-keyed result cache + standing queries
// (src/serve/result_cache.h, read_set.h, query_engine.h subscribe()):
//   * bucket_set / read_set_recorder semantics (all-flag, intersects,
//     merge, enumeration);
//   * the acceptance equality: under randomized mixed insert/erase
//     schedules, every query kind served with the cache on is
//     bit-identical to the same query with the cache off — first
//     evaluation (miss path) and repeat (hit path) alike (point reads
//     bypass the cache, so for them both are inline re-executions);
//   * invalidation precision, counter-verified: a batch touching a cached
//     query's read-set provably evicts the entry, a bucket-disjoint batch
//     provably does not; a remote merge triggers a connectivity watch;
//   * standing queries: subscription delivery on intersecting batches
//     only, trigger coalescing, the bounded drop-oldest channel, and
//     channel close at engine stop;
//   * the sharded ingest path: pre-apply invalidation at the batch clock,
//     delta notification at the composite publish;
//   * a writer-vs-readers stress with the cache and a subscription live
//     (the TSan job runs this binary).
#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/stream.h"
#include "graph/generators.h"
#include "parlib/random.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/read_set.h"
#include "serve/result_cache.h"
#include "serve/sharded_ingest.h"
#include "serve/snapshot_manager.h"

namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::serve::bucket_set;
using gbbs::serve::cache_bucket_of;
using gbbs::serve::query;
using gbbs::serve::query_engine;
using gbbs::serve::query_engine_options;
using gbbs::serve::query_kind;
using gbbs::serve::query_result;
using gbbs::serve::query_status;
using gbbs::serve::read_set_recorder;
using gbbs::serve::result_cache;
using gbbs::serve::snapshot_manager;

using uw_update = gbbs::dynamic::update<empty_weight>;

std::vector<uw_update> make_updates(
    const std::vector<std::pair<vertex_id, vertex_id>>& pairs,
    gbbs::dynamic::update_op op = gbbs::dynamic::update_op::insert) {
  std::vector<uw_update> ups;
  ups.reserve(pairs.size());
  for (const auto& [u, v] : pairs) ups.push_back({u, v, {}, op});
  return ups;
}

// A vertex (starting from `from`, wrapping mod n) whose cache bucket
// differs from every bucket in `avoid`.
vertex_id vertex_outside(const bucket_set& avoid, vertex_id from,
                         vertex_id n) {
  vertex_id w = from % n;
  while (avoid.test(cache_bucket_of(w))) w = (w + 1) % n;
  return w;
}

// ---- bucket_set / read_set_recorder ---------------------------------------

TEST(BucketSet, BasicsAndAllFlag) {
  bucket_set a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  a.add_vertex(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.count(), 1u);
  EXPECT_TRUE(a.test(cache_bucket_of(7)));

  bucket_set all;
  all.set_all();
  EXPECT_TRUE(all.all());
  EXPECT_FALSE(all.empty());
  EXPECT_EQ(all.count(), gbbs::serve::kCacheBuckets);
  // The universe intersects anything non-empty, including itself.
  EXPECT_TRUE(all.intersects(a));
  EXPECT_TRUE(a.intersects(all));
  EXPECT_TRUE(all.intersects(all));
  bucket_set none;
  EXPECT_FALSE(all.intersects(none));
  EXPECT_FALSE(none.intersects(all));
}

TEST(BucketSet, IntersectsAndMerge) {
  bucket_set a, b;
  a.add(3);
  a.add(100);
  b.add(4);
  EXPECT_FALSE(a.intersects(b));
  b.add(100);
  EXPECT_TRUE(a.intersects(b));

  bucket_set m;
  m.merge(a);
  m.merge(b);
  EXPECT_EQ(m.count(), 3u);  // {3, 4, 100}
  std::vector<std::size_t> seen;
  m.for_each([&](std::size_t bk) { seen.push_back(bk); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 4, 100}));
}

TEST(ReadSetRecorder, SnapshotMatchesRecords) {
  read_set_recorder rec;
  rec.record(1);
  rec.record(2);
  rec.record(1);  // idempotent
  const bucket_set s = rec.snapshot();
  EXPECT_TRUE(s.test(cache_bucket_of(1)));
  EXPECT_TRUE(s.test(cache_bucket_of(2)));
  EXPECT_FALSE(s.all());

  read_set_recorder rec_all;
  rec_all.record(5);
  rec_all.record_all();
  EXPECT_TRUE(rec_all.snapshot().all());
}

// ---- cached vs fresh equality ---------------------------------------------

// The acceptance suite: one engine with the cache, one without, over the
// same manager. Under a randomized mixed insert/erase schedule, every
// kind's result must be identical across (no-cache, cache-miss,
// cache-hit) — queries run one at a time against a quiescent graph, so
// any mismatch is the cache serving a wrong or stale entry.
TEST(ResultCache, CachedVsFreshEqualityAllKinds) {
  const vertex_id n = 256;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);

  query_engine_options copts;
  copts.cache = &cache;
  query_engine<empty_weight> cached(mgr.store(), &mgr.overlay(), 2, copts);
  query_engine<empty_weight> plain(mgr.store(), &mgr.overlay(), 2);

  const std::vector<query_kind> kinds = {
      query_kind::degree,       query_kind::neighbors,
      query_kind::connected,    query_kind::component,
      query_kind::bfs_distance, query_kind::kcore_max,
      query_kind::triangles,    query_kind::connectivity_refine};

  parlib::random rng(7);
  std::size_t r = 0;
  for (std::size_t step = 0; step < 12; ++step) {
    // Mixed batch: mostly inserts, a growing share of erases of edges
    // that may or may not exist (erase of an absent edge is a no-op).
    std::vector<uw_update> ups;
    for (std::size_t i = 0; i < 96; ++i, ++r) {
      const auto u = static_cast<vertex_id>(rng.ith_rand(3 * r) % n);
      const auto v = static_cast<vertex_id>(rng.ith_rand(3 * r + 1) % n);
      if (u == v) continue;
      const bool erase = step > 2 && rng.ith_rand(3 * r + 2) % 4 == 0;
      ups.push_back({u, v, {},
                     erase ? gbbs::dynamic::update_op::erase
                           : gbbs::dynamic::update_op::insert});
    }
    mgr.ingest(std::move(ups));
    mgr.publish();

    for (const query_kind k : kinds) {
      query q;
      q.kind = k;
      q.u = static_cast<vertex_id>(rng.ith_rand(1000 + 2 * step) % n);
      q.v = static_cast<vertex_id>(rng.ith_rand(1001 + 2 * step) % n);
      const query_result ref = plain.submit(q).get();
      const query_result miss = cached.submit(q).get();
      const query_result hit = cached.submit(q).get();
      ASSERT_EQ(ref.status, query_status::ok);
      for (const query_result* got : {&miss, &hit}) {
        EXPECT_EQ(got->status, ref.status) << query_kind_name(k);
        EXPECT_EQ(got->value, ref.value) << query_kind_name(k);
        EXPECT_EQ(got->list, ref.list) << query_kind_name(k);
      }
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

// ---- invalidation precision -----------------------------------------------

// Edges for a small component plus a long path over [tail_from, n): the
// path keeps a traversal of the component in sparse rounds (a dense round
// would read every row, and so would every read-set).
std::vector<std::pair<vertex_id, vertex_id>> component_and_tail(
    std::vector<std::pair<vertex_id, vertex_id>> component,
    vertex_id tail_from, vertex_id n) {
  for (vertex_id v = tail_from; v + 1 < n; ++v) component.push_back({v, v + 1});
  return component;
}

// Counter-verified precision on a bfs_distance inside a small component
// (read-set = the buckets of the three rows it reads): a bucket-disjoint
// batch must keep the entry hot (hit, no invalidation delta), a batch
// touching the read-set must evict it (miss, invalidation +1). Point reads
// are not cached, so an analytics query carries the check. Counters are
// registry-global, so all assertions are deltas.
TEST(ResultCache, InvalidationPrecision) {
  const vertex_id n = 512;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);

  const vertex_id a = 10, b = 20, c = 30;
  mgr.ingest(make_updates(component_and_tail({{a, b}, {b, c}}, 256, n)));
  mgr.publish();

  const query qa{query_kind::bfs_distance, a, c};
  bucket_set qa_reads;
  for (const vertex_id v : {a, b, c}) qa_reads.add_vertex(v);

  // Prime: first evaluation misses and caches the entry.
  const std::uint64_t m0 = cache.misses();
  EXPECT_EQ(engine.submit(qa).get().value, 2u);
  EXPECT_EQ(cache.misses(), m0 + 1);

  // Disjoint batch: neither endpoint (nor its mirror) lands in a bucket
  // the traversal read.
  const vertex_id w = vertex_outside(qa_reads, a + 1, n);
  const vertex_id x = vertex_outside(qa_reads, w + 1, n);
  mgr.ingest(make_updates({{w, x}}));
  mgr.publish();
  {
    const std::uint64_t h0 = cache.hits();
    const std::uint64_t inv0 = cache.invalidations();
    EXPECT_EQ(engine.submit(qa).get().value, 2u);
    EXPECT_EQ(cache.hits(), h0 + 1) << "disjoint batch must keep the entry";
    EXPECT_EQ(cache.invalidations(), inv0);
  }

  // Touching batch: (a, c) touches bucket(a) — the entry must go, and the
  // re-evaluation must see the new distance.
  mgr.ingest(make_updates({{a, c}}));
  mgr.publish();
  {
    const std::uint64_t h0 = cache.hits();
    const std::uint64_t m1 = cache.misses();
    const std::uint64_t inv0 = cache.invalidations();
    EXPECT_EQ(engine.submit(qa).get().value, 1u);
    EXPECT_EQ(cache.hits(), h0);
    EXPECT_EQ(cache.misses(), m1 + 1);
    EXPECT_EQ(cache.invalidations(), inv0 + 1);
  }
}

// Whole-graph analytics depend on edges anywhere (all-buckets read-set):
// *any* batch invalidates them — never a stale hit.
TEST(ResultCache, WholeGraphEntriesInvalidatedByAnyBatch) {
  const vertex_id n = 128;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);

  mgr.ingest(make_updates({{0, 1}, {1, 2}, {2, 0}, {3, 4}}));
  mgr.publish();

  const query qt{query_kind::triangles, 0, 0};
  EXPECT_EQ(engine.submit(qt).get().value, 1u);
  {
    const std::uint64_t h0 = cache.hits();
    EXPECT_EQ(engine.submit(qt).get().value, 1u);  // repeat: hit
    EXPECT_EQ(cache.hits(), h0 + 1);
  }
  mgr.ingest(make_updates({{100, 101}}));  // far from the triangle
  mgr.publish();
  {
    const std::uint64_t h0 = cache.hits();
    EXPECT_EQ(engine.submit(qt).get().value, 1u);
    EXPECT_EQ(cache.hits(), h0) << "all-bucket entry must not survive";
  }
}

// A connectivity answer can change without either endpoint's bucket being
// touched (a remote edge merges their components), so connected/component
// read-sets are all-buckets — this is the scenario that makes the
// conservative choice load-bearing. Point reads are not cached; the
// read-set is a standing query's trigger set, so a subscription must
// re-evaluate on the remote merge.
TEST(ResultCache, ConnectedInvalidatedByRemoteMerge) {
  const vertex_id n = 64;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);

  // 0-1  and  2-3 are separate components.
  mgr.ingest(make_updates({{0, 1}, {2, 3}}));
  mgr.publish();
  const query qc{query_kind::connected, 0, 3};
  EXPECT_EQ(engine.submit(qc).get().value, 0u);
  EXPECT_EQ(engine.submit(qc).get().value, 0u);
  auto sub = engine.subscribe(qc);
  ASSERT_NE(sub, nullptr);
  query_result r;
  ASSERT_TRUE(sub->wait(&r, 5.0));
  EXPECT_EQ(r.value, 0u);

  // Merge via 1-2: touches buckets of 1 and 2, NOT of 0 or 3.
  mgr.ingest(make_updates({{1, 2}}));
  mgr.publish();
  EXPECT_EQ(engine.submit(qc).get().value, 1u)
      << "stale connectivity served after a remote merge";
  ASSERT_TRUE(sub->wait(&r, 5.0)) << "remote merge did not trigger";
  EXPECT_EQ(r.value, 1u);
}

// ---- standing queries -----------------------------------------------------

TEST(Subscription, DeliversOnIntersectingBatchesOnly) {
  const vertex_id n = 512;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);

  const vertex_id a = 5;
  mgr.ingest(make_updates({{a, 400}}));  // initial neighbor far from the
                                         // vertex_outside scan range
  mgr.publish();

  auto sub = engine.subscribe(query{query_kind::degree, a, 0});
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(engine.num_subscriptions(), 1u);
  engine.drain();  // initial evaluation
  query_result r;
  ASSERT_TRUE(sub->wait(&r, 5.0));
  EXPECT_EQ(r.value, 1u);

  // Disjoint batch: no re-evaluation, nothing delivered.
  bucket_set a_reads;
  a_reads.add_vertex(a);
  const vertex_id w = vertex_outside(a_reads, a + 1, n);
  const vertex_id x = vertex_outside(a_reads, w + 1, n);
  const std::uint64_t d0 = sub->delivered();
  mgr.ingest(make_updates({{w, x}}));
  mgr.publish();
  engine.drain();
  EXPECT_EQ(sub->delivered(), d0);
  EXPECT_FALSE(sub->poll(&r));

  // Touching batch: one re-evaluation with the fresh value.
  mgr.ingest(make_updates({{a, w}}));
  mgr.publish();
  engine.drain();
  ASSERT_TRUE(sub->wait(&r, 5.0));
  EXPECT_EQ(r.value, 2u);

  // After unsubscribe, further touching batches deliver nothing.
  engine.unsubscribe(sub);
  EXPECT_EQ(engine.num_subscriptions(), 0u);
  const std::uint64_t d1 = sub->delivered();
  mgr.ingest(make_updates({{a, x}}));
  mgr.publish();
  engine.drain();
  EXPECT_EQ(sub->delivered(), d1);
}

TEST(Subscription, BoundedChannelDropsOldest) {
  const vertex_id n = 64;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);

  const vertex_id a = 3;
  mgr.ingest(make_updates({{a, 4}}));
  mgr.publish();

  // Capacity-1 channel, never polled while results accumulate: each
  // delivery past the first evicts its predecessor, and the final poll
  // sees only the freshest answer.
  auto sub = engine.subscribe(query{query_kind::degree, a, 0},
                              /*channel_capacity=*/1);
  ASSERT_NE(sub, nullptr);
  engine.drain();
  for (vertex_id t = 5; t < 8; ++t) {
    mgr.ingest(make_updates({{a, t}}));
    mgr.publish();
    engine.drain();  // each touching batch re-evaluates before the next
  }
  EXPECT_EQ(sub->delivered(), 4u);  // initial + 3 re-evaluations
  EXPECT_EQ(sub->dropped(), 3u);
  query_result r;
  ASSERT_TRUE(sub->poll(&r));
  EXPECT_EQ(r.value, 4u);  // degree after all four inserts
  EXPECT_FALSE(sub->poll(&r));
}

TEST(Subscription, CallbackRunsAndStopCloses) {
  const vertex_id n = 64;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);
  std::atomic<std::uint64_t> cb_count{0};
  std::shared_ptr<gbbs::serve::subscription> sub;
  {
    query_engine_options opts;
    opts.cache = &cache;
    query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1, opts);
    mgr.ingest(make_updates({{1, 2}}));
    mgr.publish();
    sub = engine.subscribe(
        query{query_kind::degree, 1, 0}, 8,
        [&](const query_result&) { cb_count.fetch_add(1); });
    ASSERT_NE(sub, nullptr);
    engine.drain();
    EXPECT_GE(cb_count.load(), 1u);
    EXPECT_FALSE(sub->closed());
  }  // engine destroyed: channel must be closed, buffered results remain
  EXPECT_TRUE(sub->closed());
  query_result r;
  EXPECT_TRUE(sub->poll(&r));
  EXPECT_EQ(r.value, 1u);
}

TEST(Subscription, RequiresCache) {
  snapshot_manager<empty_weight> mgr(16);
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 1);
  EXPECT_EQ(engine.subscribe(query{query_kind::degree, 0, 0}), nullptr);
}

// ---- sharded ingest path --------------------------------------------------

TEST(ResultCache, ShardedInvalidationAndFreshness) {
  const vertex_id n = 256;
  gbbs::serve::sharded_snapshot_manager<empty_weight> mgr(
      n, {.num_shards = 2});
  result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), nullptr, 1, opts,
                                    mgr.router());

  // A small component traversed by a cached analytics query (read-set:
  // buckets of a, b, c).
  const vertex_id a = 9, b = 17, c = 33;
  mgr.ingest(make_updates(component_and_tail({{a, b}, {b, c}}, 128, n)));
  mgr.publish();
  mgr.flush();

  query qa{query_kind::bfs_distance, a, c};
  EXPECT_EQ(engine.submit(qa).get().value, 2u);
  {
    const std::uint64_t h0 = cache.hits();
    EXPECT_EQ(engine.submit(qa).get().value, 2u);
    EXPECT_EQ(cache.hits(), h0 + 1);
  }

  // A batch touching bucket(a): invalidated at ingest (pre-apply, at the
  // batch's clock), so no window where a reader can hit the stale entry.
  mgr.ingest(make_updates({{a, c}}));
  mgr.publish();
  mgr.flush();
  {
    const std::uint64_t h0 = cache.hits();
    EXPECT_EQ(engine.submit(qa).get().value, 1u);
    EXPECT_EQ(cache.hits(), h0);
  }

  // Subscriptions ride the composite publish's merged delta summary.
  auto sub = engine.subscribe(qa);
  ASSERT_NE(sub, nullptr);
  engine.drain();
  query_result r;
  ASSERT_TRUE(sub->wait(&r, 5.0));
  EXPECT_EQ(r.value, 1u);
  mgr.ingest(make_updates({{a, c}}, gbbs::dynamic::update_op::erase));
  mgr.publish();
  mgr.flush();
  engine.drain();
  ASSERT_TRUE(sub->wait(&r, 5.0));
  EXPECT_EQ(r.value, 2u);
}

// ---- concurrency stress (the TSan target) ---------------------------------

// Writer ingesting random batches while client threads slam repeated
// analytics through the cached engine's readers and a standing query
// stays live: the races this drives are lookup-vs-invalidate (lazy CAS
// evict), lookup-vs-insert on the same slots, insert epoch checks vs
// last_touched stores, and on_delta vs reader re-arm. Two clients submit
// analytics because point reads bypass the cache; a third runs inline
// point reads against the overlay the writer refreshes. Correctness of
// served values under concurrency is test_serve's job — here every ok
// answer is additionally checked against the range its kind can take.
TEST(ResultCache, ConcurrentLookupInvalidateStress) {
  const vertex_id n = 1024;
  snapshot_manager<empty_weight> mgr(n);
  result_cache cache;
  mgr.attach_cache(&cache);
  query_engine_options opts;
  opts.cache = &cache;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(), 4, opts);

  mgr.ingest(make_updates({{0, 1}}));
  mgr.publish();
  auto sub = engine.subscribe(query{query_kind::degree, 0, 0});
  ASSERT_NE(sub, nullptr);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    parlib::random rng(11);
    std::size_t k = 0;
    for (std::size_t b = 0; b < 40; ++b) {
      std::vector<uw_update> ups;
      for (std::size_t i = 0; i < 64; ++i, ++k) {
        const auto u = static_cast<vertex_id>(rng.ith_rand(2 * k) % n);
        const auto v = static_cast<vertex_id>(rng.ith_rand(2 * k + 1) % n);
        if (u != v) ups.push_back({u, v, {}, gbbs::dynamic::update_op::insert});
      }
      mgr.ingest(std::move(ups));
      mgr.publish();
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      parlib::random rng(100 + t);
      std::size_t qi = 0;
      while (!done.load(std::memory_order_acquire)) {
        // Narrow key space so lookups repeatedly collide with the
        // writer's invalidations and the other client's inserts of the
        // same entries.
        query q;
        q.kind = query_kind::bfs_distance;
        q.u = static_cast<vertex_id>(rng.ith_rand(qi) % 32);
        q.v = static_cast<vertex_id>(qi & 1);
        const auto r = engine.submit(q).get();
        if (r.status == query_status::ok) {
          served.fetch_add(1, std::memory_order_relaxed);
          EXPECT_TRUE(r.value < n || r.value == gbbs::kInfDist)
              << "distance out of range";
        }
        ++qi;
      }
    });
  }
  // Inline point reads: this client thread loads the overlay index while
  // the writer refreshes it.
  clients.emplace_back([&] {
    parlib::random rng(102);
    std::size_t qi = 0;
    while (!done.load(std::memory_order_acquire)) {
      query q;
      q.kind = (qi & 1) ? query_kind::neighbors : query_kind::degree;
      q.u = static_cast<vertex_id>(rng.ith_rand(qi) % 32);
      const auto r = engine.submit(q).get();
      if (r.status == query_status::ok && q.kind == query_kind::degree) {
        EXPECT_LE(r.value, n) << "degree out of range";
      }
      ++qi;
    }
  });
  writer.join();
  for (auto& c : clients) c.join();
  engine.drain();
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(sub->delivered(), 0u);
  EXPECT_GT(cache.invalidations() + cache.hits() + cache.misses(), 0u);
}

}  // namespace

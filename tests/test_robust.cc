// Tests for the overload-robustness layer (PR 8):
//   * deadlines — a query that expires while queued resolves timed_out
//     without executing; one that expires mid-traversal is stopped
//     cooperatively and its partial work discarded;
//   * cancellation propagation — par_do stamps the current token into
//     forked jobs and thieves adopt it, so a stolen subtask of a
//     cancelled computation observes the latch (flight-recorder-verified
//     against a real steal, like test_obs's trace-id test);
//   * the brownout ladder — depth-driven degrade/shed transitions under
//     failpoint-forced slowness, point reads admitted throughout, standing
//     queries never degraded;
//   * the query_status contract — every status reachable, every future
//     resolved, including across stop();
//   * the failpoint harness itself — spec grammar, deterministic
//     seed-driven trigger patterns, obs-registry export.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bucketing.h"
#include "graph/edge_map.h"
#include "graph/generators.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "parlib/atomics.h"
#include "parlib/cancellation.h"
#include "parlib/scheduler.h"
#include "parlib/trace_hooks.h"
#include "robust/failpoint.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/snapshot_manager.h"
#include "serve/snapshot_store.h"

namespace {

using gbbs::edge;
using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::vertex_subset;
using gbbs::obs::event_type;
using gbbs::robust::failpoint_mode;
using gbbs::serve::query;
using gbbs::serve::query_engine;
using gbbs::serve::query_kind;
using gbbs::serve::query_priority;
using gbbs::serve::query_result;
using gbbs::serve::query_route;
using gbbs::serve::query_status;
using gbbs::serve::snapshot_manager;
using gbbs::serve::snapshot_store;

using uw_edge = edge<empty_weight>;
using uw_update = gbbs::dynamic::update<empty_weight>;

// The CI runner may expose a single core; the steal-propagation tests
// need real thieves. Must run before the scheduler is first touched.
struct force_workers {
  force_workers() { parlib::scheduler::set_num_workers(4); }
};
const force_workers kForceWorkers;

gbbs::robust::registry& fp() { return gbbs::robust::registry::instance(); }

std::vector<uw_update> inserts(const std::vector<uw_edge>& edges) {
  std::vector<uw_update> ups;
  ups.reserve(edges.size());
  for (const auto& e : edges) {
    ups.push_back({e.u, e.v, {}, gbbs::dynamic::update_op::insert});
  }
  return ups;
}

std::vector<uw_edge> path_edges_vec(vertex_id n) {
  std::vector<uw_edge> path;
  path.reserve(n - 1);
  for (vertex_id v = 0; v + 1 < n; ++v) path.push_back({v, v + 1, {}});
  return path;
}

std::uint64_t fp_triggers(const std::string& name) {
  for (const auto& [n, c] : fp().trigger_counts()) {
    if (n == name) return c;
  }
  return 0;
}

// ---- failpoint harness ----------------------------------------------------

TEST(Failpoint, SpecGrammarAndModes) {
  fp().reset();
  // always: fires on every hit.
  ASSERT_TRUE(fp().configure_from_entry("test.a=always"));
  auto& a = fp().get("test.a");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(a.hit(fp().seed()));
  EXPECT_EQ(a.triggers(), 5u);

  // n:3 fires on every 3rd hit.
  ASSERT_TRUE(fp().configure_from_entry("test.b=n:3"));
  auto& b = fp().get("test.b");
  int fired = 0;
  for (int i = 0; i < 9; ++i) fired += b.hit(fp().seed()) ? 1 : 0;
  EXPECT_EQ(fired, 3);

  // always with a delay payload.
  ASSERT_TRUE(fp().configure_from_entry("test.c=always:250"));
  EXPECT_EQ(fp().get("test.c").arg_us(), 250u);

  // off never fires even when hit.
  ASSERT_TRUE(fp().configure_from_entry("test.a=off"));
  EXPECT_FALSE(a.hit(fp().seed()));

  // Malformed specs are rejected and leave the point untouched.
  EXPECT_FALSE(fp().configure_from_entry("test.a"));
  EXPECT_FALSE(fp().configure_from_entry("=always"));
  EXPECT_FALSE(fp().configure_from_entry("test.a=maybe"));
  EXPECT_FALSE(fp().configure_from_entry("test.a=p"));
  EXPECT_FALSE(fp().configure_from_entry("test.a=p:0.5:1:2"));
  EXPECT_FALSE(a.hit(fp().seed())) << "malformed spec re-armed the point";
  fp().reset();
}

TEST(Failpoint, ProbabilisticPatternIsSeedDeterministic) {
  fp().reset();
  fp().set_seed(42);
  fp().configure("test.det", failpoint_mode::probability, 0.3);
  auto& p = fp().get("test.det");
  constexpr int kHits = 2000;
  std::vector<bool> first;
  first.reserve(kHits);
  for (int i = 0; i < kHits; ++i) first.push_back(p.hit(fp().seed()));
  const std::uint64_t fired = p.triggers();
  // ~30% of 2000, very loose bounds (the decision hash is uniform).
  EXPECT_GT(fired, 400u);
  EXPECT_LT(fired, 800u);

  // Same seed, same hit sequence: bit-identical trigger pattern.
  p.reset_counts();
  for (int i = 0; i < kHits; ++i) {
    EXPECT_EQ(p.hit(fp().seed()), first[i]) << "hit " << i;
  }
  EXPECT_EQ(p.triggers(), fired);
  fp().reset();
}

TEST(Failpoint, PublishDelayFiresAndExportsThroughObsRegistry) {
  fp().reset();
  fp().configure("ingest.publish.delay", failpoint_mode::always,
                 /*probability=*/1.0, /*nth=*/0, /*arg_us=*/200);
  snapshot_manager<empty_weight> mgr(8);
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}}));
  mgr.publish();
  EXPECT_GE(fp_triggers("ingest.publish.delay"), 1u);
  // Satellite (c): trigger counts surface in the obs registry export.
  auto& reg = gbbs::obs::registry::global();
  const std::string json = reg.to_json(reg.read());
  EXPECT_NE(json.find("robust.failpoint.ingest.publish.delay"),
            std::string::npos);
  fp().reset();
}

// ---- cancellation primitives ----------------------------------------------

TEST(Cancellation, DeadlinePollLatchesForFlagOnlyCheckers) {
  parlib::cancel::token tok;
  EXPECT_FALSE(tok.cancelled());
  EXPECT_FALSE(tok.timed_out());
  tok.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  // The deadline has passed but nothing polled yet: flag-only checks
  // still read clear (that is the contract — poll() does the clock).
  EXPECT_FALSE(tok.cancelled());
  EXPECT_TRUE(tok.poll());
  // Latched: every subsequent flag-only check, on any thread, fires.
  EXPECT_TRUE(tok.cancelled());
  EXPECT_TRUE(tok.timed_out());

  // Explicit cancel without a deadline never claims timed_out.
  parlib::cancel::token tok2;
  tok2.request_cancel();
  EXPECT_TRUE(tok2.poll());
  EXPECT_FALSE(tok2.timed_out());

  // Free helpers: null token means "not cancellable".
  parlib::cancel::set_current_token(nullptr);
  EXPECT_FALSE(parlib::cancel::cancelled());
  EXPECT_FALSE(parlib::cancel::poll());
  {
    parlib::cancel::token_scope scope(&tok);
    EXPECT_TRUE(parlib::cancel::cancelled());
  }
  EXPECT_FALSE(parlib::cancel::cancelled()) << "token_scope did not restore";
}

// A BFS-style acquire functor (as in test_edge_map.cc).
struct acquire_f {
  std::vector<std::uint8_t>* visited;
  bool update(vertex_id, vertex_id v, empty_weight) const {
    if (!(*visited)[v]) {
      (*visited)[v] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v, empty_weight) const {
    return parlib::test_and_set(&(*visited)[v]);
  }
  // Relaxed atomic read: update_atomic's CAS may write the flag concurrently.
  bool cond(vertex_id v) const {
    return std::atomic_ref<std::uint8_t>((*visited)[v]).load(
               std::memory_order_relaxed) == 0;
  }
};

TEST(Cancellation, EdgeMapUnwindsUnderCancelledToken) {
  auto g = gbbs::rmat_symmetric(10, 8000, 11);
  const vertex_id src = 3;
  ASSERT_GT(g.out_degree(src), 0u);

  parlib::cancel::token tok;
  tok.request_cancel();
  for (auto dir :
       {gbbs::edge_map_direction::sparse, gbbs::edge_map_direction::dense}) {
    std::vector<std::uint8_t> visited(g.num_vertices(), 0);
    visited[src] = 1;
    vertex_subset frontier(g.num_vertices(), src);
    parlib::cancel::token_scope scope(&tok);
    auto next = gbbs::edge_map(g, frontier, acquire_f{&visited}, dir);
    EXPECT_TRUE(next.empty()) << "mode " << static_cast<int>(dir)
                              << " traversed under a cancelled token";
  }

  // Control: the same call with no token bound produces the neighborhood.
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  visited[src] = 1;
  vertex_subset frontier(g.num_vertices(), src);
  auto next = gbbs::edge_map(g, frontier, acquire_f{&visited});
  EXPECT_EQ(next.size(), g.out_degree(src));
}

TEST(Cancellation, BucketingStopsUnderCancelledToken) {
  const vertex_id n = 100;
  std::vector<gbbs::bucket_id> d(n);
  for (vertex_id v = 0; v < n; ++v) d[v] = v % 10;
  auto b = gbbs::make_buckets(
      n, [&](vertex_id v) { return d[v]; }, gbbs::bucket_order::increasing);

  parlib::cancel::token tok;
  tok.request_cancel();
  {
    parlib::cancel::token_scope scope(&tok);
    auto [bkt, ids] = b.next_bucket();
    EXPECT_EQ(bkt, gbbs::kNullBucket)
        << "bucket executor kept running under a cancelled token";
  }
  // Unbound again, the structure still works.
  auto [bkt, ids] = b.next_bucket();
  EXPECT_NE(bkt, gbbs::kNullBucket);
}

// The acceptance bullet: a stolen subtask of a cancelled computation
// observes the cancellation. Mirrors test_obs's trace-id steal test — an
// external registered thread forks under a bound token; when a native
// worker steals the right branch, the thief adopts job::cancel, so the
// latch set by the left branch is visible through the thread-local
// binding *on the thief*. The flight recorder proves a real steal
// happened (only thieves emit sched_run_begin on the forker's trace id).
TEST(Cancellation, PropagatesToStolenSubtasks) {
  auto& fr = gbbs::obs::flight_recorder::global();
  ASSERT_GE(parlib::scheduler::instance().num_workers(), 2u);
  bool steal_observed = false;
  for (int attempt = 0; attempt < 300 && !steal_observed; ++attempt) {
    const std::uint64_t tid = fr.next_trace_id();
    std::atomic<bool> right_saw_cancel{false};
    std::thread th([&] {
      parlib::worker_guard guard;
      ASSERT_TRUE(guard.registered());
      parlib::trace::trace_id_scope tscope(tid);
      parlib::cancel::token tok;
      parlib::cancel::token_scope cscope(&tok);
      std::atomic<bool> right_started{false};
      parlib::par_do(
          [&] {
            // Give a thief time to grab the right branch; bounded so an
            // un-stolen attempt (right runs after us) cannot deadlock.
            for (std::size_t spin = 0;
                 spin < (std::size_t{1} << 22) &&
                 !right_started.load(std::memory_order_acquire);
                 ++spin) {
            }
            tok.request_cancel();
          },
          [&] {
            right_started.store(true, std::memory_order_release);
            // Whether stolen (token adopted from the job) or local (scope
            // still bound), the latch must become visible through the
            // thread-local current token.
            std::size_t spin = 0;
            while (!parlib::cancel::cancelled() &&
                   spin < (std::size_t{1} << 26)) {
              ++spin;
            }
            right_saw_cancel.store(parlib::cancel::cancelled(),
                                   std::memory_order_release);
          });
    });
    th.join();
    ASSERT_TRUE(right_saw_cancel.load())
        << "cancellation latch never reached the right branch";
    for (const auto& ev : fr.snapshot_trace(tid)) {
      if (ev.type == event_type::sched_run_begin) steal_observed = true;
    }
  }
  EXPECT_TRUE(steal_observed)
      << "no steal in 300 attempts on a 4-worker scheduler";
}

// ---- engine deadlines -----------------------------------------------------

TEST(QueryEngine, DeadlineExpiredInQueueResolvesWithoutExecuting) {
  fp().reset();
  snapshot_manager<empty_weight> mgr(8);
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}}));
  mgr.publish();
  // Every executed query stalls 30ms at the top of its execution, so the
  // second query's 1ms deadline is long gone when the single reader
  // finally dequeues it. Both are analytics: point reads run inline in
  // submit() and never queue.
  fp().configure("serve.exec.delay", failpoint_mode::always,
                 /*probability=*/1.0, /*nth=*/0, /*arg_us=*/30000);
  query_engine<empty_weight> engine(mgr.store(), /*num_readers=*/1);

  auto fa = engine.submit({query_kind::bfs_distance, 0, 2});
  query qb{query_kind::kcore_max, 0, 0};
  qb.deadline_s = 0.001;
  auto fb = engine.submit(qb);

  EXPECT_EQ(fa.get().status, query_status::ok);
  auto rb = fb.get();
  EXPECT_EQ(rb.status, query_status::timed_out);
  EXPECT_EQ(rb.value, 0u);  // never computed
  EXPECT_GE(rb.latency_s, 0.001);
  EXPECT_EQ(engine.timed_out(), 1u);
  // The expired query short-circuited before the execution failpoint:
  // only the first query reached it.
  EXPECT_EQ(fp_triggers("serve.exec.delay"), 1u);
  // ...and contributed no latency sample to its kind's histograms.
  const auto stats = engine.latency_by_kind();
  EXPECT_EQ(
      stats[static_cast<std::size_t>(query_kind::kcore_max)].count, 0u);
  fp().reset();
}

TEST(QueryEngine, MidFlightDeadlineStopsBfsAndDiscardsPartialWork) {
  fp().reset();
  // A long path: the frontier is one vertex per round, so the BFS takes
  // n-1 edge_map rounds — far longer than the deadline — and every round
  // polls the token at entry.
  const vertex_id n = 1u << 17;
  snapshot_manager<empty_weight> mgr(n);
  mgr.ingest(inserts(path_edges_vec(n)));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), /*num_readers=*/1);

  query q{query_kind::bfs_distance, 0, n - 1};
  q.deadline_s = 0.01;
  auto r = engine.submit(q).get();
  EXPECT_EQ(r.status, query_status::timed_out);
  EXPECT_EQ(r.value, 0u) << "partial traversal output leaked to the client";
  EXPECT_EQ(r.version, 0u);
  EXPECT_EQ(engine.timed_out(), 1u);
  // No ok-sample pollution from the cancelled run.
  const auto stats = engine.latency_by_kind();
  EXPECT_EQ(
      stats[static_cast<std::size_t>(query_kind::bfs_distance)].count, 0u);
  // The mid-flight expiry is tagged on the request timeline.
  auto& fr = gbbs::obs::flight_recorder::global();
  const std::uint32_t mark = fr.intern("serve.query.timed_out");
  bool tagged = false;
  for (const auto& ev : fr.snapshot()) {
    if (ev.type == event_type::instant && ev.arg_a == mark) tagged = true;
  }
  EXPECT_TRUE(tagged);
}

TEST(QueryEngine, CallerTokenCancelResolvesCancelled) {
  fp().reset();
  const vertex_id n = 1u << 14;
  snapshot_manager<empty_weight> mgr(n);
  mgr.ingest(inserts(path_edges_vec(n)));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), /*num_readers=*/1);

  // Cancelled before the reader ever picks it up: the traversal unwinds
  // at its first poll and the engine reports cancelled (not timed_out —
  // no deadline was armed).
  parlib::cancel::token tok;
  tok.request_cancel();
  query q{query_kind::bfs_distance, 0, n - 1};
  q.cancel = &tok;
  auto r = engine.submit(q).get();
  EXPECT_EQ(r.status, query_status::cancelled);
  EXPECT_EQ(r.value, 0u);
  EXPECT_EQ(engine.cancelled_queries(), 1u);
  EXPECT_EQ(engine.timed_out(), 0u);
}

// ---- unavailable (satellite a) --------------------------------------------

TEST(QueryEngine, EmptyStoreResolvesUnavailableNotSilentlyEmpty) {
  fp().reset();
  snapshot_store<empty_weight> store;  // nothing ever published
  query_engine<empty_weight> engine(store, /*num_readers=*/1);
  auto r = engine.submit({query_kind::degree, 0, 0}).get();
  EXPECT_EQ(r.status, query_status::unavailable);
  EXPECT_EQ(engine.unavailable(), 1u);
}

TEST(QueryEngine, PinFailureFailpointForcesUnavailable) {
  fp().reset();
  snapshot_manager<empty_weight> mgr(8);
  mgr.ingest(inserts({{0, 1, {}}}));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), /*num_readers=*/1);

  fp().configure("store.pin.fail", failpoint_mode::always);
  EXPECT_EQ(engine.submit({query_kind::degree, 0, 0}).get().status,
            query_status::unavailable);
  EXPECT_GE(fp_triggers("store.pin.fail"), 1u);

  // Disarmed, the same query serves normally again.
  fp().reset();
  auto r = engine.submit({query_kind::degree, 0, 0}).get();
  EXPECT_EQ(r.status, query_status::ok);
  EXPECT_EQ(r.value, 1u);
}

// ---- brownout ladder ------------------------------------------------------

TEST(QueryEngine, BrownoutLadderDegradesAndShedsKeepingPointReadsLive) {
  fp().reset();
  const vertex_id n = 1u << 12;
  snapshot_manager<empty_weight> mgr(n);
  mgr.ingest(inserts(path_edges_vec(n)));
  mgr.publish();

  // One slow reader (2ms injected per executed query) against a burst of
  // low-priority analytics: the queue walks the rungs (4 / 8 / 12 of 16)
  // almost immediately, so the burst's tail is shed at admission while
  // the queued head executes degraded (published merged CSR).
  fp().configure("serve.exec.delay", failpoint_mode::always,
                 /*probability=*/1.0, /*nth=*/0, /*arg_us=*/2000);
  gbbs::serve::query_engine_options opts;
  opts.max_queue = 16;
  opts.brownout = true;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(),
                                    /*num_readers=*/1, opts);

  std::vector<std::future<query_result>> analytics;
  for (int i = 0; i < 200; ++i) {
    query q{query_kind::bfs_distance, 0, n - 1};
    q.priority = query_priority::low;
    analytics.push_back(engine.submit(q));
  }
  // Point reads submitted while the ladder is maxed: admitted until the
  // queue is hard-full, never brownout-shed.
  std::vector<std::future<query_result>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back(engine.submit({query_kind::degree, 1, 0}));
  }

  EXPECT_GE(engine.degrade_level(), 2) << "burst never walked the ladder";
  std::size_t point_ok = 0;
  for (auto& f : points) {
    const auto r = f.get();
    EXPECT_TRUE(r.status == query_status::ok ||
                r.status == query_status::rejected)
        << query_status_name(r.status);
    if (r.status == query_status::ok) {
      ++point_ok;
      EXPECT_EQ(r.value, 2u);
      EXPECT_EQ(r.route, query_route::overlay)
          << "point reads must stay fresh";
    }
  }
  EXPECT_GT(point_ok, 0u) << "every point read starved under brownout";

  std::size_t an_ok = 0, an_degraded = 0, an_rejected = 0;
  for (auto& f : analytics) {
    const auto r = f.get();
    if (r.status == query_status::rejected) ++an_rejected;
    if (r.status != query_status::ok) continue;
    ++an_ok;
    EXPECT_TRUE(r.route == query_route::overlay ||
                r.route == query_route::degraded);
    if (r.route == query_route::degraded) {
      ++an_degraded;
      EXPECT_EQ(r.value, n - 1) << "degraded answer is wrong, not just stale";
      EXPECT_EQ(r.staleness, 0u)
          << "published version covers the whole overlay here";
    }
  }
  EXPECT_GT(an_rejected, 0u);
  EXPECT_GT(an_ok, 0u);
  EXPECT_GT(an_degraded, 0u) << "no queued analytics executed degraded";
  EXPECT_GT(engine.shed(), 0u);
  EXPECT_EQ(engine.shed() + engine.dropped(),
            static_cast<std::uint64_t>(an_rejected) +
                (points.size() - point_ok));
  // Escalation 0 -> >=2 is at least two counted transitions.
  EXPECT_GE(engine.degrade_transitions(), 2u);
  EXPECT_GT(engine.degraded_served(), 0u);

  // Transitions are tagged in the flight recorder with the new rung.
  auto& fr = gbbs::obs::flight_recorder::global();
  const std::uint32_t mark = fr.intern("serve.brownout.level");
  bool tagged = false;
  for (const auto& ev : fr.snapshot()) {
    if (ev.type == event_type::instant && ev.arg_a == mark) tagged = true;
  }
  EXPECT_TRUE(tagged);
  fp().reset();
}

// A standing query re-evaluated while the ladder sits at level >= 1 is
// never degraded: it reads the fresh overlay and records its read-set
// there, so a batch touching its path triggers it and it delivers the
// fresh answer, not the published version's.
TEST(QueryEngine, SubscriptionStaysFreshUnderBrownout) {
  fp().reset();
  const vertex_id n = 64;
  snapshot_manager<empty_weight> mgr(n);
  gbbs::serve::result_cache cache;
  mgr.attach_cache(&cache);
  mgr.ingest(inserts(path_edges_vec(n)));
  mgr.publish();

  gbbs::serve::query_engine_options opts;
  opts.cache = &cache;
  opts.brownout = true;
  // Rungs at depths 1/2/3: one queued query raises level 1, three shed
  // every analytics submit. Subscription re-evaluations bypass
  // submit-side shedding.
  opts.max_queue = 4;
  query_engine<empty_weight> engine(mgr.store(), &mgr.overlay(),
                                    /*num_readers=*/1, opts);

  // Raise the ladder: with the only reader stalled 50ms per query, a
  // later submit finds an earlier one still queued. The burst is
  // analytics (point reads run inline and never queue); three of them
  // find at most two queued, below the shed-all rung, and stale ones pin
  // the published version, so none is degraded or cached. The level only
  // moves on submit (and steps down only after a 256-submit dwell), so it
  // stays at level >= 1 from here on.
  fp().configure("serve.exec.delay", failpoint_mode::always,
                 /*probability=*/1.0, /*nth=*/0, /*arg_us=*/50000);
  std::vector<std::future<query_result>> burst;
  for (vertex_id u = 1; u < 4; ++u) {
    query q{query_kind::bfs_distance, 0, u};
    q.stale = true;
    burst.push_back(engine.submit(q));
  }
  for (auto& f : burst) EXPECT_EQ(f.get().status, query_status::ok);
  fp().reset();
  ASSERT_GE(engine.degrade_level(), 1);

  auto sub = engine.subscribe({query_kind::bfs_distance, 0, n - 1});
  ASSERT_NE(sub, nullptr);
  query_result r;
  ASSERT_TRUE(sub->wait(&r, 5.0));
  EXPECT_EQ(r.value, n - 1);
  EXPECT_EQ(r.route, query_route::overlay);

  // A shortcut on the watched path, ingested but not published: only the
  // overlay has it.
  mgr.ingest(inserts({{0, n - 1, {}}}));
  ASSERT_TRUE(sub->wait(&r, 5.0)) << "the subscription went deaf";
  EXPECT_EQ(r.value, 1u) << "the re-evaluation served a stale answer";
  EXPECT_EQ(r.route, query_route::overlay);
  EXPECT_GE(engine.degrade_level(), 1);
  EXPECT_EQ(engine.degraded_served(), 0u);
}

TEST(QueryEngine, SubmitSaturateFailpointRejectsEvenWhenQueueHasRoom) {
  fp().reset();
  snapshot_manager<empty_weight> mgr(4);
  mgr.ingest(inserts({{0, 1, {}}}));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), /*num_readers=*/1);

  fp().configure("serve.submit.saturate", failpoint_mode::always);
  auto r = engine.submit({query_kind::degree, 0, 0}).get();
  EXPECT_EQ(r.status, query_status::rejected);
  EXPECT_EQ(engine.dropped(), 1u);
  fp().reset();
  EXPECT_EQ(engine.submit({query_kind::degree, 0, 0}).get().status,
            query_status::ok);
}

// ---- the status contract --------------------------------------------------

TEST(QueryEngine, EveryStatusIsReachable) {
  fp().reset();
  const vertex_id n = 1u << 14;
  snapshot_manager<empty_weight> mgr(n);
  mgr.ingest(inserts(path_edges_vec(n)));
  mgr.publish();
  query_engine<empty_weight> engine(mgr.store(), /*num_readers=*/1);

  std::set<query_status> seen;

  // ok
  seen.insert(engine.submit({query_kind::degree, 1, 0}).get().status);
  // rejected (forced saturation)
  fp().configure("serve.submit.saturate", failpoint_mode::always);
  seen.insert(engine.submit({query_kind::degree, 1, 0}).get().status);
  fp().reset();
  // timed_out (sub-microsecond deadline expires before dequeue)
  query qt{query_kind::bfs_distance, 0, n - 1};
  qt.deadline_s = 1e-9;
  seen.insert(engine.submit(qt).get().status);
  // cancelled (caller token, latched before execution)
  parlib::cancel::token tok;
  tok.request_cancel();
  query qc{query_kind::bfs_distance, 0, n - 1};
  qc.cancel = &tok;
  seen.insert(engine.submit(qc).get().status);
  // unavailable (pin failure)
  fp().configure("store.pin.fail", failpoint_mode::always);
  seen.insert(engine.submit({query_kind::degree, 1, 0}).get().status);
  fp().reset();

  EXPECT_EQ(seen.size(), gbbs::serve::kNumQueryStatuses);
  EXPECT_TRUE(seen.count(query_status::ok));
  EXPECT_TRUE(seen.count(query_status::rejected));
  EXPECT_TRUE(seen.count(query_status::timed_out));
  EXPECT_TRUE(seen.count(query_status::cancelled));
  EXPECT_TRUE(seen.count(query_status::unavailable));
}

TEST(QueryEngine, StopLeavesNoFutureUnready) {
  fp().reset();
  const vertex_id n = 1u << 12;
  snapshot_manager<empty_weight> mgr(n);
  mgr.ingest(inserts(path_edges_vec(n)));
  mgr.publish();
  fp().configure("serve.exec.delay", failpoint_mode::always,
                 /*probability=*/1.0, /*nth=*/0, /*arg_us=*/1000);
  std::vector<std::future<query_result>> futs;
  parlib::cancel::token tok;
  {
    query_engine<empty_weight> engine(mgr.store(), /*num_readers=*/1);
    for (int i = 0; i < 64; ++i) {
      query q;
      switch (i % 4) {
        case 0:
          q = {query_kind::degree, 1, 0};
          break;
        case 1:
          q = {query_kind::bfs_distance, 0, n - 1};
          q.deadline_s = 0.0005;
          break;
        case 2:
          q = {query_kind::connected, 0, 2};
          break;
        default:
          q = {query_kind::bfs_distance, 0, n - 1};
          q.cancel = &tok;
          break;
      }
      futs.push_back(engine.submit(q));
    }
    tok.request_cancel();
    engine.stop();
    // A submit racing-with/after stop resolves immediately, rejected.
    auto late = engine.submit({query_kind::degree, 0, 0});
    ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(late.get().status, query_status::rejected);
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "stop() left a future unresolved";
    const auto r = f.get();
    EXPECT_LE(static_cast<std::size_t>(r.status),
              gbbs::serve::kNumQueryStatuses - 1);
  }
  fp().reset();
}

}  // namespace

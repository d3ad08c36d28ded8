// Serving throughput of the snapshot subsystem: query throughput, tail
// latency, and publish latency as a function of ingest batch size and
// reader count — plus the delta-proportional-publish check: publish
// latency at a fixed batch size measured at two graph scales must be
// independent of |V| + |E| (publish is O(delta): shared-base handles +
// overlay index, no merged-CSR build — see serve/snapshot_manager.h).
//
// For each (batch, readers) configuration the same R-MAT edge stream is
// ingested by a writer thread (publish per batch, registered as an
// external scheduler worker) while a closed-loop generator keeps
// `readers` query threads saturated with the standard mixed workload
// (make_mixed_query) served with the fresh overlay path. Each row also
// records where scheduler forks landed (per-reader deques vs deque 0).
// Reported per row: ingest rate (Me/s, wall-clock of the writer),
// completed queries/s, p50/p99 query latency, and p50 publish latency.
//
// -json <path> emits the whole run as machine-readable rows (tracked as
// BENCH_serve.json across PRs).
#include <array>
#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dynamic/stream.h"
#include "robust/failpoint.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/read_set.h"
#include "serve/result_cache.h"
#include "serve/sharded_ingest.h"
#include "serve/snapshot_manager.h"

namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::serve::query_result;

using engine_kind_stats = std::array<
    gbbs::serve::query_engine<empty_weight>::kind_stats,
    gbbs::serve::kNumQueryKinds>;

struct serve_result {
  double writer_s = 0;   // wall time of the ingest+publish loop
  double wall_s = 0;     // wall time of the whole run (ingest + drain)
  std::size_t queries = 0;
  bench::sample_stats latency;
  bench::sample_stats publish_latency;
  engine_kind_stats kinds{};  // per-query-kind latency accounting
  // Scheduler participation: forks the registered reader threads placed
  // on their own deques; forks that landed on deque 0 during the run —
  // expected 0, since the writer forks onto its own external slot and the
  // main thread (worker 0) only submits and blocks, so a non-zero value
  // signals a registration failure.
  std::uint64_t reader_forks = 0;
  std::uint64_t deque0_forks = 0;
};

serve_result run_config(const std::vector<gbbs::edge<empty_weight>>& edges,
                        vertex_id n, std::size_t batch_size,
                        std::size_t readers) {
  gbbs::serve::snapshot_manager<empty_weight> mgr(n);
  serve_result res;
  std::vector<double> latencies;
  std::vector<double> publish_s;
  const std::uint64_t deque0_before =
      parlib::scheduler::instance().push_count(0);
  res.wall_s = bench::time_once([&] {
    gbbs::serve::query_engine<empty_weight> engine(mgr.store(),
                                                   &mgr.overlay(), readers);
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      // Registered external worker: ingest-internal parallel_for forks
      // onto this thread's own deque instead of running sequentially.
      parlib::worker_guard wg;
      gbbs::dynamic::edge_stream<empty_weight> stream(edges);
      res.writer_s = bench::time_once([&] {
        while (!stream.done()) {
          mgr.ingest(stream.next_inserts(batch_size));
          publish_s.push_back(bench::time_once([&] { mgr.publish(); }));
        }
      });
      writer_done.store(true, std::memory_order_release);
    });

    // Closed-loop load generator: windows of in-flight queries, refilled
    // until the writer finishes, so the readers stay saturated for the
    // whole ingest phase.
    const std::size_t window = 64 * readers;
    parlib::random rng(17);
    std::size_t qi = 0;
    std::vector<std::future<query_result>> inflight;
    inflight.reserve(window);
    while (!writer_done.load(std::memory_order_acquire)) {
      inflight.clear();
      for (std::size_t k = 0; k < window; ++k, ++qi) {
        inflight.push_back(
            engine.submit(gbbs::serve::make_mixed_query(rng, qi, n)));
      }
      for (auto& f : inflight) latencies.push_back(f.get().latency_s);
    }
    writer.join();
    engine.drain();
    res.kinds = engine.latency_by_kind();
    res.reader_forks = engine.reader_forks();
  });
  res.deque0_forks =
      parlib::scheduler::instance().push_count(0) - deque0_before;
  res.queries = latencies.size();
  res.latency = bench::summarize(std::move(latencies));
  res.publish_latency = bench::summarize(std::move(publish_s));
  return res;
}

// The acceptance measurement: replay fixed-size insert batches
// (publish per batch) on top of an already-published seed graph of
// `scale`, and report per-publish latency. Delta-proportional publish
// means these numbers do not grow with the seed's |V| + |E|. A replay
// starts a fresh manager on the same seed and stream and times
// `batches_per_replay` publishes after its warm-up; replays repeat until
// at least kMinPublishes publishes are timed, so the p99 is not simply
// the slowest of a few.
constexpr std::size_t kMinPublishes = 200;

struct publish_sweep_result {
  vertex_id n = 0;
  gbbs::edge_id m = 0;
  std::size_t replays = 0;
  bench::sample_stats publish_latency;
  bench::sample_stats ingest_latency;
};

publish_sweep_result run_publish_sweep(std::uint32_t scale,
                                       std::size_t batch_size,
                                       std::size_t batches_per_replay) {
  const std::size_t m = std::size_t{12} << scale;
  const auto seed = gbbs::rmat_symmetric(scale, m, 211);
  publish_sweep_result res;
  res.n = seed.num_vertices();
  res.m = seed.num_edges();
  const vertex_id n = seed.num_vertices();
  std::vector<double> publish_s, ingest_s;
  while (publish_s.size() < kMinPublishes) {
    gbbs::serve::snapshot_manager<empty_weight> mgr(seed);
    parlib::random rng(99);
    std::size_t k = 0;
    // Warm up past the transient where random inserts still merge many of
    // the seed's components (merge volume is a property of the workload,
    // not of publish); then measure steady-state serving.
    const std::size_t warmup = 8;
    for (std::size_t b = 0; b < warmup + batches_per_replay; ++b) {
      std::vector<gbbs::dynamic::update<empty_weight>> raw;
      raw.reserve(batch_size);
      for (std::size_t i = 0; i < batch_size; ++i, ++k) {
        raw.push_back({static_cast<vertex_id>(rng.ith_rand(2 * k) % n),
                       static_cast<vertex_id>(rng.ith_rand(2 * k + 1) % n),
                       {},
                       gbbs::dynamic::update_op::insert});
      }
      const double ing =
          bench::time_once([&] { mgr.ingest(std::move(raw)); });
      const double pub = bench::time_once([&] { mgr.publish(); });
      if (b >= warmup) {
        ingest_s.push_back(ing);
        publish_s.push_back(pub);
      }
    }
    ++res.replays;
  }
  res.publish_latency = bench::summarize(std::move(publish_s));
  res.ingest_latency = bench::summarize(std::move(ingest_s));
  return res;
}

// Overload sweep (the robustness acceptance row): an open-loop analytics
// burst far above service capacity against a bounded queue with the
// brownout ladder armed and probabilistic execution-delay fault
// injection, the analytics carrying deadlines, while a second client
// sends point reads. The gated metric is the point-read p99 — under
// overload it must stay bounded (point reads run inline, never behind
// the queue) while analytics are degraded / shed / timed out; the count
// fields record how the ladder absorbed the burst.
struct overload_result {
  double wall_s = 0;
  bench::sample_stats point_latency;  // ok point reads only
  std::size_t point_ok = 0;
  std::size_t analytics_ok = 0;
  std::size_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t degraded = 0;
  std::uint64_t transitions = 0;
};

overload_result run_overload(gbbs::graph<empty_weight> seed,
                             std::size_t num_queries) {
  const vertex_id n = seed.num_vertices();
  gbbs::serve::snapshot_manager<empty_weight> mgr(std::move(seed));
  // One ingest+publish so the fresh overlay index exists (and covers the
  // published head exactly): the brownout degraded path routes analytics
  // from the overlay to the published merged CSR at staleness 0.
  {
    parlib::random seed_rng(5);
    std::vector<gbbs::dynamic::update<empty_weight>> ups;
    for (std::size_t i = 0; i < 512; ++i) {
      ups.push_back({static_cast<vertex_id>(seed_rng.ith_rand(2 * i) % n),
                     static_cast<vertex_id>(seed_rng.ith_rand(2 * i + 1) % n),
                     {},
                     gbbs::dynamic::update_op::insert});
    }
    mgr.ingest(std::move(ups));
    mgr.publish();
  }
  auto& freg = gbbs::robust::registry::instance();
  freg.reset();
  freg.set_seed(7);
  // 5% of executed queries stall 5ms — deterministic in (seed, hit index),
  // so the stall count is the same across invocations.
  freg.configure("serve.exec.delay",
                 gbbs::robust::failpoint_mode::probability, 0.05, 0, 5000);

  overload_result res;
  std::vector<double> point_lat;
  res.wall_s = bench::time_once([&] {
    gbbs::serve::query_engine_options opts;
    opts.max_queue = 128;
    opts.brownout = true;
    gbbs::serve::query_engine<empty_weight> engine(
        mgr.store(), &mgr.overlay(), /*num_readers=*/2, opts);
    parlib::random rng(23);
    // Every fourth query is a low-priority bfs with a deadline, the rest
    // degree reads. The two streams come from separate client threads:
    // point reads execute inline on their submitting thread, where the
    // injected delays stall them, and must not pace the analytics burst.
    std::vector<std::future<query_result>> futs(num_queries);
    const auto submit_every = [&](bool analytics) {
      for (std::size_t i = 0; i < num_queries; ++i) {
        if ((i % 4 == 3) != analytics) continue;
        gbbs::serve::query q;
        if (analytics) {
          q = {gbbs::serve::query_kind::bfs_distance,
               static_cast<vertex_id>(rng.ith_rand(2 * i) % n),
               static_cast<vertex_id>(rng.ith_rand(2 * i + 1) % n)};
          q.priority = gbbs::serve::query_priority::low;
          q.deadline_s = 0.010;
        } else {
          q = {gbbs::serve::query_kind::degree,
               static_cast<vertex_id>(rng.ith_rand(2 * i) % n), 0};
        }
        futs[i] = engine.submit(q);
      }
    };
    std::thread point_client(submit_every, false);
    submit_every(true);
    point_client.join();
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const auto r = futs[i].get();
      switch (r.status) {
        case gbbs::serve::query_status::ok:
          if (i % 4 == 3) {
            ++res.analytics_ok;
          } else {
            ++res.point_ok;
            point_lat.push_back(r.latency_s);
          }
          break;
        case gbbs::serve::query_status::rejected:
          ++res.rejected;
          break;
        default:
          break;  // timed_out / cancelled counted via the engine below
      }
    }
    res.shed = engine.shed();
    res.timed_out = engine.timed_out();
    res.degraded = engine.degraded_served();
    res.transitions = engine.degrade_transitions();
  });
  freg.reset();
  res.point_latency = bench::summarize(std::move(point_lat));
  return res;
}

// Cached analytics: repeated whole-traversal queries under a zipfian
// working set, answered from the bucket-keyed result cache after the
// first evaluation. Hit-path latency (lookup + read-set freshness check)
// vs miss-path latency (a full bfs) is the acceptance gap; the precision
// booleans counter-verify that a batch touching the query's read-set
// invalidates the entry while a bucket-disjoint batch provably does not.
// A pass of `samples` queries misses about once per distinct query, so
// the query loop is replayed over a fresh manager and cache until at
// least kMinMisses misses are timed.
constexpr std::size_t kMinMisses = 200;

struct cached_analytics_result {
  std::size_t replays = 0;
  std::size_t hit_count = 0, miss_count = 0;
  bench::sample_stats hit_latency, miss_latency;
  bool disjoint_kept_hit = false;
  bool touch_invalidated = false;
};

cached_analytics_result run_cached_analytics(
    const std::vector<gbbs::edge<empty_weight>>& edges, vertex_id n,
    std::size_t distinct, std::size_t samples) {
  cached_analytics_result res;
  std::vector<double> hit_lat, miss_lat;
  // Fixed working set of bfs queries with a zipfian-ish skew (cube of a
  // uniform variate), so a few of them dominate — the repeat-heavy mix a
  // result cache exists for. Queries run one at a time, so the hits
  // counter delta around each classifies it as hit- or miss-path.
  parlib::random rng(43);
  std::vector<gbbs::serve::query> qs;
  for (std::size_t i = 0; i < distinct; ++i) {
    qs.push_back({gbbs::serve::query_kind::bfs_distance,
                  static_cast<vertex_id>(rng.ith_rand(2 * i) % n),
                  static_cast<vertex_id>(rng.ith_rand(2 * i + 1) % n)});
  }
  std::size_t draw = 0;
  for (;;) {
    gbbs::serve::snapshot_manager<empty_weight> mgr(n);
    gbbs::serve::result_cache cache;
    mgr.attach_cache(&cache);  // before the first ingest
    // Ingest the whole stream up front: the latency measurement runs on a
    // settled graph; invalidation behavior is probed explicitly below.
    {
      gbbs::dynamic::edge_stream<empty_weight> stream(edges);
      while (!stream.done()) {
        mgr.ingest(stream.next_inserts(8192));
        mgr.publish();
      }
    }
    gbbs::serve::query_engine_options opts;
    opts.cache = &cache;
    gbbs::serve::query_engine<empty_weight> engine(
        mgr.store(), &mgr.overlay(), /*num_readers=*/2, opts);
    for (std::size_t i = 0; i < samples; ++i, ++draw) {
      const double z =
          static_cast<double>(rng.ith_rand(1000 + draw) % 100000) / 100000.0;
      std::size_t idx =
          static_cast<std::size_t>(z * z * z * static_cast<double>(distinct));
      if (idx >= distinct) idx = distinct - 1;
      const std::uint64_t h0 = cache.hits();
      const auto r = engine.submit(qs[idx]).get();
      if (r.status != gbbs::serve::query_status::ok) continue;
      if (cache.hits() > h0) {
        hit_lat.push_back(r.latency_s);
      } else {
        miss_lat.push_back(r.latency_s);
      }
    }
    ++res.replays;
    if (miss_lat.size() < kMinMisses) continue;

    // Invalidation precision, counter-verified on a bfs from vertex n, one
    // past the graph: an out-of-range vertex is an isolated singleton, so
    // the read-set is exactly {bucket(n)} (point reads are not cached). A
    // bucket-disjoint batch must keep the entry hot; a batch touching n's
    // bucket (and growing the graph to reach n) must evict it.
    const vertex_id a = n;
    const gbbs::serve::query qa{gbbs::serve::query_kind::bfs_distance, a, a};
    (void)engine.submit(qa).get();  // prime: the entry is cached after this
    vertex_id w = (a + 1) % n;
    while (gbbs::serve::cache_bucket_of(w) == gbbs::serve::cache_bucket_of(a)) {
      w = (w + 1) % n;
    }
    vertex_id y = (w + 1) % n;
    while (gbbs::serve::cache_bucket_of(y) == gbbs::serve::cache_bucket_of(a)) {
      y = (y + 1) % n;
    }
    auto ingest_pair = [&](vertex_id s, vertex_id t) {
      std::vector<gbbs::dynamic::update<empty_weight>> ups;
      ups.push_back({s, t, {}, gbbs::dynamic::update_op::insert});
      mgr.ingest(std::move(ups));
      mgr.publish();
    };
    ingest_pair(w, y);  // mirrored batch touches buckets of w and y only
    {
      const std::uint64_t h0 = cache.hits();
      const std::uint64_t inv0 = cache.invalidations();
      (void)engine.submit(qa).get();
      res.disjoint_kept_hit =
          cache.hits() == h0 + 1 && cache.invalidations() == inv0;
    }
    ingest_pair(a, w);  // touches bucket(a): must evict the entry
    {
      const std::uint64_t m0 = cache.misses();
      const std::uint64_t inv0 = cache.invalidations();
      (void)engine.submit(qa).get();
      res.touch_invalidated =
          cache.misses() == m0 + 1 && cache.invalidations() == inv0 + 1;
    }
    break;
  }
  res.hit_count = hit_lat.size();
  res.miss_count = miss_lat.size();
  res.hit_latency = bench::summarize(std::move(hit_lat));
  res.miss_latency = bench::summarize(std::move(miss_lat));
  return res;
}

// Sharded point reads: the same stream ingested through the multi-writer
// sharded path while reader threads issue degree/neighbors queries that
// the engine routes to the owning shard's overlay (shard-apply
// freshness — no composite pin on the point-read path).
struct sharded_serve_result {
  double writer_s = 0;
  double wall_s = 0;
  std::size_t queries = 0;
  bench::sample_stats latency;
};

sharded_serve_result run_sharded_points(
    const std::vector<gbbs::edge<empty_weight>>& edges, vertex_id n,
    std::size_t batch_size, std::size_t shards, std::size_t readers) {
  gbbs::serve::sharded_snapshot_manager<empty_weight> mgr(
      n, {.num_shards = shards});
  sharded_serve_result res;
  std::vector<double> latencies;
  res.wall_s = bench::time_once([&] {
    gbbs::serve::query_engine<empty_weight> engine(
        mgr.store(), mgr.router(), readers);
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      parlib::worker_guard wg;
      gbbs::dynamic::edge_stream<empty_weight> stream(edges);
      res.writer_s = bench::time_once([&] {
        while (!stream.done()) {
          mgr.ingest(stream.next_inserts(batch_size));
          mgr.publish();
        }
        mgr.flush();
      });
      writer_done.store(true, std::memory_order_release);
    });
    const std::size_t window = 64 * readers;
    parlib::random rng(31);
    std::size_t qi = 0;
    std::vector<std::future<query_result>> inflight;
    inflight.reserve(window);
    while (!writer_done.load(std::memory_order_acquire)) {
      inflight.clear();
      for (std::size_t k = 0; k < window; ++k, ++qi) {
        gbbs::serve::query q;
        q.kind = (qi & 1) ? gbbs::serve::query_kind::neighbors
                          : gbbs::serve::query_kind::degree;
        q.u = static_cast<vertex_id>(rng.ith_rand(qi) % n);
        inflight.push_back(engine.submit(q));
      }
      for (auto& f : inflight) latencies.push_back(f.get().latency_s);
    }
    writer.join();
    engine.drain();
  });
  res.queries = latencies.size();
  res.latency = bench::summarize(std::move(latencies));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_flag(argc, argv);
  std::vector<bench::json_record> rows;

  const std::uint32_t scale = bench::bench_scale() - 4;
  const std::size_t m = std::size_t{12} << scale;
  auto g = gbbs::rmat_symmetric(scale, m, 101);
  auto edges = gbbs::dynamic::undirected_stream_edges(g);
  const vertex_id n = g.num_vertices();
  const double medges = static_cast<double>(edges.size()) / 1e6;

  std::printf(
      "== snapshot serving (n=%u, %zu streamed edges, workers=%zu) ==\n", n,
      edges.size(), parlib::num_workers());
  std::printf("%-10s %-8s %12s %12s %10s %10s %10s\n", "batch", "readers",
              "ingest Me/s", "queries/s", "p50(ms)", "p99(ms)", "pub p50(ms)");
  for (std::size_t batch_size :
       {std::size_t{1} << 10, std::size_t{1} << 13, std::size_t{1} << 16}) {
    for (std::size_t readers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      const auto r = run_config(edges, n, batch_size, readers);
      std::printf("%-10zu %-8zu %12.2f %12.0f %10.3f %10.3f %10.3f\n",
                  batch_size, readers, medges / r.writer_s,
                  static_cast<double>(r.queries) / r.wall_s,
                  r.latency.p50 * 1e3, r.latency.p99 * 1e3,
                  r.publish_latency.p50 * 1e3);
      std::fflush(stdout);
      rows.push_back(bench::json_record()
                         .field("section", std::string("sweep"))
                         .field("batch", batch_size)
                         .field("readers", readers)
                         .field("ingest_meps", medges / r.writer_s)
                         .field("queries_per_s",
                                static_cast<double>(r.queries) / r.wall_s)
                         .field("query_p50_ms", r.latency.p50 * 1e3)
                         .field("query_p99_ms", r.latency.p99 * 1e3)
                         .field("publish_p50_ms",
                                r.publish_latency.p50 * 1e3)
                         .field("publish_p99_ms",
                                r.publish_latency.p99 * 1e3)
                         .field("reader_forks", r.reader_forks)
                         .field("deque0_forks", r.deque0_forks));
      // Per-kind latency rows: the SLO-accounting numbers the CI smoke
      // step watches for per-kind regressions.
      for (std::size_t k = 0; k < gbbs::serve::kNumQueryKinds; ++k) {
        const auto& ks = r.kinds[k];
        if (ks.count == 0) continue;
        rows.push_back(
            bench::json_record()
                .field("section", std::string("kind_latency"))
                .field("batch", batch_size)
                .field("readers", readers)
                .field("kind",
                       std::string(gbbs::serve::query_kind_name(
                           static_cast<gbbs::serve::query_kind>(k))))
                .field("count", static_cast<std::uint64_t>(ks.count))
                .field("p50_ms", ks.p50_s * 1e3)
                .field("p99_ms", ks.p99_s * 1e3)
                .field("max_ms", ks.max_s * 1e3)
                // Stage decomposition (obs histograms): end-to-end =
                // queue wait + view selection + execute.
                .field("queue_p50_ms", ks.queue_p50_s * 1e3)
                .field("queue_p99_ms", ks.queue_p99_s * 1e3)
                .field("exec_p50_ms", ks.exec_p50_s * 1e3)
                .field("exec_p99_ms", ks.exec_p99_s * 1e3));
      }
    }
  }

  // Sharded point reads: owner-shard overlay routing under concurrent
  // multi-writer ingest (1/2/4 shards at a fixed batch and reader count).
  std::printf(
      "\n== sharded point reads (batch=8192, readers=2, "
      "publish-per-batch) ==\n");
  std::printf("%-8s %12s %12s %10s %10s\n", "shards", "ingest Me/s",
              "queries/s", "p50(ms)", "p99(ms)");
  for (std::size_t shards : {std::size_t{1}, std::size_t{2},
                             std::size_t{4}}) {
    const auto r = run_sharded_points(edges, n, /*batch_size=*/8192, shards,
                                      /*readers=*/2);
    std::printf("%-8zu %12.2f %12.0f %10.3f %10.3f\n", shards,
                medges / r.writer_s,
                static_cast<double>(r.queries) / r.wall_s,
                r.latency.p50 * 1e3, r.latency.p99 * 1e3);
    std::fflush(stdout);
    rows.push_back(bench::json_record()
                       .field("section", std::string("sharded_point_read"))
                       .field("shards", shards)
                       .field("batch", std::size_t{8192})
                       .field("readers", std::size_t{2})
                       .field("ingest_meps", medges / r.writer_s)
                       .field("queries_per_s",
                              static_cast<double>(r.queries) / r.wall_s)
                       .field("point_p50_ms", r.latency.p50 * 1e3)
                       .field("point_p99_ms", r.latency.p99 * 1e3));
  }

  // Publish latency vs graph scale at fixed batch size: flat across the
  // ~16x |V|+|E| gap = publish is O(delta), not O(graph).
  const std::size_t fixed_batch = 4096;
  const std::size_t batches_per_replay = 24;
  std::printf(
      "\n== publish latency vs graph scale (batch=%zu, publish-per-batch, "
      ">= %zu publishes) ==\n",
      fixed_batch, kMinPublishes);
  std::printf("%-12s %-12s %-12s %12s %12s %12s\n", "scale", "n", "m",
              "pub p50(ms)", "pub p99(ms)", "ingest p50(ms)");
  for (std::uint32_t s : {bench::bench_scale() - 6, bench::bench_scale() - 2}) {
    const auto r = run_publish_sweep(s, fixed_batch, batches_per_replay);
    std::printf("%-12u %-12u %-12llu %12.3f %12.3f %12.3f\n", s, r.n,
                static_cast<unsigned long long>(r.m),
                r.publish_latency.p50 * 1e3, r.publish_latency.p99 * 1e3,
                r.ingest_latency.p50 * 1e3);
    std::fflush(stdout);
    rows.push_back(bench::json_record()
                       .field("section", std::string("publish_sweep"))
                       .field("scale", std::uint64_t{s})
                       .field("n", std::uint64_t{r.n})
                       .field("m", static_cast<std::uint64_t>(r.m))
                       .field("batch", fixed_batch)
                       .field("replays", r.replays)
                       .field("publishes", r.publish_latency.count)
                       .field("publish_p50_ms",
                              r.publish_latency.p50 * 1e3)
                       .field("publish_p99_ms",
                              r.publish_latency.p99 * 1e3)
                       .field("ingest_p50_ms", r.ingest_latency.p50 * 1e3));
  }

  // Cached analytics: the result-cache perf acceptance — repeated bfs
  // queries under a zipfian working set; the hit-path median must be an
  // order of magnitude under the miss path (gated on hit_p50_ms).
  const std::size_t ca_distinct = 64;
  const std::size_t ca_samples = 2000;
  std::printf(
      "\n== cached analytics (bfs, zipfian working set of %zu, %zu samples "
      "per replay, >= %zu misses) ==\n",
      ca_distinct, ca_samples, kMinMisses);
  const auto c = run_cached_analytics(edges, n, ca_distinct, ca_samples);
  const double ca_total =
      static_cast<double>(c.hit_count + c.miss_count);
  const double ca_hit_ratio =
      ca_total > 0 ? static_cast<double>(c.hit_count) / ca_total : 0.0;
  const double ca_speedup = c.hit_latency.p50 > 0
                                ? c.miss_latency.p50 / c.hit_latency.p50
                                : 0.0;
  std::printf(
      "replays=%zu hits=%zu misses=%zu hit-ratio=%.3f | "
      "hit p50=%.4fms p99=%.4fms | "
      "miss p50=%.3fms p99=%.3fms | p50 speedup=%.1fx | "
      "disjoint-kept-hit=%d touch-invalidated=%d\n",
      c.replays, c.hit_count, c.miss_count, ca_hit_ratio,
      c.hit_latency.p50 * 1e3,
      c.hit_latency.p99 * 1e3, c.miss_latency.p50 * 1e3,
      c.miss_latency.p99 * 1e3, ca_speedup,
      c.disjoint_kept_hit ? 1 : 0, c.touch_invalidated ? 1 : 0);
  rows.push_back(bench::json_record()
                     .field("section", std::string("cached_analytics"))
                     .field("distinct", ca_distinct)
                     .field("samples", ca_samples)
                     .field("replays", c.replays)
                     .field("hit_count", c.hit_count)
                     .field("miss_count", c.miss_count)
                     .field("hit_ratio", ca_hit_ratio)
                     .field("hit_p50_ms", c.hit_latency.p50 * 1e3)
                     .field("hit_p99_ms", c.hit_latency.p99 * 1e3)
                     .field("miss_p50_ms", c.miss_latency.p50 * 1e3)
                     .field("miss_p99_ms", c.miss_latency.p99 * 1e3)
                     .field("speedup_p50", ca_speedup)
                     .field("disjoint_kept_hit",
                            std::uint64_t{c.disjoint_kept_hit ? 1u : 0u})
                     .field("touch_invalidated",
                            std::uint64_t{c.touch_invalidated ? 1u : 0u}));

  // Overload: offered load >> capacity, bounded queue + brownout +
  // deadlines + injected execution delays. Point-read p99 is the gated
  // number; the counts show the ladder absorbing the burst.
  const std::size_t overload_queries = 20000;
  std::printf(
      "\n== overload (open-loop burst, max_queue=128, brownout, "
      "exec-delay p:0.05:5000) ==\n");
  const auto o = run_overload(std::move(g), overload_queries);
  std::printf(
      "%zu queries in %.2fs: point ok=%zu p50=%.3fms p99=%.3fms | "
      "analytics ok=%zu degraded=%llu | shed=%llu timed_out=%llu "
      "rejected=%zu transitions=%llu\n",
      overload_queries, o.wall_s, o.point_ok, o.point_latency.p50 * 1e3,
      o.point_latency.p99 * 1e3, o.analytics_ok,
      static_cast<unsigned long long>(o.degraded),
      static_cast<unsigned long long>(o.shed),
      static_cast<unsigned long long>(o.timed_out), o.rejected,
      static_cast<unsigned long long>(o.transitions));
  rows.push_back(bench::json_record()
                     .field("section", std::string("overload"))
                     .field("queries", overload_queries)
                     .field("point_ok", o.point_ok)
                     .field("point_p50_ms", o.point_latency.p50 * 1e3)
                     .field("point_p99_ms", o.point_latency.p99 * 1e3)
                     .field("analytics_ok", o.analytics_ok)
                     .field("degraded", o.degraded)
                     .field("shed", o.shed)
                     .field("timed_out", o.timed_out)
                     .field("rejected_count", o.rejected)
                     .field("degrade_transitions", o.transitions));

  if (!json_path.empty()) bench::write_json(json_path, "bench_serve", rows);
  return 0;
}

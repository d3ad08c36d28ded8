// Replay a mixed update/query trace through the snapshot-serving subsystem:
// a single writer ingests the graph as an edge stream (publishing an
// immutable version after every batch, with hand-off compaction) and
// submits the analytics of a randomized query mix to a pool of reader
// threads, while a second client thread submits the mix's point reads,
// which run on that thread. Both are served from the fresh overlay path
// (the overlay-fused dynamic_view; no merged-CSR materialization). Reports
// update and query throughput, p50/p90/p99 query latency, and a per-kind
// latency/SLO table.
//
// Flags (besides the shared runner.h set):
//   -batch <b>        updates per ingest batch (default 1 << 13)
//   -readers <r>      query reader threads (default 4)
//   -shards <s>       multi-writer sharded ingest (serve/sharded_ingest.h):
//                     s concurrent shard writers under the composite
//                     version clock; degree/neighbors point reads route to
//                     the owning shard's overlay, analytics pin the latest
//                     composite version (default 0 = single-writer
//                     snapshot_manager)
//   -read-ratio <f>   fraction of trace operations that are queries, in
//                     [0, 1) (default 0.5); queries per batch =
//                     batch * f / (1 - f)
//   -heavy            include whole-graph analytics (kcore / triangles /
//                     connectivity refinement) in the query mix
//   -no-fresh         disable the overlay fresh path: every query executes
//                     against pinned published versions only
//   -slo-point <ms>       latency SLO for point reads (0 = off)
//   -slo-analytics <ms>   latency SLO for traversal analytics (0 = off)
//   -deadline-ms <t>  per-query deadline: expired-in-queue queries resolve
//                     timed_out without executing; mid-flight expiry stops
//                     the traversal cooperatively (0 = off)
//   -max-queue <q>    bound the submit queue (reject policy); 0 = unbounded
//   -brownout         enable the degradation ladder (requires -max-queue):
//                     degrade analytics to the published merged CSR, then
//                     shed low-priority analytics, then all analytics —
//                     point reads admitted until the queue is hard-full.
//                     Queries are classed point=normal / analytics=low.
//   -cache            bucket-keyed result cache (serve/result_cache.h):
//                     ok results are cached with the read-set of overlay
//                     buckets they touched; each ingest batch invalidates
//                     only intersecting entries. Per-kind hit counts and a
//                     cache summary line are reported after the trace.
//   -cache-entries <n>    cache capacity in entries (default 4096)
//   -subscribe <kind:u[:v]>   standing query: subscribe kind(u[,v]) and
//                     re-evaluate it whenever an ingest batch touches its
//                     read-set (implies -cache; repeatable). Delivery and
//                     drop counts per subscription are reported at exit.
//   -retries <k>      resubmit rejected queries up to k times (default 0)
//   -backoff-ms <t>   base for the jittered exponential backoff between
//                     retries (default 1 ms); counted in the obs registry
//                     as serve.query.retries
//   -metrics-json <path>  export the obs registry as a JSON snapshot:
//                     periodically (every few seconds) and at exit, written
//                     atomically (tmp + rename). Contains the ingest stage
//                     spans, per-kind query latency/queue-wait/execute
//                     histograms, and scheduler counters.
//   -metrics-port <p>     serve the same registry as Prometheus-style text
//                     on a local TCP port for live introspection
//                     (curl localhost:<p>); 0 picks an ephemeral port
//   -trace-out <path>     at exit, export the flight recorder's per-request
//                     event timelines (ingest stages, query spans, scheduler
//                     forks/steals, queue hand-off flows) as Chrome-trace /
//                     Perfetto JSON — load it at https://ui.perfetto.dev
//   -slow-trace-ms <t>    tail-sampled exemplars: retain the full event
//                     timeline of every query slower than t ms (bounded,
//                     slowest-K), reported at exit and embedded in the
//                     metrics JSON + trace export
//   -verify           after the trace: check the final version's CSR edge
//                     count, its connectivity labels against the static
//                     connectivity() of the final snapshot, and the
//                     connectivity refinement of the *fresh* dynamic_view
//                     against the same partition.
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <memory>
#include <string>

#include "algorithms/connectivity.h"
#include "bench_common.h"
#include "dynamic/stream.h"
#include "obs/exemplar.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_server.h"
#include "obs/trace_export.h"
#include "runner.h"
#include "serve/dynamic_view.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/sharded_ingest.h"
#include "serve/snapshot_manager.h"

namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::serve::query_result;

}  // namespace

int main(int argc, char** argv) {
  auto o = tools::parse(argc, argv);
  std::size_t batch_size = std::size_t{1} << 13;
  std::size_t readers = 4;
  std::size_t shards = 0;
  double read_ratio = 0.5;
  bool heavy = false;
  bool fresh = true;
  double slo_point_ms = 0;
  double slo_analytics_ms = 0;
  double deadline_ms = 0;
  std::size_t max_queue = 0;
  bool brownout = false;
  bool use_cache = false;
  std::size_t cache_entries = 4096;
  std::vector<std::string> subscribe_specs;
  int retries = 0;
  double backoff_ms = 1.0;
  std::string metrics_json;
  std::string trace_out;
  double slow_trace_ms = -1;
  int metrics_port = -1;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-batch") && i + 1 < argc) {
      batch_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-readers") && i + 1 < argc) {
      readers = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-shards") && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-read-ratio") && i + 1 < argc) {
      read_ratio = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "-heavy")) {
      heavy = true;
    } else if (!std::strcmp(argv[i], "-no-fresh")) {
      fresh = false;
    } else if (!std::strcmp(argv[i], "-slo-point") && i + 1 < argc) {
      slo_point_ms = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "-slo-analytics") && i + 1 < argc) {
      slo_analytics_ms = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "-deadline-ms") && i + 1 < argc) {
      deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "-max-queue") && i + 1 < argc) {
      max_queue = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-brownout")) {
      brownout = true;
    } else if (!std::strcmp(argv[i], "-cache")) {
      use_cache = true;
    } else if (!std::strcmp(argv[i], "-cache-entries") && i + 1 < argc) {
      cache_entries = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-subscribe") && i + 1 < argc) {
      subscribe_specs.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "-retries") && i + 1 < argc) {
      retries = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "-backoff-ms") && i + 1 < argc) {
      backoff_ms = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "-metrics-json") && i + 1 < argc) {
      metrics_json = argv[++i];
    } else if (!std::strcmp(argv[i], "-metrics-port") && i + 1 < argc) {
      metrics_port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "-trace-out") && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (!std::strcmp(argv[i], "-slow-trace-ms") && i + 1 < argc) {
      slow_trace_ms = std::strtod(argv[++i], nullptr);
    }
  }
  if (batch_size == 0) batch_size = 1;
  if (read_ratio < 0 || read_ratio >= 1) read_ratio = 0.5;
  const std::size_t queries_per_batch = static_cast<std::size_t>(
      static_cast<double>(batch_size) * read_ratio / (1 - read_ratio));

  // Flight recorder up before the first traced work (installs the
  // scheduler hook); exemplar threshold set from the flag (negative keeps
  // capture disabled).
  gbbs::obs::ensure_flight_recorder();
  if (slow_trace_ms >= 0) {
    gbbs::obs::exemplar_store::global().set_threshold_s(slow_trace_ms / 1e3);
  }

  // Observability exports (tentpole): both views of the same registry —
  // periodic/at-exit JSON snapshots and a live Prometheus-style endpoint.
  std::unique_ptr<gbbs::obs::metrics_json_writer> json_writer;
  if (!metrics_json.empty()) {
    json_writer =
        std::make_unique<gbbs::obs::metrics_json_writer>(metrics_json);
  }
  std::unique_ptr<gbbs::obs::metrics_server> metrics_srv;
  if (metrics_port >= 0) {
    metrics_srv = std::make_unique<gbbs::obs::metrics_server>(
        static_cast<std::uint16_t>(metrics_port));
    if (metrics_srv->ok()) {
      std::printf("metrics endpoint: http://127.0.0.1:%u/metrics\n",
                  metrics_srv->port());
    } else {
      std::fprintf(stderr, "metrics endpoint: failed to bind port %d\n",
                   metrics_port);
      metrics_srv.reset();
    }
  }

  auto g = tools::load_symmetric(o);
  const vertex_id n = g.num_vertices();
  auto stream_edges = gbbs::dynamic::undirected_stream_edges(g);

  // Standing-query specs: "<kind>:<u>[:<v>]" with the kind matched against
  // kQueryKindNames. Subscriptions ride on the cache's delta summaries, so
  // any spec implies -cache.
  std::vector<gbbs::serve::query> subscribe_queries;
  for (const std::string& spec : subscribe_specs) {
    const auto c1 = spec.find(':');
    bool spec_ok = c1 != std::string::npos && n > 0;
    gbbs::serve::query q;
    if (spec_ok) {
      const std::string kind_name = spec.substr(0, c1);
      spec_ok = false;
      for (std::size_t k = 0; k < gbbs::serve::kNumQueryKinds; ++k) {
        if (kind_name == gbbs::serve::kQueryKindNames[k]) {
          q.kind = static_cast<gbbs::serve::query_kind>(k);
          spec_ok = true;
          break;
        }
      }
      if (spec_ok) {
        q.u = static_cast<vertex_id>(
            std::strtoull(spec.c_str() + c1 + 1, nullptr, 10) % n);
        const auto c2 = spec.find(':', c1 + 1);
        if (c2 != std::string::npos) {
          q.v = static_cast<vertex_id>(
              std::strtoull(spec.c_str() + c2 + 1, nullptr, 10) % n);
        }
      }
    }
    if (!spec_ok) {
      std::fprintf(stderr,
                   "serve: bad -subscribe spec '%s' (want kind:u[:v])\n",
                   spec.c_str());
      continue;
    }
    subscribe_queries.push_back(q);
  }
  if (!subscribe_queries.empty()) use_cache = true;

  std::printf(
      "serve: n=%u, %zu streamed edges, batch=%zu, readers=%zu, "
      "%zu queries/batch%s%s",
      n, stream_edges.size(), batch_size, readers, queries_per_batch,
      heavy ? " (heavy mix)" : "", fresh ? "" : " (no fresh path)");
  if (shards > 0) std::printf(", %zu ingest shards", shards);
  std::printf("\n");

  // One round body shared by both ingest paths: the manager only needs
  // ingest/publish/current_version/store; the fresh-read source (single
  // overlay vs per-shard router), the end-of-stream flush, the compaction
  // count, and the verification are passed in by the dispatcher below.
  auto serve_round = [&](auto& mgr,
                         const gbbs::serve::overlay_view<empty_weight>*
                             overlay,
                         gbbs::serve::shard_router<empty_weight> router,
                         auto&& final_flush, auto&& count_compactions,
                         auto&& verify_round) -> std::string {
    gbbs::dynamic::edge_stream<empty_weight> stream(stream_edges);
    // What one client thread submitted: futures of admitted queries, and
    // results its retry loop resolved inline.
    struct client_log {
      std::vector<std::future<query_result>> futures;
      std::vector<query_result> results;
      std::uint64_t retries = 0;
    };
    client_log analytics_log, point_log;
    parlib::random rng(o.seed);
    const parlib::random jitter_rng = rng.fork(0x5a17);
    std::size_t updates = 0, batches = 0, qi = 0;
    double wall = 0;
    gbbs::serve::query_engine_options opts;
    opts.slo_point_s = slo_point_ms / 1e3;
    opts.slo_analytics_s = slo_analytics_ms / 1e3;
    opts.max_queue = max_queue;
    opts.brownout = brownout;
    // Per-round cache: each round gets a fresh manager (fresh epoch
    // domain), so the cache must be fresh too. Attach to the ingest side
    // *before* the first batch so every delta summary reaches it.
    std::unique_ptr<gbbs::serve::result_cache> cache;
    if (use_cache) {
      gbbs::serve::result_cache::options copt;
      copt.entries = cache_entries;
      cache = std::make_unique<gbbs::serve::result_cache>(copt);
      mgr.attach_cache(cache.get());
      opts.cache = cache.get();
    }
    std::vector<std::shared_ptr<gbbs::serve::subscription>> subs;
    std::array<gbbs::serve::query_engine<empty_weight>::kind_stats,
               gbbs::serve::kNumQueryKinds>
        kinds{};
    std::uint64_t reader_forks = 0;
    std::uint64_t shed = 0, degraded = 0, transitions = 0;
    auto& retry_ctr =
        gbbs::obs::registry::global().get_counter("serve.query.retries");
    {
      gbbs::serve::query_engine<empty_weight> engine(
          mgr.store(), overlay, readers, opts, std::move(router));
      for (const auto& sq : subscribe_queries) {
        subs.push_back(engine.subscribe(sq));
      }
      // Submit with bounded retry: a rejected submit (queue overflow or
      // brownout shed) resolves its future immediately, so readiness right
      // after submit is the reject signal. Jittered exponential backoff
      // between attempts keeps retry waves from re-saturating the queue in
      // lockstep.
      auto submit_with_retry = [&](client_log& log,
                                   const gbbs::serve::query& q,
                                   std::size_t salt) {
        auto fut = engine.submit(q);
        for (int attempt = 0; attempt < retries; ++attempt) {
          if (fut.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            break;  // admitted: a reader will resolve it
          }
          query_result r = fut.get();
          if (r.status != gbbs::serve::query_status::rejected) {
            log.results.push_back(std::move(r));
            return;
          }
          const double jitter =
              0.5 + static_cast<double>(
                        jitter_rng.ith_rand(
                            (salt << 3) + static_cast<std::size_t>(attempt)) %
                        1000) /
                        1000.0;
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  backoff_ms * static_cast<double>(1 << attempt) * jitter));
          ++log.retries;
          retry_ctr.add();
          fut = engine.submit(q);
        }
        log.futures.push_back(std::move(fut));
      };
      // Point reads go out from their own client thread. They execute on
      // the thread that submits them, where injected execution stalls
      // land, so sending them from the ingest thread would pace the
      // stream and the analytics behind it, and an overload run would
      // never fill the queue.
      std::mutex point_mu;
      std::condition_variable point_cv;
      std::vector<std::pair<gbbs::serve::query, std::size_t>> point_queue;
      bool point_done = false;
      std::thread point_client([&] {
        std::vector<std::pair<gbbs::serve::query, std::size_t>> work;
        for (;;) {
          {
            std::unique_lock<std::mutex> lock(point_mu);
            point_cv.wait(lock, [&] {
              return !point_queue.empty() || point_done;
            });
            if (point_queue.empty()) return;
            work.swap(point_queue);
          }
          for (const auto& [q, salt] : work) {
            submit_with_retry(point_log, q, salt);
          }
          work.clear();
        }
      });
      std::vector<std::pair<gbbs::serve::query, std::size_t>> batch_points;
      wall = bench::time_once([&] {
        while (!stream.done()) {
          auto raw = stream.next_inserts(batch_size);
          updates += raw.size();
          mgr.ingest(std::move(raw));
          mgr.publish();
          ++batches;
          for (std::size_t k = 0; k < queries_per_batch; ++k, ++qi) {
            auto q = gbbs::serve::make_mixed_query(rng, qi, n, heavy);
            q.deadline_s = deadline_ms / 1e3;
            // Brownout classing: point reads are the protected traffic,
            // analytics are sheddable first.
            if (gbbs::serve::is_point_read(q.kind)) {
              q.priority = gbbs::serve::query_priority::normal;
              batch_points.emplace_back(q, qi);
            } else {
              q.priority = gbbs::serve::query_priority::low;
              submit_with_retry(analytics_log, q, qi);
            }
          }
          if (!batch_points.empty()) {
            {
              std::lock_guard<std::mutex> lock(point_mu);
              point_queue.insert(point_queue.end(), batch_points.begin(),
                                 batch_points.end());
            }
            point_cv.notify_one();
            batch_points.clear();
          }
          rng = rng.next();
        }
        {
          std::lock_guard<std::mutex> lock(point_mu);
          point_done = true;
        }
        point_cv.notify_one();
        point_client.join();
        final_flush();
        engine.drain();
      });
      kinds = engine.latency_by_kind();
      reader_forks = engine.reader_forks();
      shed = engine.shed();
      degraded = engine.degraded_served();
      transitions = engine.degrade_transitions();
      // Snapshot the registry while the engine (and its attached per-kind
      // histograms) is still alive so the file holds the full breakdown;
      // detach-merge preserves them for the at-exit write as well.
      if (json_writer) json_writer->write_now();
    }

    std::vector<query_result> results;
    std::uint64_t retries_done = 0;
    for (client_log* log : {&analytics_log, &point_log}) {
      for (auto& r : log->results) results.push_back(std::move(r));
      for (auto& f : log->futures) results.push_back(f.get());
      retries_done += log->retries;
    }
    std::vector<double> latencies;
    latencies.reserve(results.size());
    std::array<std::uint64_t, gbbs::serve::kNumQueryStatuses> by_status{};
    for (const auto& r : results) {
      const auto s = static_cast<std::size_t>(r.status);
      if (s < by_status.size()) ++by_status[s];
      // Only served queries are latency samples; a rejected/timed-out
      // resolution would drag the percentiles toward its (tiny or
      // truncated) turnaround time.
      if (r.status == gbbs::serve::query_status::ok) {
        latencies.push_back(r.latency_s);
      }
    }
    const auto stats = bench::summarize(std::move(latencies));

    // Per-kind latency / SLO accounting, with the end-to-end latency
    // decomposed into queue wait (submit -> dequeue) and execute: a fat
    // qw-p99 with a thin exec-p99 means the reader pool is saturated, not
    // that queries got slower.
    std::printf("%-20s %8s %9s %9s %9s %9s %9s %9s %8s", "kind", "count",
                "p50(ms)", "p99(ms)", "qw-p50", "qw-p99", "ex-p50", "ex-p99",
                "slo-viol");
    if (cache) std::printf(" %8s %6s", "hits", "hit%");
    std::printf("\n");
    for (std::size_t k = 0; k < gbbs::serve::kNumQueryKinds; ++k) {
      if (kinds[k].count == 0) continue;
      std::printf(
          "%-20s %8llu %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %8llu",
          gbbs::serve::query_kind_name(
              static_cast<gbbs::serve::query_kind>(k)),
          static_cast<unsigned long long>(kinds[k].count),
          kinds[k].p50_s * 1e3, kinds[k].p99_s * 1e3,
          kinds[k].queue_p50_s * 1e3, kinds[k].queue_p99_s * 1e3,
          kinds[k].exec_p50_s * 1e3, kinds[k].exec_p99_s * 1e3,
          static_cast<unsigned long long>(kinds[k].slo_violations));
      if (cache) {
        const auto kind = static_cast<gbbs::serve::query_kind>(k);
        const std::uint64_t kh = cache->kind_hits(kind);
        const std::uint64_t km = cache->kind_misses(kind);
        std::printf(" %8llu %5.1f%%",
                    static_cast<unsigned long long>(kh),
                    kh + km ? 100.0 * static_cast<double>(kh) /
                                  static_cast<double>(kh + km)
                            : 0.0);
      }
      std::printf("\n");
    }

    // Scheduler participation: forks reader threads placed on their own
    // deques.
    std::printf("reader-deque forks %llu\n",
                static_cast<unsigned long long>(reader_forks));

    // How every submitted query resolved, plus the brownout/retry story.
    // `unavailable` nonzero means readers found nothing published to serve
    // from — previously a silently-empty result, now a visible status.
    std::printf(
        "status: ok=%llu rejected=%llu timed_out=%llu cancelled=%llu "
        "unavailable=%llu | shed=%llu degraded=%llu degrade-transitions=%llu "
        "retries=%llu\n",
        static_cast<unsigned long long>(
            by_status[static_cast<std::size_t>(gbbs::serve::query_status::ok)]),
        static_cast<unsigned long long>(by_status[static_cast<std::size_t>(
            gbbs::serve::query_status::rejected)]),
        static_cast<unsigned long long>(by_status[static_cast<std::size_t>(
            gbbs::serve::query_status::timed_out)]),
        static_cast<unsigned long long>(by_status[static_cast<std::size_t>(
            gbbs::serve::query_status::cancelled)]),
        static_cast<unsigned long long>(by_status[static_cast<std::size_t>(
            gbbs::serve::query_status::unavailable)]),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(degraded),
        static_cast<unsigned long long>(transitions),
        static_cast<unsigned long long>(retries_done));

    // Cache effectiveness and subscription delivery, from the same obs
    // counters the metrics JSON exports (serve.cache.*).
    if (cache) {
      const std::uint64_t h = cache->hits();
      const std::uint64_t m = cache->misses();
      std::printf(
          "cache: hits=%llu misses=%llu hit-ratio=%.3f invalidations=%llu "
          "entries=%llu/%llu\n",
          static_cast<unsigned long long>(h),
          static_cast<unsigned long long>(m),
          h + m ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0,
          static_cast<unsigned long long>(cache->invalidations()),
          static_cast<unsigned long long>(cache->entries()),
          static_cast<unsigned long long>(cache->capacity()));
    }
    for (const auto& sp : subs) {
      if (!sp) continue;
      const auto& wq = sp->watched();
      std::printf("subscription %s(u=%u, v=%u): delivered=%llu dropped=%llu\n",
                  gbbs::serve::query_kind_name(wq.kind), wq.u, wq.v,
                  static_cast<unsigned long long>(sp->delivered()),
                  static_cast<unsigned long long>(sp->dropped()));
    }

    char buf[240];
    std::snprintf(
        buf, sizeof(buf),
        "%zu batches, %zu versions (%zu compactions) | updates %.2f Mups | "
        "queries %zu @ %.1f kq/s | latency ms p50=%.3f p90=%.3f p99=%.3f "
        "max=%.3f",
        batches, static_cast<std::size_t>(mgr.current_version()),
        count_compactions(), static_cast<double>(updates) / wall / 1e6,
        stats.count, static_cast<double>(stats.count) / wall / 1e3,
        stats.p50 * 1e3, stats.p90 * 1e3, stats.p99 * 1e3, stats.max * 1e3);

    if (o.verify) tools::report_verification("serve", verify_round());
    return std::string(buf);
  };

  tools::run_rounds("serve", o, [&]() -> std::string {
    if (shards > 0) {
      gbbs::serve::sharded_snapshot_manager<empty_weight> mgr(
          n, {.num_shards = shards});
      // Composite verification: the stitched CSR's edge count and the
      // barrier-merged component partition against a from-scratch static
      // connectivity over the same composite view.
      auto verify = [&]() -> bool {
        auto snap = mgr.pin();
        bool ok = snap && snap.view().num_edges() == 2 * stream_edges.size();
        ok = ok && gbbs::same_partition(
                       snap.components().materialize(snap.num_vertices()),
                       gbbs::connectivity(snap.view()));
        return ok;
      };
      return serve_round(
          mgr, nullptr,
          fresh ? mgr.router() : gbbs::serve::shard_router<empty_weight>{},
          [&] { mgr.flush(); },
          [&] {
            std::size_t c = 0;
            for (std::size_t s = 0; s < mgr.num_shards(); ++s) {
              c += mgr.shard_graph(s).num_compactions();
            }
            return c;
          },
          verify);
    }
    gbbs::serve::snapshot_manager<empty_weight> mgr(n);
    auto verify = [&]() -> bool {
      auto snap = mgr.pin();
      bool ok = snap && snap.view().num_edges() == 2 * stream_edges.size();
      const auto static_labels = gbbs::connectivity(snap.view());
      ok = ok && gbbs::same_partition(
                     snap.components().materialize(snap.num_vertices()),
                     static_labels);
      // Connectivity refinement on the *fresh* overlay-fused view: the
      // final overlay index describes the same live graph, so a
      // from-scratch traversal over it must produce the same partition.
      if (auto idx = mgr.overlay().read()) {
        gbbs::serve::dynamic_view<empty_weight> dv(idx);
        ok = ok && gbbs::same_partition(gbbs::connectivity(dv),
                                        static_labels);
      }
      return ok;
    };
    return serve_round(
        mgr, fresh ? &mgr.overlay() : nullptr,
        gbbs::serve::shard_router<empty_weight>{}, [] {},
        [&] { return mgr.num_compactions(); }, verify);
  });

  // At-exit observability artifacts: the slowest-query exemplar report
  // (each retained request with its stage breakdown) and the Perfetto
  // export of everything the recorder still holds.
  if (slow_trace_ms >= 0) {
    const std::string report = gbbs::obs::exemplar_store::global().report();
    if (report.empty()) {
      std::printf("slow-query exemplars: none over %.3g ms\n",
                  slow_trace_ms);
    } else {
      std::fputs(report.c_str(), stdout);
    }
  }
  if (!trace_out.empty()) {
    if (gbbs::obs::write_chrome_trace(trace_out)) {
      std::printf("trace written: %s (%llu events, %llu dropped)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(
                      gbbs::obs::flight_recorder::global().events_recorded()),
                  static_cast<unsigned long long>(
                      gbbs::obs::flight_recorder::global().events_dropped()));
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", trace_out.c_str());
    }
  }
  return 0;
}

// Tests for the observability layer: worker-sharded counters and
// histograms (concurrent increment/snapshot correctness — runs in the
// TSan CI job), histogram quantiles against the exact obs::percentile
// reference, trace-span nesting, the registry's process-wide event counts
// (exported from the start, one add per edge_map call), the registry's
// attach/detach-merge lifecycle, both render formats, and the live
// metrics endpoint end-to-end over a real socket.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "dynamic/update_batch.h"
#include "graph/edge_map.h"
#include "graph/graph_builder.h"
#include "obs/exemplar.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "obs/registry.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "parlib/atomics.h"
#include "parlib/scheduler.h"
#include "parlib/trace_hooks.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/snapshot_manager.h"

namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::obs::histogram;

// Multi-worker scheduler even on 1-core CI hosts (same pattern as
// test_scheduler.cc) so sharded cells actually spread across slots. A
// small flight-recorder ring (set before the recorder's lazy init) makes
// the wraparound test cheap and deterministic.
struct force_workers {
  force_workers() {
    parlib::scheduler::set_num_workers(4);
    ::setenv("GBBS_TRACE_EVENTS", "512", 1);
  }
};
const force_workers kForceWorkers;

// ---- sharded counter -------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExact) {
  gbbs::obs::counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Unregistered threads share the overflow slot; registered ones get
      // their own — both must count exactly.
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  // Concurrent reads must be safe (values racy, never torn/crashing).
  for (int r = 0; r < 100; ++r) {
    EXPECT_LE(c.value(), kThreads * kPerThread);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, RegisteredWorkersUseOwnSlots) {
  gbbs::obs::counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      parlib::worker_guard wg;
      for (int i = 0; i < 1000; ++i) c.add(2);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 3u * 1000u * 2u);
}

// ---- histogram -------------------------------------------------------------

TEST(ObsHistogram, BucketIndexLayout) {
  // Exact unit buckets below 8 ns.
  for (std::uint64_t ns = 0; ns < 8; ++ns) {
    EXPECT_EQ(histogram::bucket_index(ns), ns);
  }
  // Monotone non-decreasing, and every index within range.
  std::size_t prev = 0;
  for (std::uint64_t ns = 0; ns < (1u << 20); ns += 97) {
    const std::size_t idx = histogram::bucket_index(ns);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, histogram::kBuckets);
    prev = idx;
  }
  EXPECT_LT(histogram::bucket_index(~std::uint64_t{0}), histogram::kBuckets);
}

TEST(ObsHistogram, QuantilesMatchExactPercentileReference) {
  histogram h;
  std::vector<double> samples_s;
  // Deterministic values spanning ~6 octaves (1us .. 64us-ish) with a
  // skewed tail, the shape of a real latency distribution.
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t ns = 1000 + x % 64000;
    h.record_ns(ns);
    samples_s.push_back(static_cast<double>(ns) / 1e9);
  }
  std::sort(samples_s.begin(), samples_s.end());
  const auto s = h.read();
  EXPECT_EQ(s.count, samples_s.size());
  // max is exact; sum is exact.
  EXPECT_DOUBLE_EQ(s.max_s, samples_s.back());
  double sum = 0;
  for (double v : samples_s) sum += v;
  EXPECT_NEAR(s.sum_s, sum, 1e-12);
  // Quantiles within ~6% relative of the exact interpolated reference
  // (bucket width is <= 12.5%; the estimate interpolates inside the
  // bucket, so half-width is the honest bound — allow 10% for slack).
  const double tol = 0.10;
  EXPECT_NEAR(s.p50_s, gbbs::obs::percentile(samples_s, 0.50),
              tol * gbbs::obs::percentile(samples_s, 0.50));
  EXPECT_NEAR(s.p90_s, gbbs::obs::percentile(samples_s, 0.90),
              tol * gbbs::obs::percentile(samples_s, 0.90));
  EXPECT_NEAR(s.p99_s, gbbs::obs::percentile(samples_s, 0.99),
              tol * gbbs::obs::percentile(samples_s, 0.99));
}

TEST(ObsHistogram, ConcurrentRecordAndSnapshotStress) {
  histogram h;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 30000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record_ns(static_cast<std::uint64_t>(t) * 1000 + i % 512);
      }
    });
  }
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto s = h.read();
      EXPECT_LE(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsHistogram, MergeFromFoldsContents) {
  histogram a, b;
  a.record_ns(1000);
  a.record_ns(2000);
  b.record_ns(4000);
  a.merge_from(b);
  const auto s = a.read();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.max_s, 4000 / 1e9);
  EXPECT_NEAR(s.sum_s, 7000 / 1e9, 1e-12);
}

// ---- trace spans -----------------------------------------------------------

TEST(ObsTrace, SpansNestAndRecord) {
  auto& reg = gbbs::obs::registry::global();
  histogram& outer = reg.get_histogram("span.test.outer");
  histogram& inner = reg.get_histogram("span.test.inner");
  const auto outer_before = outer.count();
  const auto inner_before = inner.count();
  EXPECT_EQ(gbbs::obs::trace_span::depth(), 0);
  {
    gbbs::obs::trace_span a(outer);
    EXPECT_EQ(gbbs::obs::trace_span::depth(), 1);
    {
      gbbs::obs::trace_span b(inner);
      EXPECT_EQ(gbbs::obs::trace_span::depth(), 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(gbbs::obs::trace_span::depth(), 1);
  }
  EXPECT_EQ(gbbs::obs::trace_span::depth(), 0);
  EXPECT_EQ(outer.count(), outer_before + 1);
  EXPECT_EQ(inner.count(), inner_before + 1);
  // Timing sanity: outer contains inner's 5ms sleep; both nonzero.
  const auto so = outer.read();
  const auto si = inner.read();
  EXPECT_GE(si.max_s, 0.004);
  EXPECT_GE(so.max_s, si.max_s * 0.5);
}

// ---- registry --------------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsStableReferences) {
  auto& reg = gbbs::obs::registry::global();
  auto& c1 = reg.get_counter("test.stable_counter");
  auto& c2 = reg.get_counter("test.stable_counter");
  EXPECT_EQ(&c1, &c2);
  auto& h1 = reg.get_histogram("test.stable_hist");
  auto& h2 = reg.get_histogram("test.stable_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, AttachedHistogramSurvivesDetachViaMerge) {
  auto& reg = gbbs::obs::registry::global();
  const std::string name = "test.attach_merge";
  {
    histogram local;
    auto handle = reg.attach_histogram(name, &local);
    local.record_ns(10000);
    local.record_ns(20000);
    local.record_ns(30000);
    // While attached: visible in snapshots.
    const auto snap = reg.read();
    bool found = false;
    for (const auto& [n, h] : snap.histograms) {
      if (n == name) {
        found = true;
        EXPECT_EQ(h.count, 3u);
      }
    }
    EXPECT_TRUE(found);
  }  // handle detaches, then `local` dies
  // After the owner is gone the totals persist (merged into an
  // registry-owned histogram of the same name) — the property the
  // at-exit -metrics-json write depends on.
  const auto snap = reg.read();
  bool found = false;
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) {
      found = true;
      EXPECT_EQ(h.count, 3u);
      EXPECT_DOUBLE_EQ(h.max_s, 30000 / 1e9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsRegistry, RuntimeBridgeExportsSchedulerState) {
  const auto snap = gbbs::obs::registry::global().read();
  auto counter_present = [&](const std::string& name) {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(counter_present("sched.steals"));
  EXPECT_TRUE(counter_present("sched.inline_fallbacks"));
  EXPECT_TRUE(counter_present("sched.reader_forks"));
  EXPECT_TRUE(counter_present("edgemap.slots_written"));
  bool workers_gauge = false;
  for (const auto& [n, v] : snap.gauges) {
    if (n == "sched.num_workers") {
      workers_gauge = true;
      EXPECT_EQ(v, 4);
    }
  }
  EXPECT_TRUE(workers_gauge);
}

// The value of a counter in a global registry snapshot, or -1 if the
// snapshot does not list it.
std::int64_t global_counter(const std::string& name) {
  for (const auto& [n, v] : gbbs::obs::registry::global().read().counters) {
    if (n == name) return static_cast<std::int64_t>(v);
  }
  return -1;
}

// The process-wide event counts and the scheduler's participation counts
// are listed from the start, and one edge_map call adds exactly the edges
// it examined (the out-degree sum of a sparse round's frontier).
TEST(ObsRegistry, EventCountsListedAndEdgeMapCountedOnce) {
  for (const char* name :
       {"edgemap.slots_written", "edgemap.edges_examined",
        "edgemap.dense_vertices",
        "parlib.fetch_add_ops", "parlib.histogram_calls",
        "serve.merged_csr_materializations", "sched.external_registrations",
        "sched.unregistered_pardos", "sched.reader_forks",
        "sched.inline_fallbacks"}) {
    EXPECT_GE(global_counter(name), 0) << name;
  }
  // A 6-vertex star plus one spoke-to-spoke edge: the hub has degree 5.
  std::vector<gbbs::edge<empty_weight>> edges;
  for (vertex_id v = 1; v < 6; ++v) edges.push_back({0, v, {}});
  edges.push_back({1, 2, {}});
  const auto g = gbbs::build_symmetric_graph<empty_weight>(6, edges);
  struct visit_f {
    std::vector<std::uint8_t>* visited;
    bool update(vertex_id, vertex_id v, empty_weight) const {
      return update_atomic(0, v, {});
    }
    bool update_atomic(vertex_id, vertex_id v, empty_weight) const {
      return parlib::test_and_set(&(*visited)[v]);
    }
    bool cond(vertex_id v) const {
      return std::atomic_ref<std::uint8_t>((*visited)[v]).load(
                 std::memory_order_relaxed) == 0;
    }
  };
  std::vector<std::uint8_t> visited(6, 0);
  visited[0] = 1;
  gbbs::vertex_subset frontier(6, vertex_id{0});
  const std::int64_t before = global_counter("edgemap.edges_examined");
  const auto next = gbbs::edge_map(g, frontier, visit_f{&visited},
                                   gbbs::edge_map_direction::sparse);
  EXPECT_EQ(next.size(), 5u);
  EXPECT_EQ(global_counter("edgemap.edges_examined"),
            before + static_cast<std::int64_t>(g.out_degree(0)));
}

TEST(ObsRegistry, RendersJsonAndPrometheus) {
  auto& reg = gbbs::obs::registry::global();
  reg.get_counter("test.render_counter").add(7);
  reg.get_histogram("test.render_hist").record_ns(5000);
  const auto snap = reg.read();
  const std::string json = gbbs::obs::registry::to_json(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.render_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.render_hist\""), std::string::npos);
  // Balanced braces — cheap structural sanity (CI validates with a real
  // JSON parser on the exported file).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  const std::string prom = gbbs::obs::registry::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE gbbs_test_render_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("gbbs_test_render_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("gbbs_sched_num_workers"), std::string::npos);
}

TEST(ObsRegistry, WriteJsonIsAtomicAndParsable) {
  const std::string path = "test_obs_metrics.json";
  ASSERT_TRUE(gbbs::obs::registry::global().write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string doc;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) doc.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
}

// ---- live endpoint ---------------------------------------------------------

TEST(ObsMetricsServer, ServesPrometheusTextOverTcp) {
  gbbs::obs::metrics_server srv(/*port=*/0);  // kernel-assigned port
  ASSERT_TRUE(srv.ok());
  ASSERT_NE(srv.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, req, sizeof(req) - 1, 0),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("gbbs_sched_num_workers"), std::string::npos);
  EXPECT_NE(resp.find("# TYPE"), std::string::npos);
}

// Hostile clients must not wedge or kill the accept thread: connect-and-
// close without sending, a partial request followed by close, and a
// client that never reads the response (SIGPIPE/EPIPE path) — a normal
// request afterwards is still served.
TEST(ObsMetricsServer, SurvivesAbusiveClients) {
  gbbs::obs::metrics_server srv(/*port=*/0);
  ASSERT_TRUE(srv.ok());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  auto dial = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };

  // 1) Connect and immediately close without sending anything.
  ::close(dial());
  // 2) Partial request line, then close mid-request.
  {
    const int fd = dial();
    ::send(fd, "GET /met", 8, MSG_NOSIGNAL);
    ::close(fd);
  }
  // 3) Full request but the client disappears without reading the
  //    response: the server's sends hit a dead peer (EPIPE, not SIGPIPE).
  {
    const int fd = dial();
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    ::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL);
    ::close(fd);
  }

  // The server is still alive and serves a well-formed response.
  const int fd = dial();
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, req, sizeof(req) - 1, 0),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("charset=utf-8"), std::string::npos);
}

// ---- pipeline integration --------------------------------------------------

TEST(ObsPipeline, IngestRecordsStageSpans) {
  auto& reg = gbbs::obs::registry::global();
  const auto normalize_before =
      reg.get_histogram("span.ingest.normalize").count();
  const auto apply_before = reg.get_histogram("span.ingest.apply").count();
  const auto cc_before =
      reg.get_histogram("span.ingest.connectivity").count();
  const auto refresh_before =
      reg.get_histogram("span.ingest.overlay_refresh").count();
  const auto publish_before =
      reg.get_histogram("span.ingest.publish").count();

  const vertex_id n = 64;
  gbbs::serve::snapshot_manager<empty_weight> mgr(n);
  for (int b = 0; b < 3; ++b) {
    std::vector<gbbs::dynamic::update<empty_weight>> raw;
    for (vertex_id u = 0; u < n - 1; ++u) {
      raw.push_back({u, static_cast<vertex_id>(u + 1 + b) % n, {},
                     gbbs::dynamic::update_op::insert});
    }
    mgr.ingest(std::move(raw));
    mgr.publish();
  }
  EXPECT_GE(reg.get_histogram("span.ingest.normalize").count(),
            normalize_before + 3);
  EXPECT_GE(reg.get_histogram("span.ingest.apply").count(),
            apply_before + 3);
  EXPECT_GE(reg.get_histogram("span.ingest.connectivity").count(),
            cc_before + 3);
  EXPECT_GE(reg.get_histogram("span.ingest.overlay_refresh").count(),
            refresh_before + 3);
  EXPECT_GE(reg.get_histogram("span.ingest.publish").count(),
            publish_before + 3);
}

TEST(ObsPipeline, QueryEngineReportsQueueWaitBreakdown) {
  const vertex_id n = 256;
  gbbs::serve::snapshot_manager<empty_weight> mgr(n);
  std::vector<gbbs::dynamic::update<empty_weight>> raw;
  for (vertex_id u = 0; u < n - 1; ++u) {
    raw.push_back({u, u + 1, {}, gbbs::dynamic::update_op::insert});
  }
  mgr.ingest(std::move(raw));
  mgr.publish();

  std::array<gbbs::serve::query_engine<empty_weight>::kind_stats,
             gbbs::serve::kNumQueryKinds>
      kinds{};
  {
    gbbs::serve::query_engine<empty_weight> engine(mgr.store(),
                                                   &mgr.overlay(), 2);
    std::vector<std::future<gbbs::serve::query_result>> futures;
    parlib::random rng(7);
    for (std::size_t qi = 0; qi < 200; ++qi) {
      futures.push_back(
          engine.submit(gbbs::serve::make_mixed_query(rng, qi, n)));
    }
    for (auto& f : futures) f.get();
    engine.drain();
    kinds = engine.latency_by_kind();
  }
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < gbbs::serve::kNumQueryKinds; ++k) {
    total += kinds[k].count;
    if (kinds[k].count == 0) continue;
    // Stage percentiles are populated and internally sane: each stage is
    // bounded by the end-to-end p99 ballpark (queue + exec <= total up to
    // bucket-quantization slack).
    EXPECT_GT(kinds[k].p99_s, 0.0);
    EXPECT_GE(kinds[k].queue_p99_s, 0.0);
    EXPECT_GT(kinds[k].exec_p99_s, 0.0);
    EXPECT_LE(kinds[k].queue_p50_s + kinds[k].exec_p50_s,
              kinds[k].p99_s * 2.5 + 1e-4);
  }
  EXPECT_EQ(total, 200u);
  // The per-kind histograms outlive the engine via detach-merge: the
  // registry snapshot still carries them (what -metrics-json exports at
  // exit).
  const auto snap = gbbs::obs::registry::global().read();
  std::uint64_t snap_total = 0;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("serve.query.latency.", 0) == 0) snap_total += h.count;
  }
  EXPECT_GE(snap_total, 200u);
}

// Engine event counters are attached to the registry: live engines sum
// under one name, and each engine's count folds into the registry when it
// is destroyed, so the total survives both.
TEST(ObsPipeline, EngineCountersSumAcrossEnginesAndSurviveDetach) {
  // Absent until the first engine detaches (-1): count that as 0.
  const std::int64_t unavailable_before =
      std::max<std::int64_t>(0, global_counter("serve.query.unavailable"));
  const std::int64_t forks_before = global_counter("sched.reader_forks");
  gbbs::serve::snapshot_store<empty_weight> store;  // nothing published
  using engine = gbbs::serve::query_engine<empty_weight>;
  auto a = std::make_unique<engine>(store, 1);
  auto b = std::make_unique<engine>(store, 1);
  const gbbs::serve::query q{gbbs::serve::query_kind::degree, 0, 0};
  a->submit(q).get();
  b->submit(q).get();
  b->submit(q).get();
  EXPECT_EQ(a->unavailable(), 1u);
  EXPECT_EQ(b->unavailable(), 2u);
  // Publish a star: BFS from the hub has an (n-1)-vertex frontier, so
  // each engine's reader forks onto its own deque.
  const vertex_id n = 20000;
  std::vector<gbbs::edge<empty_weight>> spokes;
  for (vertex_id u = 1; u < n; ++u) spokes.push_back({0, u, {}});
  store.publish(gbbs::build_symmetric_graph<empty_weight>(n, spokes),
                std::vector<vertex_id>(n, 0));
  const gbbs::serve::query bfs{gbbs::serve::query_kind::bfs_distance, 0,
                               n - 1};
  EXPECT_EQ(a->submit(bfs).get().value, 1u);
  EXPECT_EQ(b->submit(bfs).get().value, 1u);
  const auto forks = static_cast<std::int64_t>(a->reader_forks() +
                                               b->reader_forks());
  EXPECT_GT(a->reader_forks(), 0u);
  EXPECT_GT(b->reader_forks(), 0u);
  const auto expect_totals = [&] {
    EXPECT_EQ(global_counter("serve.query.unavailable"),
              unavailable_before + 3);
    EXPECT_EQ(global_counter("sched.reader_forks"), forks_before + forks);
  };
  expect_totals();
  a.reset();
  expect_totals();
  b.reset();
  expect_totals();
}

// ---- flight recorder -------------------------------------------------------

using gbbs::obs::event_type;
using gbbs::obs::flight_recorder;
using gbbs::obs::recorded_event;

// Ring wraparound: with the 512-entry test rings, emitting 3x capacity
// keeps only the newest events, and the dropped counter accounts for the
// overwritten ones exactly — wraparound is never silent.
TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDropped) {
  auto& fr = flight_recorder::global();
  ASSERT_EQ(fr.capacity(), 512u);
  const std::uint64_t tid = fr.next_trace_id();
  parlib::trace::trace_id_scope scope(tid);
  const std::uint64_t dropped_before = fr.events_dropped();
  const std::uint64_t recorded_before = fr.events_recorded();
  const std::size_t kEmits = 3 * 512;
  for (std::size_t i = 0; i < kEmits; ++i) {
    fr.emit(event_type::instant, 0, /*arg_b=*/i);
  }
  EXPECT_EQ(fr.events_recorded() - recorded_before, kEmits);
  // This thread's ring had already absorbed events from earlier tests, so
  // the drop delta is at least the overflow beyond one full ring.
  EXPECT_GE(fr.events_dropped() - dropped_before, kEmits - 512);

  const auto timeline = fr.snapshot_trace(tid);
  ASSERT_FALSE(timeline.empty());
  EXPECT_LE(timeline.size(), 512u);
  bool saw_last = false, saw_first = false;
  for (const auto& ev : timeline) {
    if (ev.arg_b == kEmits - 1) saw_last = true;
    if (ev.arg_b == 0) saw_first = true;
  }
  EXPECT_TRUE(saw_last);   // newest survives
  EXPECT_FALSE(saw_first); // oldest was overwritten
}

// Concurrent writers + snapshots: every decoded event is internally
// consistent (type in range, trace id one of the writers', payload
// matching the id), no matter how the snapshot races the wraparound.
// All event fields are relaxed atomics under a per-entry seqlock — this
// is the test the TSan CI job leans on.
TEST(FlightRecorder, ConcurrentWritersAndSnapshotsStayConsistent) {
  auto& fr = flight_recorder::global();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::array<std::uint64_t, kWriters> ids{};
  for (int w = 0; w < kWriters; ++w) ids[w] = fr.next_trace_id();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Registered: each writer gets its own ring (single-writer path);
      // the last writer stays unregistered to also cover the shared
      // overflow ring's multi-writer fetch_add claim.
      std::unique_ptr<parlib::worker_guard> guard;
      if (w != kWriters - 1) {
        guard = std::make_unique<parlib::worker_guard>();
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        fr.emit_with_id(event_type::instant, ids[w],
                        static_cast<std::uint32_t>(w), ids[w] ^ i);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& ev : fr.snapshot()) {
        ASSERT_LE(static_cast<std::uint32_t>(ev.type),
                  static_cast<std::uint32_t>(event_type::sched_inline));
        for (int w = 0; w < kWriters; ++w) {
          if (ev.trace_id != ids[w]) continue;
          // A decoded entry is never a torn mix of two writes: the
          // payload must be self-consistent with the trace id.
          ASSERT_EQ(ev.arg_a, static_cast<std::uint32_t>(w));
          ASSERT_LT(ev.arg_b ^ ev.trace_id, kPerWriter);
        }
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
}

// Trace-id propagation across a real steal: a registered external thread
// forks under a trace id; when a native worker steals the branch, the
// events emitted *inside the stolen task* — and the scheduler's own
// run_begin — still carry the originating request's id.
TEST(FlightRecorder, StolenTaskCarriesOriginatingTraceId) {
  auto& fr = flight_recorder::global();
  ASSERT_GE(parlib::scheduler::instance().num_workers(), 2u);
  const std::uint32_t marker = fr.intern("test.stolen_marker");
  bool steal_observed = false;
  for (int attempt = 0; attempt < 300 && !steal_observed; ++attempt) {
    const std::uint64_t tid = fr.next_trace_id();
    std::thread th([&] {
      parlib::worker_guard guard;
      ASSERT_TRUE(guard.registered());
      parlib::trace::trace_id_scope scope(tid);
      std::atomic<bool> right_ran{false};
      parlib::par_do(
          [&] {
            // Give a thief time to grab the right branch; bounded so an
            // un-stolen attempt finishes quickly and retries.
            for (std::size_t spin = 0;
                 spin < (std::size_t{1} << 22) &&
                 !right_ran.load(std::memory_order_acquire);
                 ++spin) {
            }
          },
          [&] {
            // Runs either stolen (on a native worker, trace id adopted
            // from job::trace_id) or locally (scope still active) — the
            // emitted event must carry `tid` both ways.
            fr.emit(event_type::instant, marker, 0);
            right_ran.store(true, std::memory_order_release);
          });
    });
    th.join();
    const auto timeline = fr.snapshot_trace(tid);
    bool marker_ok = false;
    std::uint32_t marker_slot = 0, steal_slot = 1;
    bool stolen = false;
    for (const auto& ev : timeline) {
      if (ev.type == event_type::instant && ev.arg_a == marker) {
        marker_ok = true;
        marker_slot = ev.slot;
      }
      if (ev.type == event_type::sched_run_begin) {
        stolen = true;  // only thieves emit run_begin
        steal_slot = ev.slot;
      }
    }
    ASSERT_TRUE(marker_ok) << "stolen-or-local marker lost its trace id";
    if (stolen) {
      // The steal happened on a different participant than the forker,
      // yet both the scheduler event and the in-task marker carry tid
      // (that is what snapshot_trace filtered on).
      EXPECT_EQ(marker_slot, steal_slot);
      steal_observed = true;
    }
  }
  EXPECT_TRUE(steal_observed)
      << "no steal in 300 attempts on a 4-worker scheduler";
}

// ---- exemplar store --------------------------------------------------------

TEST(ExemplarStore, ThresholdAndBoundedTopK) {
  auto& store = gbbs::obs::exemplar_store::global();
  auto& fr = flight_recorder::global();
  store.clear();
  store.set_threshold_s(0.010);

  // Below threshold: never captured.
  EXPECT_FALSE(store.maybe_capture(fr.next_trace_id(), "fast", 0.005));
  EXPECT_EQ(store.captured_count(), 0u);

  // Above threshold: captured, slowest-first, bounded at kMaxExemplars.
  const std::size_t kOver = gbbs::obs::exemplar_store::kMaxExemplars + 5;
  for (std::size_t i = 0; i < kOver; ++i) {
    const std::uint64_t tid = fr.next_trace_id();
    parlib::trace::trace_id_scope scope(tid);
    fr.emit(event_type::instant, fr.intern("test.exemplar_event"), i);
    EXPECT_TRUE(
        store.maybe_capture(tid, "slow", 0.010 + 0.001 * (double)(i + 1)));
  }
  const auto exs = store.snapshot();
  ASSERT_EQ(exs.size(), gbbs::obs::exemplar_store::kMaxExemplars);
  // Slowest retained and sorted descending; each kept its own timeline.
  for (std::size_t i = 0; i + 1 < exs.size(); ++i) {
    EXPECT_GE(exs[i].latency_s, exs[i + 1].latency_s);
  }
  EXPECT_NEAR(exs.front().latency_s, 0.010 + 0.001 * kOver, 1e-9);
  for (const auto& ex : exs) {
    EXPECT_EQ(ex.label, "slow");
    ASSERT_EQ(ex.timeline.size(), 1u);
    EXPECT_EQ(ex.timeline[0].trace_id, ex.trace_id);
  }
  // A new capture slower than everything displaces the fastest retained;
  // one not beating the floor is rejected.
  EXPECT_FALSE(store.maybe_capture(fr.next_trace_id(), "meh", 0.0101));
  EXPECT_TRUE(store.maybe_capture(fr.next_trace_id(), "worst", 1.0));
  EXPECT_EQ(store.snapshot().front().label, "worst");
  EXPECT_EQ(store.snapshot().size(),
            gbbs::obs::exemplar_store::kMaxExemplars);

  // Disabled store captures nothing.
  store.set_threshold_s(-1);
  EXPECT_FALSE(store.maybe_capture(fr.next_trace_id(), "late", 9.0));
  store.clear();
}

// End-to-end: a serving session with a zero threshold tail-samples real
// queries, and each exemplar's timeline is the query's own events (the
// per-kind execute span from the reader thread).
TEST(ExemplarStore, CapturesRealQueryTimelines) {
  auto& store = gbbs::obs::exemplar_store::global();
  store.clear();
  store.set_threshold_s(0.0);  // every completed query qualifies
  {
    gbbs::serve::snapshot_manager<empty_weight> mgr(64);
    std::vector<gbbs::dynamic::update<empty_weight>> ups;
    for (vertex_id v = 0; v + 1 < 64; ++v) {
      ups.push_back({v, v + 1, {}, gbbs::dynamic::update_op::insert});
    }
    mgr.ingest(std::move(ups));
    mgr.publish();
    gbbs::serve::query_engine<empty_weight> engine(mgr.store(),
                                                   &mgr.overlay(), 2);
    std::vector<std::future<gbbs::serve::query_result>> futs;
    for (int i = 0; i < 24; ++i) {
      gbbs::serve::query q;
      q.kind = gbbs::serve::query_kind::bfs_distance;
      q.u = static_cast<vertex_id>(i % 64);
      q.v = static_cast<vertex_id>((i * 7) % 64);
      futs.push_back(engine.submit(q));
    }
    for (auto& f : futs) f.get();
    engine.drain();
  }
  EXPECT_GT(store.captured_count(), 0u);
  const auto exs = store.snapshot();
  ASSERT_FALSE(exs.empty());
  auto& fr = flight_recorder::global();
  for (const auto& ex : exs) {
    EXPECT_EQ(ex.label, "bfs_distance");
    ASSERT_FALSE(ex.timeline.empty());
    bool saw_query_span = false;
    for (const auto& ev : ex.timeline) {
      EXPECT_EQ(ev.trace_id, ex.trace_id);
      if (ev.type == event_type::span_begin &&
          fr.intern_name(ev.arg_a) == "serve.query.bfs_distance") {
        saw_query_span = true;
      }
    }
    EXPECT_TRUE(saw_query_span);
  }
  store.set_threshold_s(-1);
  store.clear();
}

// Ingest batches get their own trace ids: the batch's pipeline spans all
// land on the id snapshot_manager assigned.
TEST(FlightRecorder, IngestBatchTimelineIsAttributed) {
  gbbs::serve::snapshot_manager<empty_weight> mgr(32);
  std::vector<gbbs::dynamic::update<empty_weight>> ups;
  for (vertex_id v = 0; v + 1 < 32; ++v) {
    ups.push_back({v, v + 1, {}, gbbs::dynamic::update_op::insert});
  }
  mgr.ingest(std::move(ups));
  const std::uint64_t tid = mgr.last_ingest_trace_id();
  ASSERT_NE(tid, 0u);
  auto& fr = flight_recorder::global();
  const auto timeline = fr.snapshot_trace(tid);
  std::vector<std::string> begun;
  for (const auto& ev : timeline) {
    if (ev.type == event_type::span_begin) {
      begun.push_back(fr.intern_name(ev.arg_a));
    }
  }
  for (const char* want :
       {"ingest.normalize", "ingest.apply", "ingest.connectivity",
        "ingest.overlay_refresh"}) {
    EXPECT_NE(std::find(begun.begin(), begun.end(), want), begun.end())
        << "missing stage " << want << " in batch timeline";
  }
  // publish() reuses the batch's id.
  mgr.publish();
  bool publish_span = false;
  for (const auto& ev : fr.snapshot_trace(tid)) {
    if (ev.type == event_type::span_begin &&
        fr.intern_name(ev.arg_a) == "ingest.publish") {
      publish_span = true;
    }
  }
  EXPECT_TRUE(publish_span);
}

// ---- Perfetto export -------------------------------------------------------

// Minimal JSON validator (objects/arrays/strings/numbers/literals) — the
// well-formedness half of what CI's `python3 -m json.tool` checks.
bool json_skip_value(const char*& p, const char* end);

void json_skip_ws(const char*& p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\n' || *p == '\t' || *p == '\r')) {
    ++p;
  }
}

bool json_skip_string(const char*& p, const char* end) {
  if (p >= end || *p != '"') return false;
  ++p;
  while (p < end && *p != '"') {
    if (*p == '\\') ++p;
    ++p;
  }
  if (p >= end) return false;
  ++p;  // closing quote
  return true;
}

bool json_skip_members(const char*& p, const char* end, char close,
                       bool object) {
  json_skip_ws(p, end);
  if (p < end && *p == close) {
    ++p;
    return true;
  }
  for (;;) {
    json_skip_ws(p, end);
    if (object) {
      if (!json_skip_string(p, end)) return false;
      json_skip_ws(p, end);
      if (p >= end || *p != ':') return false;
      ++p;
    }
    if (!json_skip_value(p, end)) return false;
    json_skip_ws(p, end);
    if (p >= end) return false;
    if (*p == ',') {
      ++p;
      continue;
    }
    if (*p == close) {
      ++p;
      return true;
    }
    return false;
  }
}

bool json_skip_value(const char*& p, const char* end) {
  json_skip_ws(p, end);
  if (p >= end) return false;
  switch (*p) {
    case '{':
      ++p;
      return json_skip_members(p, end, '}', /*object=*/true);
    case '[':
      ++p;
      return json_skip_members(p, end, ']', /*object=*/false);
    case '"':
      return json_skip_string(p, end);
    default: {
      static const char* lits[] = {"true", "false", "null"};
      for (const char* lit : lits) {
        const std::size_t n = std::strlen(lit);
        if (static_cast<std::size_t>(end - p) >= n &&
            std::strncmp(p, lit, n) == 0) {
          p += n;
          return true;
        }
      }
      const char* q = p;
      if (q < end && (*q == '-' || *q == '+')) ++q;
      bool digits = false;
      while (q < end && ((*q >= '0' && *q <= '9') || *q == '.' ||
                         *q == 'e' || *q == 'E' || *q == '-' || *q == '+')) {
        digits = true;
        ++q;
      }
      if (!digits) return false;
      p = q;
      return true;
    }
  }
}

bool is_well_formed_json(const std::string& doc) {
  const char* p = doc.data();
  const char* end = p + doc.size();
  if (!json_skip_value(p, end)) return false;
  json_skip_ws(p, end);
  return p == end;
}

TEST(TraceExport, ChromeTraceIsWellFormedAndCarriesTaxonomy) {
  // Generate real activity: an ingest (stage spans + parallel forks) and
  // queries (flow hand-offs + per-kind spans).
  gbbs::serve::snapshot_manager<empty_weight> mgr(128);
  std::vector<gbbs::dynamic::update<empty_weight>> ups;
  for (vertex_id v = 0; v + 1 < 128; ++v) {
    ups.push_back({v, v + 1, {}, gbbs::dynamic::update_op::insert});
  }
  mgr.ingest(std::move(ups));
  mgr.publish();
  {
    gbbs::serve::query_engine<empty_weight> engine(mgr.store(),
                                                   &mgr.overlay(), 2);
    std::vector<std::future<gbbs::serve::query_result>> futs;
    parlib::random rng(7);
    for (std::size_t i = 0; i < 32; ++i) {
      futs.push_back(engine.submit(
          gbbs::serve::make_mixed_query(rng, i, 128, /*heavy=*/false)));
    }
    for (auto& f : futs) f.get();
  }
  const std::string doc = gbbs::obs::chrome_trace_json();
  ASSERT_TRUE(is_well_formed_json(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Duration + metadata + flow phases present, and the stable stage /
  // scheduler taxonomy made it into the document.
  for (const char* want :
       {"\"ph\": \"M\"", "\"ph\": \"B\"", "\"ph\": \"E\"", "\"ph\": \"s\"",
        "\"ph\": \"f\"", "ingest.normalize", "serve.query.",
        "\"trace_id\":"}) {
    EXPECT_NE(doc.find(want), std::string::npos) << "missing " << want;
  }
  // Fork events happen on a 4-worker scheduler ingesting 128 vertices;
  // steal instants depend on timing, so only forks are required.
  EXPECT_NE(doc.find("sched_fork"), std::string::npos);

  // The registry JSON with an exemplar section stays parseable too.
  auto& store = gbbs::obs::exemplar_store::global();
  store.clear();
  store.set_threshold_s(0.5);
  const std::string metrics =
      gbbs::obs::registry::to_json(gbbs::obs::registry::global().read());
  EXPECT_TRUE(is_well_formed_json(metrics)) << metrics.substr(0, 400);
  EXPECT_NE(metrics.find("slow_query_exemplars"), std::string::npos);
  EXPECT_NE(metrics.find("trace.events_recorded"), std::string::npos);
  store.set_threshold_s(-1);
}

}  // namespace

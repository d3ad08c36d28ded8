// Ingest throughput of the batch-dynamic subsystem vs. batch size.
//
// For each batch size the same R-MAT edge stream is replayed three ways:
//   ingest       — dynamic_graph::apply only (normalize + delta merge);
//   ingest+cc    — apply plus incremental connectivity per batch;
//   +compact     — one compact() at stream end (amortized per edge).
// Reported as medges/s over the raw update count. The stream is replayed
// on a fresh graph until the row has timed at least 100 batches (at small
// scales one pass holds only a few), and the rates are total edges over
// total time across the replays; compact(s) is the mean per replay. The
// final static-rebuild baseline build_symmetric_graph is for reference.
//
// The `ingest_scaling` section sweeps batch size x shard count through
// the multi-writer sharded ingest path (serve/sharded_ingest.h): the
// same stream is normalized once per batch, split by vertex ownership,
// and applied by N concurrent shard writers under the composite version
// clock (publish per batch, flush at stream end). apply Me/s is the
// end-to-end rate over the raw update count; speedup is relative to the
// 1-shard row at the same batch size. On a single-core host the sweep
// degenerates to context-switching overhead — the speedup column is only
// meaningful when workers > 1.
//
// -json <path> emits the whole run as machine-readable rows (tracked as
// BENCH_dynamic.json across PRs).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_connectivity.h"
#include "dynamic/stream.h"
#include "graph/graph_builder.h"
#include "serve/sharded_ingest.h"

namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;

struct ingest_result {
  double apply_s = 0;
  double cc_s = 0;
  double compact_s = 0;
  std::size_t replays = 0;             // passes over the stream
  bench::sample_stats batch_latency;  // per-batch apply+cc latency
};

// Each row times at least this many batches, so its p99 is a tail and
// not the maximum of a handful.
constexpr std::size_t kMinBatches = 100;

// Replays the stream on a fresh graph until kMinBatches batches have been
// timed; the totals cover every replay (each ends in one compact()).
ingest_result replay(const std::vector<gbbs::edge<empty_weight>>& edges,
                     vertex_id n, std::size_t batch_size) {
  ingest_result r;
  std::vector<double> batch_s;
  while (batch_s.size() < kMinBatches) {
    gbbs::dynamic::edge_stream<empty_weight> stream(edges);
    gbbs::dynamic::dynamic_unweighted_graph dg(n);
    gbbs::dynamic::incremental_connectivity cc(n);
    while (!stream.done()) {
      auto raw = stream.next_inserts(batch_size);
      gbbs::dynamic::update_batch<empty_weight> batch;
      const double apply = bench::time_once(
          [&] { batch = dg.apply(std::move(raw)); });
      const double cc_t = bench::time_once([&] { cc.apply(batch, dg); });
      r.apply_s += apply;
      r.cc_s += cc_t;
      batch_s.push_back(apply + cc_t);
    }
    r.compact_s += bench::time_once([&] { dg.compact(); });
    ++r.replays;
  }
  r.batch_latency = bench::summarize(std::move(batch_s));
  return r;
}

struct scaling_result {
  double wall_s = 0;  // ingest loop through the final flush
  bench::sample_stats ingest_latency;  // coordinator-side ingest() calls
  std::uint64_t clock = 0;             // composite versions published
};

scaling_result replay_sharded(const std::vector<gbbs::edge<empty_weight>>& edges,
                              vertex_id n, std::size_t batch_size,
                              std::size_t shards) {
  gbbs::dynamic::edge_stream<empty_weight> stream(edges);
  gbbs::serve::sharded_snapshot_manager<empty_weight> mgr(
      n, {.num_shards = shards});
  scaling_result r;
  std::vector<double> ingest_s;
  r.wall_s = bench::time_once([&] {
    while (!stream.done()) {
      auto raw = stream.next_inserts(batch_size);
      ingest_s.push_back(
          bench::time_once([&] { mgr.ingest(std::move(raw)); }));
      mgr.publish();  // never waits: publishes the clock's current minimum
    }
    mgr.flush();
  });
  r.clock = mgr.composite_clock();
  r.ingest_latency = bench::summarize(std::move(ingest_s));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_flag(argc, argv);
  std::vector<bench::json_record> rows;
  const std::uint32_t scale = bench::bench_scale() - 2;
  const std::size_t m = std::size_t{12} << scale;
  auto g = gbbs::rmat_symmetric(scale, m, 101);
  auto edges = gbbs::dynamic::undirected_stream_edges(g);
  const vertex_id n = g.num_vertices();
  const double medges = static_cast<double>(edges.size()) / 1e6;

  std::printf("== dynamic ingest (n=%u, %zu streamed edges, workers=%zu) ==\n",
              n, edges.size(), parlib::num_workers());
  std::printf("%-12s %12s %12s %12s %12s %10s %10s\n", "batch",
              "ingest Me/s", "ingest+cc", "+compact", "compact(s)",
              "p50(ms)", "p99(ms)");
  for (std::size_t batch_size :
       {std::size_t{1} << 10, std::size_t{1} << 13, std::size_t{1} << 16,
        std::size_t{1} << 19}) {
    const auto r = replay(edges, n, batch_size);
    const double total = medges * static_cast<double>(r.replays);
    const double ingest = total / r.apply_s;
    const double with_cc = total / (r.apply_s + r.cc_s);
    const double with_compact = total / (r.apply_s + r.cc_s + r.compact_s);
    const double compact_s = r.compact_s / static_cast<double>(r.replays);
    std::printf("%-12zu %12.2f %12.2f %12.2f %12.4f %10.3f %10.3f\n",
                batch_size, ingest, with_cc, with_compact, compact_s,
                r.batch_latency.p50 * 1e3, r.batch_latency.p99 * 1e3);
    std::fflush(stdout);
    rows.push_back(bench::json_record()
                       .field("section", std::string("ingest"))
                       .field("batch", batch_size)
                       .field("ingest_meps", ingest)
                       .field("ingest_cc_meps", with_cc)
                       .field("ingest_cc_compact_meps", with_compact)
                       .field("compact_s", compact_s)
                       .field("replays", r.replays)
                       .field("batch_p50_ms", r.batch_latency.p50 * 1e3)
                       .field("batch_p99_ms", r.batch_latency.p99 * 1e3));
  }
  // Sharded ingest scaling: batch size x shard count, end-to-end
  // (normalize + split + N concurrent shard applies + composite publish).
  std::printf(
      "\n== sharded ingest scaling (publish-per-batch + final flush) ==\n");
  std::printf("%-12s %-8s %12s %12s %12s %12s\n", "batch", "shards",
              "apply Me/s", "speedup", "ing p50(ms)", "ing p99(ms)");
  std::map<std::size_t, double> one_shard_wall;
  for (std::size_t batch_size :
       {std::size_t{1} << 13, std::size_t{1} << 16}) {
    for (std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const auto r = replay_sharded(edges, n, batch_size, shards);
      if (shards == 1) one_shard_wall[batch_size] = r.wall_s;
      const double meps = medges / r.wall_s;
      const double speedup = one_shard_wall[batch_size] / r.wall_s;
      std::printf("%-12zu %-8zu %12.2f %12.2f %12.3f %12.3f\n", batch_size,
                  shards, meps, speedup, r.ingest_latency.p50 * 1e3,
                  r.ingest_latency.p99 * 1e3);
      std::fflush(stdout);
      rows.push_back(bench::json_record()
                         .field("section", std::string("ingest_scaling"))
                         .field("batch", batch_size)
                         .field("shards", shards)
                         .field("apply_meps", meps)
                         .field("speedup_vs_1shard", speedup)
                         .field("versions", r.clock)
                         .field("ingest_p50_ms",
                                r.ingest_latency.p50 * 1e3)
                         .field("ingest_p99_ms",
                                r.ingest_latency.p99 * 1e3));
    }
  }

  const double rebuild_s = bench::time_best([&] {
    auto rebuilt = gbbs::build_symmetric_graph<empty_weight>(n, edges);
    (void)rebuilt;
  });
  std::printf("static rebuild baseline: %.4f s (%.2f Me/s)\n", rebuild_s,
              medges / rebuild_s);
  rows.push_back(bench::json_record()
                     .field("section", std::string("rebuild_baseline"))
                     .field("rebuild_s", rebuild_s)
                     .field("rebuild_meps", medges / rebuild_s));
  if (!json_path.empty()) bench::write_json(json_path, "bench_dynamic", rows);
  return 0;
}

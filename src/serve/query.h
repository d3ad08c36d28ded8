// Typed queries over the serving layer — the request vocabulary.
//
// Two execution paths, now with matching freshness for point reads *and*
// traversal analytics:
//   * execute_fresh_query(overlay_snapshot, q): everything — point reads
//     (degree / neighbors / connected / component) *and* whole-graph
//     analytics (bfs_distance / kcore_max / triangles /
//     connectivity_refine) — answered from the *uncompacted* delta
//     overlay the writer refreshes after every ingest. Analytics traverse
//     a dynamic_view (the overlay-fused graph_view model), so they see
//     updates that are not yet published and never materialize the merged
//     CSR: edge_map, k-core's peeling, triangle counting's DAG build, and
//     connectivity's LDD all run on base ⊕ overlay fused per neighbor.
//   * execute_query(pinned_snapshot, q): everything runs against one
//     immutable published version, so results are consistent even while
//     the writer keeps ingesting. Analytics use the version's overlay
//     through a dynamic_view by default (again, no merge); a query with
//     `stale = true` explicitly requests the version's *materialized*
//     merged CSR (memoized, built at most once per version) — the right
//     trade when many analytics queries will hit the same version and
//     CSR-contiguous traversal amortizes the one-time merge.
//
// Vertices a version (or overlay index) has not seen yet (the graph grows
// under ingest, so a query admitted against an older version may
// reference a newer vertex) are treated as isolated: degree 0,
// unreachable, their own singleton component.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/connectivity.h"
#include "algorithms/kcore.h"
#include "algorithms/triangle.h"
#include "graph/graph.h"
#include "parlib/cancellation.h"
#include "parlib/random.h"
#include "serve/composite_view.h"
#include "serve/dynamic_view.h"
#include "serve/overlay_view.h"
#include "serve/read_set.h"
#include "serve/snapshot_store.h"

namespace gbbs::serve {

enum class query_kind : std::uint8_t {
  degree,        // value = out-degree of u
  neighbors,     // list = out-neighborhood of u
  connected,     // value = 1 iff u and v are in the same component
  component,     // value = connectivity label of u in this version
  bfs_distance,  // value = hop distance u -> v (kInfDist if unreachable)
  kcore_max,     // value = degeneracy (max coreness) of the version
  triangles,     // value = triangle count of the version
  connectivity_refine,  // value = #components by from-scratch traversal
                        // (audits the incrementally maintained labels)

  // Sentinel — keep last. Everything sized per kind (the name table below,
  // the engine's per-kind latency histograms, run_serve's table, the result
  // cache's per-kind stats) derives its extent from this, so adding a kind
  // above without updating a consumer is a compile error, not a silent
  // desync.
  num_kinds,
};

inline constexpr std::size_t kNumQueryKinds =
    static_cast<std::size_t>(query_kind::num_kinds);

// Point reads are the kinds served in O(1)/O(deg) from the overlay index
// without any traversal.
inline bool is_point_read(query_kind k) {
  return k == query_kind::degree || k == query_kind::neighbors ||
         k == query_kind::connected || k == query_kind::component;
}

// One name per kind, indexed by enumerator value. A kind added to the enum
// without a name here value-initializes the tail slot to nullptr and trips
// the static_assert; one name too many fails the array initializer.
inline constexpr std::array<const char*, kNumQueryKinds> kQueryKindNames{
    "degree",       "neighbors", "connected",
    "component",    "bfs_distance", "kcore_max",
    "triangles",    "connectivity_refine"};

static_assert(
    [] {
      for (const char* name : kQueryKindNames) {
        if (name == nullptr) return false;
      }
      return true;
    }(),
    "every query_kind needs an entry in kQueryKindNames");

inline const char* query_kind_name(query_kind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kNumQueryKinds ? kQueryKindNames[i] : "?";
}

// How a submitted query resolved. Every future the engine hands out becomes
// ready with exactly one of these — there is no "silently empty" result.
enum class query_status : std::uint8_t {
  ok = 0,       // executed; value/list are meaningful
  rejected,     // never executed: shed at admission (queue policy / brownout)
  timed_out,    // deadline expired — in queue (never executed) or mid-flight
                // (partial work discarded)
  cancelled,    // explicitly cancelled via the query's token; partial work
                // discarded
  unavailable,  // nothing published to serve from (store pin failed)
};

inline const char* query_status_name(query_status s) {
  switch (s) {
    case query_status::ok: return "ok";
    case query_status::rejected: return "rejected";
    case query_status::timed_out: return "timed_out";
    case query_status::cancelled: return "cancelled";
    case query_status::unavailable: return "unavailable";
  }
  return "?";
}

inline constexpr std::size_t kNumQueryStatuses = 5;

// Admission priority under overload. The brownout ladder sheds `low`
// analytics first, then all analytics; point reads ride on `high` semantics
// until the final rung regardless of class (see query_engine.h).
enum class query_priority : std::uint8_t { high = 0, normal, low };

struct query {
  query_kind kind = query_kind::degree;
  vertex_id u = 0;
  vertex_id v = 0;  // second endpoint (connected / bfs_distance)
  // Explicitly-stale request: execute against the latest *published*
  // version's materialized merged CSR instead of the fresh overlay view.
  // The materialization is memoized per version, so a stale analytics
  // stream pays one merge per version and then traverses a contiguous
  // CSR; fresh queries (the default) never merge at all.
  bool stale = false;
  // Admission class for the brownout ladder (see query_engine.h).
  query_priority priority = query_priority::normal;
  // Relative deadline in seconds from submit; <= 0 means none. The engine
  // resolves expired queries `timed_out` — at dequeue without executing, or
  // mid-flight through the cooperative cancellation token.
  double deadline_s = 0;
  // Optional caller-owned cancellation token: request_cancel() resolves the
  // query `cancelled` (mid-flight traversals unwind cooperatively). Must
  // outlive the query's future. The engine arms the deadline on it; null
  // means the engine uses an internal token when a deadline is set.
  parlib::cancel::token* cancel = nullptr;
};

// The view a result was served from.
enum class query_route : std::uint8_t {
  overlay,   // the freshest overlay index (execute_fresh_query)
  pinned,    // one published version (execute_query)
  degraded,  // brownout: the published merged CSR, possibly behind the
             // overlay by `staleness` updates
  cache,     // a result-cache hit, identical to re-executing fresh
};

struct query_result {
  std::uint64_t version = 0;  // snapshot version the query executed against
  std::uint64_t epoch = 0;    // ingest epoch, when served from the overlay
                              // (0: served from a published version)
  std::uint64_t value = 0;
  std::vector<vertex_id> list;  // neighbors payload
  double latency_s = 0;         // filled by the query engine
  query_status status = query_status::ok;
  // How the answer was served (meaningful when status == ok). A degraded
  // answer also carries how many ingested updates the served version is
  // behind the freshest index (bounded by kDegradedStalenessBound,
  // query_engine.h).
  query_route route = query_route::overlay;
  std::uint64_t staleness = 0;

  bool rejected() const { return status == query_status::rejected; }
};

// The serving-style randomized query mix used by run_serve, bench_serve,
// and the concurrency tests: point reads dominate (degree 30% / neighbors
// 30% / connected 20% / component 10%), one in ten queries is a BFS, and
// `heavy` adds rare whole-graph analytics (kcore / triangles /
// connectivity refinement, 0.3%). Deterministic in (rng, i).
inline query make_mixed_query(const parlib::random& rng, std::size_t i,
                              vertex_id n, bool heavy = false) {
  const auto u = static_cast<vertex_id>(rng.ith_rand(3 * i) % n);
  const auto v = static_cast<vertex_id>(rng.ith_rand(3 * i + 1) % n);
  const std::uint64_t dice = rng.ith_rand(3 * i + 2) % 1000;
  if (heavy && dice >= 997) {
    if (dice == 997) return {query_kind::connectivity_refine, 0, 0};
    return {dice == 998 ? query_kind::kcore_max : query_kind::triangles, 0,
            0};
  }
  if (dice < 300) return {query_kind::degree, u, 0};
  if (dice < 600) return {query_kind::neighbors, u, 0};
  if (dice < 800) return {query_kind::connected, u, v};
  if (dice < 900) return {query_kind::component, u, 0};
  return {query_kind::bfs_distance, u, v};
}

namespace query_internal {

// Run one traversal analytics kind over any graph_view model. When `rec`
// is set, the traversal's read-set is captured for the result cache: BFS
// runs over a recording_view (so exactly the rows the frontier expansion
// reads are recorded, plus both query endpoints); the whole-graph kinds
// (kcore / triangles / connectivity refinement) read every row by
// construction and record the universe.
template <graph_view G>
std::uint64_t run_analytics(const G& g, const query& q,
                            read_set_recorder* rec = nullptr) {
  switch (q.kind) {
    case query_kind::bfs_distance: {
      if (rec != nullptr) {
        // Seed with both endpoints: an unreachable / out-of-range target's
        // row is never traversed, but an update touching it can change the
        // answer (a new edge can make it reachable).
        rec->record(q.u);
        rec->record(q.v);
      }
      if (q.u < g.num_vertices() && q.v < g.num_vertices()) {
        if (rec != nullptr) {
          return gbbs::bfs(recording_view<G>(g, rec), q.u)[q.v];
        }
        return gbbs::bfs(g, q.u)[q.v];
      }
      return q.u == q.v ? 0 : gbbs::kInfDist;
    }
    case query_kind::kcore_max:
      if (rec != nullptr) rec->record_all();
      return gbbs::kcore(g).max_core;
    case query_kind::triangles:
      if (rec != nullptr) rec->record_all();
      return gbbs::triangle_count(g);
    case query_kind::connectivity_refine:
      if (rec != nullptr) rec->record_all();
      return gbbs::component_representatives(gbbs::connectivity(g)).size();
    default:
      return 0;  // not an analytics kind
  }
}

}  // namespace query_internal

// Execute q against one pinned version. Pure read; safe to call from any
// number of threads on the same pinned_snapshot. Point reads go through
// the version's overlay (base ⊕ deltas) when it has one; analytics
// traverse the overlay through a dynamic_view — neither materializes the
// merged CSR. Only q.stale analytics pay the (memoized, once-per-version)
// merge via view(). `rec` (optional) captures the analytics read-set for
// the result cache (see run_analytics); point-read kinds derive their
// read-set from the key alone and ignore it.
template <typename W>
query_result execute_query(const pinned_snapshot<W>& snap, const query& q,
                           read_set_recorder* rec = nullptr) {
  const vertex_id n = snap.num_vertices();
  const overlay_snapshot<W>* ov = snap.overlay();
  query_result r;
  r.version = snap.version();
  r.route = query_route::pinned;
  // Composite (sharded) versions: point reads route to the owning shard's
  // snapshot, analytics traverse the stitched composite_view (or the
  // memoized stitched CSR when explicitly stale). Connectivity kinds fall
  // through to the shared components() path — the barrier-merged view.
  if (const composite_snapshot<W>* cs = snap.composite()) {
    switch (q.kind) {
      case query_kind::degree:
        r.value = cs->degree(q.u);
        return r;
      case query_kind::neighbors:
        r.list = cs->neighbors(q.u);
        return r;
      case query_kind::connected:
      case query_kind::component:
        break;  // components() below
      default:
        if (!q.stale) {
          r.value = query_internal::run_analytics(
              composite_view<W>(snap.composite_handle()), q, rec);
        } else {
          r.value = query_internal::run_analytics(snap.view(), q, rec);
        }
        return r;
    }
  }
  switch (q.kind) {
    case query_kind::degree:
      if (ov != nullptr) {
        r.value = ov->degree(q.u);
      } else {
        r.value = q.u < n ? snap.view().out_degree(q.u) : 0;
      }
      break;
    case query_kind::neighbors:
      if (ov != nullptr) {
        r.list = ov->neighbors(q.u);
      } else if (q.u < n) {
        const auto nghs = snap.view().out_neighbors(q.u);
        r.list.assign(nghs.begin(), nghs.end());
      }
      break;
    case query_kind::connected:
      // Unseen vertices resolve to their own singleton label, so this
      // covers u/v beyond the version's n as well.
      r.value = snap.components().connected(q.u, q.v) ? 1 : 0;
      break;
    case query_kind::component:
      r.value = snap.components().label(q.u);
      break;
    default:  // traversal analytics
      if (ov != nullptr && !q.stale) {
        r.value = query_internal::run_analytics(
            dynamic_view<W>(snap.overlay_handle()), q, rec);
      } else {
        r.value = query_internal::run_analytics(snap.view(), q, rec);
      }
      break;
  }
  return r;
}

// Execute any query against the freshest overlay index (the delta-aware
// fresh path): point reads straight off the index, analytics through the
// overlay-fused dynamic_view. Pure read over immutable shared data; safe
// from any thread. Never materializes the merged CSR. `rec` (optional)
// captures the analytics read-set for the result cache.
template <typename W>
query_result execute_fresh_query(
    std::shared_ptr<const overlay_snapshot<W>> idx, const query& q,
    read_set_recorder* rec = nullptr) {
  query_result r;
  r.version = idx->base_version;
  r.epoch = idx->epoch;
  switch (q.kind) {
    case query_kind::degree:
      r.value = idx->degree(q.u);
      break;
    case query_kind::neighbors:
      r.list = idx->neighbors(q.u);
      break;
    case query_kind::connected:
      r.value = idx->cc.connected(q.u, q.v) ? 1 : 0;
      break;
    case query_kind::component:
      r.value = idx->cc.label(q.u);
      break;
    default:
      r.value = query_internal::run_analytics(
          dynamic_view<W>(std::move(idx)), q, rec);
      break;
  }
  return r;
}

}  // namespace gbbs::serve

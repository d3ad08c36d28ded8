// Single-writer ingest front-end for the serving layer: owns the
// batch-dynamic graph, maintains incremental connectivity across batches,
// publishes immutable versions into a snapshot_store that any number of
// reader threads pin concurrently (see snapshot_store.h for the pinning
// protocol), and refreshes an overlay_view after every ingest so point
// reads can see updates *before* they are published.
//
// Division of labor:
//   writer thread:  ingest(raw updates) ... publish() ... ingest ...
//   reader threads: pin() -> versioned queries;  overlay().read() ->
//                   fresh point reads (degree / neighbors / connected).
//
// Publish cost is proportional to the delta, not the graph:
//   * overlay empty (right after a compaction, or nothing effective
//     ingested): the base CSR *is* the live view, and since graph<W>
//     copies share one refcounted block, publishing it is O(1) — no
//     merge, no allocation, no copy;
//   * overlay non-empty: the version is published as {shared base CSR,
//     overlay index, component view} — O(overlay) handle copies, no
//     merged-CSR build at all. The merged CSR is materialized lazily,
//     once per version, only if an analytics query (bfs/kcore/triangles)
//     asks for it (see version_payload::view()); point reads are served
//     from base + overlay directly. Heavy merges therefore happen only at
//     auto-compaction thresholds (amortized O(1/threshold) per update) or
//     on analytics demand — never on the publish hot path. PR 2 paid a
//     full merge build plus a flat O(n+m) array copy on *every* publish;
//   * when auto-compaction is disabled (compact_threshold == 0), publish
//     is the compaction point: it builds the merged CSR once and shares
//     it between the published version and the dynamic graph's new base
//     via adopt_base — zero post-merge copies;
//   * connectivity rides along as a component_view — an anchor label
//     vector shared across publishes plus a link map of merges since the
//     anchor — so no O(n) label materialization per publish either. The
//     anchor is re-materialized only at rare events: an erase-triggered
//     connectivity rebuild (already O(n + m)) or the link map outgrowing
//     its budget.
//
// Reader-side connectivity queries stay O(1)-ish: label resolution is an
// anchor lookup plus one hash probe.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_connectivity.h"
#include "dynamic/update_batch.h"
#include "obs/trace.h"
#include "robust/failpoint.h"
#include "serve/component_view.h"
#include "serve/overlay_view.h"
#include "serve/result_cache.h"
#include "serve/snapshot_store.h"

namespace gbbs::serve {

template <typename W>
class snapshot_manager {
 public:
  // Empty symmetric graph with n vertices; version 1 (the empty graph) is
  // published immediately so readers can always pin.
  explicit snapshot_manager(vertex_id n = 0, double compact_threshold = 0.25)
      : dg_(n, /*symmetric=*/true), cc_(n) {
    dg_.set_compact_threshold(compact_threshold);
    refresh_anchor();
    publish();
  }

  // Seed from an existing static snapshot (published as version 1).
  explicit snapshot_manager(gbbs::graph<W> seed,
                            double compact_threshold = 0.25)
      : dg_(std::move(seed)), cc_(0) {
    dg_.set_compact_threshold(compact_threshold);
    cc_.rebuild(dg_);
    refresh_anchor();
    publish();
  }

  // ---- writer side (single thread) ---------------------------------------

  // Absorb a raw update batch, keep connectivity current, and refresh the
  // overlay view so reads observe this batch immediately — published
  // versions are untouched until the next publish(). The index refresh is
  // *incremental*: only the buckets holding the batch's distinct vertices
  // are rebuilt, every other bucket is shared with the previous snapshot
  // (O(batch) expected, not O(overlay) — see overlay_view.h).
  void ingest(std::vector<dynamic::update<W>> raw) {
    // Each batch is one request in the flight recorder: every stage span
    // below (including the ones inside dg_.apply) and every scheduler
    // event its parallel loops trigger carries this id, so a slow batch
    // reconstructs as a single timeline.
    last_ingest_trace_id_ = obs::flight_recorder::global().next_trace_id();
    parlib::trace::trace_id_scope tscope(last_ingest_trace_id_);
    updates_ingested_ += raw.size();
    // Normalize + apply spans are recorded inside dg_.apply (the stages
    // live in dynamic_graph, shared with the non-serving stream tools).
    auto batch = dg_.apply(std::move(raw));
    {
      static const obs::stage_ref s_cc =
          obs::stage_named("ingest.connectivity");
      obs::trace_span span(s_cc);
      cc_.apply(batch, dg_);
      track_links(batch);
    }
    // The batch's delta summary: distinct updated vertices (row refresh)
    // and their cache buckets (result invalidation + standing queries).
    std::vector<vertex_id> touched = batch.touched_vertices();
    if (cache_ != nullptr) {
      const bucket_set delta = touched_buckets(batch);
      // Invalidate before the overlay refresh makes the batch visible to
      // readers: a cache hit is then provably no staler than the freshest
      // overlay any concurrent reader can observe. Epochs are this
      // manager's ingested-update count — the same clock the overlay
      // snapshot (and thus every cached fresh result) is stamped with.
      cache_->invalidate(delta, updates_ingested_);
      refresh_overlay(&touched);
      // Notify after visibility so standing-query re-evaluations read the
      // refreshed overlay.
      cache_->notify(delta, updates_ingested_);
    } else {
      refresh_overlay(&touched);
    }
  }

  // Wire a result cache into this manager's ingest path: every batch's
  // touched-bucket summary is published into it (invalidate before the
  // refresh makes the batch reader-visible, notify after). Call before
  // the first ingest and keep the cache alive for the manager's lifetime;
  // an engine serving from this manager must share the same cache — an
  // unattached cache never invalidates and will serve stale results.
  void attach_cache(result_cache* cache) { cache_ = cache; }

  // Publish the live view as a new immutable version. Returns its number.
  // O(delta) — see the file header for the cost breakdown per case.
  // Publishing with nothing ingested since the previous publish is a no-op
  // returning the current version (no CSR copy, no version churn).
  std::uint64_t publish() {
    if (store_.current_version() != 0 &&
        last_published_updates_ == updates_ingested_) {
      return store_.current_version();
    }
    // Publish attributes to the batch that made it necessary (the last
    // ingest's trace id), so an exemplar showing a query stuck behind a
    // publish points back at the responsible batch.
    parlib::trace::trace_id_scope tscope(last_ingest_trace_id_);
    static const obs::stage_ref s_publish = obs::stage_named("ingest.publish");
    obs::trace_span span(s_publish);
    // ingest.publish.delay: a slow publish, injected inside the traced
    // span so the stall is attributable — staleness grows while it sleeps.
    GBBS_FAILPOINT_SLEEP("ingest.publish.delay");
    last_published_updates_ = updates_ingested_;
    std::uint64_t v;
    bool compacted = false;
    if (dg_.delta_size() == 0 &&
        dg_.base().num_vertices() == dg_.num_vertices()) {
      // Overlay empty: the base CSR already is the live view. Shared
      // handle copy — O(1), no allocation, no merge.
      v = store_.publish(dg_.base(), current_components(),
                         updates_ingested_);
    } else if (dg_.compact_threshold() == 0) {
      // Auto-compaction disabled: publish is the compaction point. One
      // merged-CSR build; adopt_base shares the same arrays as the
      // dynamic graph's new compacted base (zero post-merge copies).
      gbbs::graph<W> snap = dg_.snapshot();
      dg_.adopt_base(snap);
      v = store_.publish(std::move(snap), current_components(),
                         updates_ingested_);
      compacted = true;
    } else {
      // Delta-proportional path: the version is the shared base plus the
      // overlay index the last ingest distilled — no merge; the store
      // materializes lazily if an analytics query needs the full CSR.
      if (last_index_ == nullptr ||
          last_index_->epoch != updates_ingested_) {
        refresh_overlay();
      }
      v = store_.publish(dg_.base(), last_index_, current_components(),
                         updates_ingested_);
    }
    // Publishing does not change the live view, so the overlay index
    // stays content-correct — rebuild it only when compaction swapped the
    // base out from under it (O(1): the overlay is empty then). Its
    // epoch/base_version metadata may lag one publish; the next ingest
    // refreshes both.
    if (compacted) refresh_overlay();
    return v;
  }

  std::uint64_t updates_ingested() const { return updates_ingested_; }
  // Flight-recorder trace id of the most recent ingest batch (0 before
  // the first ingest); tests assert timeline attribution through it.
  std::uint64_t last_ingest_trace_id() const {
    return last_ingest_trace_id_;
  }
  std::size_t num_compactions() const { return dg_.num_compactions(); }
  const dynamic::dynamic_graph<W>& live() const { return dg_; }
  dynamic::incremental_connectivity& connectivity() { return cc_; }

  // The connectivity partition after the last ingest, as an immutable
  // O(1)-copy view (what publish attaches to the next version). Memoized
  // inside the tracker, so back-to-back publishes pay O(1), not O(links).
  component_view current_components() const { return tracker_.current(); }

  // ---- reader side (any thread) ------------------------------------------

  pinned_snapshot<W> pin() const { return store_.pin(); }
  std::uint64_t current_version() const { return store_.current_version(); }
  const snapshot_store<W>& store() const { return store_; }
  snapshot_store<W>& store() { return store_; }

  // Freshest overlay index: point reads against it see every ingested
  // batch, published or not. Safe from any thread.
  const overlay_view<W>& overlay() const { return overlay_; }

 private:
  // Record the component merges an insert batch performed into the shared
  // anchor + link-map tracker (component_view.h). O(batch · α).
  void track_links(const dynamic::update_batch<W>& batch) {
    if (batch.empty()) return;
    if (batch.has_erases()) {
      // cc_ just rebuilt from scratch (erases can split components);
      // re-anchor — the rebuild already paid O(n + m).
      refresh_anchor();
      return;
    }
    for (const auto& up : batch.updates) {
      tracker_.track_pair(up.u, up.v);
    }
    // (In steady state — batches that merge nothing new — publishes reuse
    // the tracker's memoized component view and pay nothing here.)
    if (tracker_.needs_anchor()) refresh_anchor();
  }

  // Materialize fresh anchor labels (O(n)) into the tracker. Called only
  // at anchor events — seed, erase rebuild, link-budget overflow.
  void refresh_anchor() { tracker_.refresh_anchor(cc_.labels()); }

  // Distill the current overlay into an immutable index and hand it to
  // readers through the overlay_view. With `touched` (the batch's distinct
  // vertices) this is incremental against the previous index — O(batch)
  // expected; without, a full O(overlay) rebuild (compaction hand-offs,
  // defensive refreshes).
  void refresh_overlay(const std::vector<vertex_id>* touched = nullptr) {
    static const obs::stage_ref s_refresh =
        obs::stage_named("ingest.overlay_refresh");
    obs::trace_span span(s_refresh);
    last_index_ = build_overlay_snapshot(dg_, current_components(),
                                         updates_ingested_,
                                         store_.current_version(),
                                         last_index_.get(), touched);
    overlay_.refresh(last_index_);
  }

  dynamic::dynamic_graph<W> dg_;
  dynamic::incremental_connectivity cc_;
  snapshot_store<W> store_;
  overlay_view<W> overlay_;
  // The index refresh_overlay last built (what publish attaches to a
  // delta-proportional version).
  std::shared_ptr<const overlay_snapshot<W>> last_index_;
  component_tracker tracker_;
  result_cache* cache_ = nullptr;
  std::uint64_t updates_ingested_ = 0;
  std::uint64_t last_published_updates_ = 0;
  std::uint64_t last_ingest_trace_id_ = 0;
};

using unweighted_snapshot_manager = snapshot_manager<empty_weight>;

}  // namespace gbbs::serve

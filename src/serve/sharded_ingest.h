// Multi-writer sharded ingest: N dynamic_graph shards, each with its own
// writer thread applying deltas and refreshing its overlay index
// concurrently, coordinated by a composite version clock.
//
// Pipeline per batch (coordinator thread = the caller of ingest()):
//   1. normalize once (parallel sort + last-wins dedup, update_batch.h),
//      mirrored for symmetric graphs — so the split below can double-book
//      cross-shard edges without re-sorting;
//   2. split by owner(u) (shard_partition.h) into per-shard sub-batches,
//      each still normalized and carrying the global max_vertex;
//   3. enqueue sub-batch `v` (the batch's clock value) to every shard —
//      including shards with an empty slice, so vertex-set growth and the
//      clock advance in lockstep.
// Each shard worker then applies its slice to its own dynamic_graph and
// refreshes its own overlay_view — the apply path that was one
// writer wide in snapshot_manager runs num_shards wide here.
//
// The composite version clock (after katana's multi-participant
// termination vector: global progress = the minimum over participants):
// shard s advances applied[s] after fully applying batch v; composite
// version V is *visible* only once min_s applied[s] >= V. publish() never
// waits — it publishes the current minimum, so a straggling shard can
// delay visibility but a published version can never include a batch some
// shard has not applied (the straggler failpoint test pins this down).
// flush() waits for the clock to catch up with everything ingested, then
// publishes.
//
// Incremental connectivity stays a single global structure, merged at the
// publish barrier: each shard records, per batch, the insert links it saw
// (u < v picks exactly one shard per undirected edge — the double-booked
// mirror is filtered out) or an erase marker. At publish, all shards'
// deltas through V are consumed — erase anywhere forces one rebuild over
// the stitched composite view, otherwise the pooled links are united in
// parallel — and the anchor + link-map tracker (component_view.h)
// distills the merged partition into the published component_view.
// Consequence for freshness: per-vertex point reads (degree/neighbors)
// are shard-apply fresh via the owner shard's overlay_view; connectivity
// and analytics are composite-barrier fresh.
//
// Threading contract: ingest()/publish()/flush() are coordinator-only
// (one thread); shard workers touch only their own shard's state plus the
// global clock condvar; readers use pin(), router(), and the per-shard
// overlay_views from any thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_connectivity.h"
#include "dynamic/shard_partition.h"
#include "dynamic/update_batch.h"
#include "obs/trace.h"
#include "parlib/scheduler.h"
#include "parlib/trace_hooks.h"
#include "robust/failpoint.h"
#include "serve/component_view.h"
#include "serve/composite_view.h"
#include "serve/overlay_view.h"
#include "serve/result_cache.h"
#include "serve/snapshot_store.h"

namespace gbbs::serve {

template <typename W>
class sharded_snapshot_manager {
 public:
  struct options {
    std::size_t num_shards = 2;
    std::uint32_t block_bits = 8;  // partition block = 2^block_bits ids
    double compact_threshold = 0.25;  // per-shard auto-compaction
  };

  // Empty symmetric graph with n vertices; the composite at clock 0 is
  // published immediately so readers can always pin.
  explicit sharded_snapshot_manager(vertex_id n = 0, options opt = {})
      : part_(opt.num_shards, opt.block_bits), cc_(n) {
    shards_.reserve(part_.num_shards());
    for (std::size_t s = 0; s < part_.num_shards(); ++s) {
      shards_.push_back(std::make_unique<shard>(n));
    }
    init(opt);
  }

  // Seed from an existing static snapshot: each shard adopts its owned
  // rows as its base CSR (split_seed), so no shard ever re-normalizes or
  // merges another shard's edges. The sharded path is symmetric-only, so a
  // directed seed throws std::invalid_argument.
  explicit sharded_snapshot_manager(gbbs::graph<W> seed, options opt = {})
      : part_(opt.num_shards, opt.block_bits), cc_(0) {
    if (!seed.symmetric()) {
      throw std::invalid_argument(
          "sharded_snapshot_manager: the seed graph must be symmetric");
    }
    auto pieces = dynamic::split_seed(seed, part_);
    shards_.reserve(part_.num_shards());
    for (std::size_t s = 0; s < part_.num_shards(); ++s) {
      shards_.push_back(std::make_unique<shard>(std::move(pieces[s])));
    }
    cc_.rebuild(seed);
    init(opt);
  }

  sharded_snapshot_manager(const sharded_snapshot_manager&) = delete;
  sharded_snapshot_manager& operator=(const sharded_snapshot_manager&) =
      delete;

  // Drains every queued batch (workers exit only on empty queues), then
  // joins. Published versions and pinned snapshots outlive the manager.
  ~sharded_snapshot_manager() {
    for (auto& sh : shards_) {
      {
        std::lock_guard<std::mutex> lk(sh->mu);
        sh->stop = true;
      }
      sh->cv.notify_all();
    }
    for (auto& sh : shards_) {
      if (sh->worker.joinable()) sh->worker.join();
    }
  }

  // ---- coordinator side (single thread) ----------------------------------

  // Normalize + split + enqueue one batch to every shard. Returns the
  // batch's clock value. Does not wait for any shard to apply: by the
  // time this returns, owner-shard point reads may or may not see the
  // batch yet (they will after the shard's apply; flush() forces it).
  std::uint64_t ingest(std::vector<dynamic::update<W>> raw) {
    last_ingest_trace_id_ = obs::flight_recorder::global().next_trace_id();
    parlib::trace::trace_id_scope tscope(last_ingest_trace_id_);
    updates_ingested_ += raw.size();
    dynamic::update_batch<W> batch = [&] {
      static const obs::stage_ref s_norm =
          obs::stage_named("ingest.normalize");
      obs::trace_span span(s_norm);
      return dynamic::make_batch(std::move(raw), /*mirror=*/true);
    }();
    std::vector<dynamic::update_batch<W>> subs = [&] {
      static const obs::stage_ref s_split =
          obs::stage_named("ingest.shard.split");
      obs::trace_span span(s_split);
      return dynamic::split_batch(batch, part_);
    }();
    const std::uint64_t v = ++ingested_batches_;
    pending_meta_.push_back({v, updates_ingested_});
    if (cache_ != nullptr) {
      // Invalidate before any shard can apply the batch (the enqueue
      // below), pessimistically as of clock v: cached point reads (entry
      // epoch = the owner shard's applied batch version) and composite
      // analytics (entry epoch = composite clock) both compare against
      // the same batch-version clock. Standing queries are notified at
      // the publish barrier instead — publish_through — once the batch's
      // data is composite-visible.
      bucket_set delta = touched_buckets(batch);
      cache_->invalidate(delta, v);
      pending_touched_.push_back({v, std::move(delta)});
    }
    // The freshest barrier-merged components ride along so each shard's
    // overlay snapshot can answer connectivity point reads (at composite
    // freshness — per-shard applies do not merge labels).
    component_view cur = tracker_.current();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      auto& sh = *shards_[s];
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.queue.push_back(
            task{v, last_ingest_trace_id_, std::move(subs[s]), cur});
      }
      sh.cv.notify_one();
    }
    return v;
  }

  // Publish the composite version at the clock's current minimum. Never
  // waits: a lagging shard delays visibility instead of blocking the
  // coordinator, and no published version ever contains a batch a shard
  // has not applied. Returns the store version (the clock value it
  // carries is composite_clock()).
  std::uint64_t publish() {
    const std::uint64_t v_clock = applied_version();
    if (v_clock == published_clock_ && store_.current_version() != 0) {
      return store_.current_version();
    }
    parlib::trace::trace_id_scope tscope(last_ingest_trace_id_);
    static const obs::stage_ref s_publish =
        obs::stage_named("ingest.publish");
    obs::trace_span span(s_publish);
    GBBS_FAILPOINT_SLEEP("ingest.publish.delay");
    return publish_through(v_clock);
  }

  // Wait until every shard has applied everything ingested, then publish.
  std::uint64_t flush() {
    {
      std::unique_lock<std::mutex> lk(clock_mu_);
      clock_cv_.wait(
          lk, [&] { return applied_version() >= ingested_batches_; });
    }
    return publish();
  }

  // ---- introspection ------------------------------------------------------

  // min over shards of the last applied batch — the composite clock's
  // current visibility frontier. Safe from any thread.
  std::uint64_t applied_version() const {
    std::uint64_t v = ~std::uint64_t{0};
    for (const auto& sh : shards_) {
      v = std::min(v, sh->applied.load(std::memory_order_acquire));
    }
    return v;
  }
  // Clock value of the last published composite version.
  std::uint64_t composite_clock() const { return published_clock_; }
  std::uint64_t updates_ingested() const { return updates_ingested_; }
  std::uint64_t last_ingest_trace_id() const { return last_ingest_trace_id_; }

  const dynamic::shard_partition& partition() const { return part_; }
  std::size_t num_shards() const { return shards_.size(); }
  // Shard s's live graph. Coordinator/test use only after a flush() — the
  // shard worker mutates it while batches are in flight.
  const dynamic::dynamic_graph<W>& shard_graph(std::size_t s) const {
    return shards_[s]->dg;
  }

  // ---- reader side (any thread) ------------------------------------------

  // Shard s's freshest overlay index: point reads against it
  // see every batch that shard has applied, published or not.
  const overlay_view<W>& shard_overlay(std::size_t s) const {
    return shards_[s]->ov;
  }

  // Routing table for a query_engine: owner(u)'s overlay per point read.
  shard_router<W> router() const {
    shard_router<W> r;
    r.part = part_;
    r.overlays.reserve(shards_.size());
    for (const auto& sh : shards_) r.overlays.push_back(&sh->ov);
    return r;
  }

  pinned_snapshot<W> pin() const { return store_.pin(); }
  std::uint64_t current_version() const { return store_.current_version(); }
  const snapshot_store<W>& store() const { return store_; }
  snapshot_store<W>& store() { return store_; }

  // Wire a result cache into the sharded ingest path: each batch
  // invalidates at ingest (pessimistic, before any shard applies) and
  // standing queries are notified at the publish barrier. The cache's
  // epoch domain is this manager's batch-version clock. Coordinator-only;
  // call before the first ingest and keep the cache alive for the
  // manager's lifetime.
  void attach_cache(result_cache* cache) { cache_ = cache; }

 private:
  // Connectivity delta one shard recorded for one batch: the insert links
  // it saw with u < v (each undirected edge reports from exactly one
  // shard — owner(min endpoint) — despite the double-booked mirror), or
  // an erase marker forcing a barrier rebuild.
  struct cc_delta {
    std::uint64_t version = 0;
    std::vector<std::pair<vertex_id, vertex_id>> links;
    bool has_erase = false;
  };

  struct task {
    std::uint64_t version = 0;
    std::uint64_t trace_id = 0;
    dynamic::update_batch<W> sub;
    component_view cc;  // barrier-merged components at enqueue time
  };

  struct shard {
    explicit shard(vertex_id n) : dg(n, /*symmetric=*/true) {}
    explicit shard(gbbs::graph<W> piece) : dg(std::move(piece)) {}

    dynamic::dynamic_graph<W> dg;  // worker-owned after start
    overlay_view<W> ov;
    std::shared_ptr<const overlay_snapshot<W>> last_index;  // worker-owned

    std::mutex mu;  // guards queue / stop / history / deltas
    std::condition_variable cv;
    std::deque<task> queue;
    bool stop = false;
    // version -> the shard's overlay snapshot after applying it; consumed
    // (and trimmed below the publish point) by publish_through.
    std::map<std::uint64_t, std::shared_ptr<const overlay_snapshot<W>>>
        history;
    std::deque<cc_delta> deltas;

    std::atomic<std::uint64_t> applied{0};
    std::thread worker;
  };

  void init(const options& opt) {
    // Materialize the scheduler from the coordinating thread before any
    // shard worker runs (same reasoning as query_engine: a transient
    // thread must not become native worker 0).
    parlib::scheduler::instance();
    tracker_.refresh_anchor(cc_.labels());
    const component_view cur = tracker_.current();
    for (auto& sh : shards_) {
      sh->dg.set_compact_threshold(opt.compact_threshold);
      sh->last_index = build_overlay_snapshot(sh->dg, cur, /*epoch=*/0,
                                              /*base_version=*/0);
      sh->ov.refresh(sh->last_index);
      sh->history[0] = sh->last_index;
    }
    publish_through(0);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->worker = std::thread([this, s] { shard_loop(s); });
    }
  }

  void shard_loop(std::size_t si) {
    // Own scheduler deque: the shard's parallel apply/refresh forks land
    // here, stealable by native workers and the other shards' waits.
    parlib::worker_guard guard;
    shard& sh = *shards_[si];
    for (;;) {
      task t;
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        sh.cv.wait(lk, [&] { return !sh.queue.empty() || sh.stop; });
        if (sh.queue.empty()) return;  // stopping and drained
        t = std::move(sh.queue.front());
        sh.queue.pop_front();
      }
      // The batch's trace id rides into this shard's apply spans and
      // every scheduler fork they trigger — one batch, one timeline,
      // across all shard threads.
      parlib::trace::trace_id_scope tscope(t.trace_id);
      // ingest.shard.apply.delay: a straggling shard. Injected before the
      // apply, so the lag is visible in the clock (applied stays behind)
      // — the straggler test proves no composite publishes past it.
      GBBS_FAILPOINT_SLEEP("ingest.shard.apply.delay");
      cc_delta delta;
      delta.version = t.version;
      delta.has_erase = t.sub.has_erases();
      if (!delta.has_erase) {
        delta.links.reserve(t.sub.updates.size() / 2);
        for (const auto& up : t.sub.updates) {
          if (up.op == dynamic::update_op::insert && up.u < up.v) {
            delta.links.emplace_back(up.u, up.v);
          }
        }
      }
      {
        static const obs::stage_ref s_apply =
            obs::stage_named("ingest.shard.apply");
        obs::trace_span span(s_apply);
        sh.dg.apply_batch(t.sub);
      }
      // Distinct updated vertices (the sub-batch stays (u, v)-sorted).
      std::vector<vertex_id> touched = t.sub.touched_vertices();
      {
        static const obs::stage_ref s_refresh =
            obs::stage_named("ingest.shard.refresh");
        obs::trace_span span(s_refresh);
        sh.last_index = build_overlay_snapshot(
            sh.dg, t.cc, /*epoch=*/t.version, store_.current_version(),
            sh.last_index.get(), &touched);
        sh.ov.refresh(sh.last_index);
      }
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.history[t.version] = sh.last_index;
        sh.deltas.push_back(std::move(delta));
      }
      sh.applied.store(t.version, std::memory_order_release);
      // Empty critical section pairs with flush()'s predicate check: the
      // store above cannot slip between a waiter's check and its sleep.
      { std::lock_guard<std::mutex> lk(clock_mu_); }
      clock_cv_.notify_all();
    }
  }

  // Assemble and publish the composite at clock value V (every shard has
  // applied through V). Consumes the shards' connectivity deltas <= V,
  // merges them into the global tracker, and trims per-shard history.
  std::uint64_t publish_through(std::uint64_t V) {
    bool need_rebuild = false;
    std::vector<std::pair<vertex_id, vertex_id>> links;
    auto comp = std::make_shared<composite_snapshot<W>>();
    comp->clock = V;
    comp->part = part_;
    comp->parts.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shard& sh = *shards_[s];
      std::lock_guard<std::mutex> lk(sh.mu);
      while (!sh.deltas.empty() && sh.deltas.front().version <= V) {
        cc_delta& d = sh.deltas.front();
        if (d.has_erase) need_rebuild = true;
        links.insert(links.end(), d.links.begin(), d.links.end());
        sh.deltas.pop_front();
      }
      auto it = sh.history.find(V);
      assert(it != sh.history.end());
      comp->parts[s] = it->second;
      sh.history.erase(sh.history.begin(), it);  // keep V for re-publish
    }
    comp->n = 0;
    comp->m = 0;
    for (const auto& p : comp->parts) {
      comp->n = std::max(comp->n, p->n);
      comp->m += p->m;
    }
    {
      static const obs::stage_ref s_merge =
          obs::stage_named("ingest.barrier.merge");
      obs::trace_span span(s_merge);
      cc_.grow(comp->n);
      if (need_rebuild) {
        // Erases can split components: one rebuild over the stitched
        // composite view (already O(n + m) in the single-writer path
        // too), then re-anchor.
        cc_.rebuild(composite_view<W>(comp));
        tracker_.refresh_anchor(cc_.labels());
      } else if (!links.empty()) {
        cc_.unite_pairs(links);
        for (const auto& [a, b] : links) tracker_.track_pair(a, b);
        if (tracker_.needs_anchor()) tracker_.refresh_anchor(cc_.labels());
      }
    }
    comp->cc = tracker_.current();
    while (!pending_meta_.empty() && pending_meta_.front().first <= V) {
      published_updates_ = pending_meta_.front().second;
      pending_meta_.pop_front();
    }
    published_clock_ = V;
    component_view components = comp->cc;
    const std::uint64_t sv = store_.publish_composite(
        std::move(comp), std::move(components), published_updates_);
    if (cache_ != nullptr) {
      // Standing queries fire once the batches' data is composite-visible:
      // merge every pending touched summary through V into one
      // notification (re-evaluations observe the version just published).
      bucket_set merged;
      bool any = false;
      while (!pending_touched_.empty() && pending_touched_.front().first <= V) {
        merged.merge(pending_touched_.front().second);
        pending_touched_.pop_front();
        any = true;
      }
      if (any) cache_->notify(merged, V);
    }
    return sv;
  }

  dynamic::shard_partition part_;
  std::vector<std::unique_ptr<shard>> shards_;
  snapshot_store<W> store_;

  // Barrier-merged global connectivity + the anchor/link-map tracker
  // shared with snapshot_manager (coordinator-only).
  dynamic::incremental_connectivity cc_;
  component_tracker tracker_;

  std::mutex clock_mu_;  // flush()'s wait on the composite clock
  std::condition_variable clock_cv_;

  // Coordinator-only bookkeeping.
  std::uint64_t ingested_batches_ = 0;
  std::uint64_t updates_ingested_ = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> pending_meta_;
  // Touched-bucket summaries of ingested-but-not-yet-published batches,
  // merged into one standing-query notification per publish barrier.
  std::deque<std::pair<std::uint64_t, bucket_set>> pending_touched_;
  result_cache* cache_ = nullptr;
  std::uint64_t published_clock_ = 0;
  std::uint64_t published_updates_ = 0;
  std::uint64_t last_ingest_trace_id_ = 0;
};

using unweighted_sharded_manager = sharded_snapshot_manager<empty_weight>;

}  // namespace gbbs::serve

// Query engine: typed queries against the serving views. Point reads
// (degree / neighbors / connected / component, is_point_read) execute on
// the submitting thread inside submit(); analytics and standing-query
// re-evaluations go through a queue drained by a pool of N reader
// threads. A point read costs well under a microsecond, less than a queue
// hand-off, a reader wake-up or a cache round-trip would; it never waits
// behind a traversal holding the readers. Both run one execute path
// (execute_and_account), so routing, statuses, stage accounting, spans
// and exemplars are the same wherever a query runs.
//
// Routing (select_view). Each query is planned once — which view serves
// it — and executed once against that plan; query_result::route reports
// the route taken:
//
//   query kind         engine wiring   stale / brownout          route
//   -----------------  --------------  ------------------------  --------
//   any                overlay         -                         overlay
//   any                overlay         q.stale                   pinned
//   analytics          overlay         level >= 1, published     degraded
//                                      version within the bound
//   any                none            any                       pinned
//   degree, neighbors  shard router    -                         overlay
//   other kinds        shard router    any                       pinned
//   analytics,         cache wired     read-set untouched        cache
//     non-stale
//
// `overlay` is the freshest overlay index (every ingest that returned
// before the read); analytics traverse it fused, so no query builds the
// merged CSR. Sharded, it is the owning shard's overlay. `pinned` holds
// the latest published (sharded: composite) version for the query's
// duration; stale analytics use its memoized merged CSR. `degraded` is
// brownout rung 1 (see query_engine_options). Standing-query
// re-evaluations are never degraded: they must record their read-set on
// the fresh view. An overlay engine with no index yet pins; nothing
// published resolves unavailable.
//
// Queries run concurrently with the single writer publishing into the
// same snapshot_store — a query holds the lock-free pin (or the overlay
// index it read), so readers never block ingest and ingest never blocks
// readers; the submission queue itself is a plain mutex + condvar
// (contended only at admission and dequeue, not during execution).
//
// Admission control. The submit queue can be bounded
// (query_engine_options::max_queue) so an ingest-driven query burst
// cannot grow it without limit: `reject` resolves overflowing submits
// immediately with status = rejected (dropped() counts them); `block`
// makes submit wait for space — backpressure on the producer. Point reads
// pass the same locked admission block as analytics although they take
// no queue slot: rejected after stop(), waiting under `block`, rejected
// by serve.submit.saturate or a hard-full queue, never brownout-shed but
// still ticking the ladder. Only what follows admission differs: they
// execute inline instead of being queued. submitted/completed count them
// too, so drain() and completed() cover every admitted query.
//
// Robustness. Queries may carry a relative deadline: one that
// expires while queued resolves timed_out without executing, and one that
// expires mid-flight is stopped cooperatively — the executing thread binds
// a cancellation token (parlib/cancellation.h) for the execution, edge_map
// and the bucketing executor poll it, and par_do propagates it into
// stolen subtasks, so the whole traversal tree unwinds and the partial
// result is discarded. Every future resolves with exactly one
// query_status. Under overload a brownout controller (options.brownout)
// walks the degradation ladder documented on query_engine_options —
// degrade analytics to the published merged CSR (bounded staleness),
// then shed by priority — keeping point reads live until the queue is
// hard-full; they run on the submitting thread, so no queued analytics
// delays them. Failpoints (robust/failpoint.h) can force every one of
// these paths deterministically; serve.exec.delay stalls inline point
// reads on the submitting thread.
//
// SLO + stage accounting (the obs layer). Every query is decomposed into
// the three pipeline stages — queue wait (submit -> dequeue), view
// selection (dequeue -> select_view: overlay read / version pin),
// execute — and each stage plus the total client-observed
// latency is recorded into worker-sharded obs::histograms (bounded
// memory, exact counts/maxima, bucket-estimated percentiles; one lock-free
// sharded increment per stage on the hot path). The per-kind histograms
// are attached to the global obs registry as "serve.query.*" for the
// -metrics-json / live-endpoint exports, and fold into registry-owned
// totals when the engine is destroyed. When the options carry SLO targets
// (one for point reads, one for analytics), per-kind violations are
// counted exactly. latency_by_kind() summarizes count / p50 / p99 / max /
// violations plus the queue-wait and execute breakdown per kind — the
// numbers run_serve prints and bench_serve -json emits, so per-kind
// latency regressions (and submit-queue backpressure, previously hidden
// inside the total) surface in CI. An inline point read records a queue
// wait of 0: its dequeue time is its submit time.
//
// Scheduler participation. Every reader thread registers itself with the
// parlib scheduler (worker_guard) at pool startup, so query-internal
// par_do forks land on the reader's *own* deque — stealable by native
// workers and by the other readers' waiting frames — instead of funneling
// through deque 0 as unknown threads used to. N concurrent analytics
// queries therefore fork from N distinct deques at full parallelism. The
// engine measures where forks land (scheduler::push_count on the reader's
// slot, added to the engine's sched.reader_forks counter once per query)
// so tests and benches can assert the registration is effective.
//
// Result cache (options.cache — see result_cache.h). When wired, a
// non-stale analytics query first consults the cache
// ("serve.cache.lookup" span; point reads never do, a lookup plus an
// insert would cost more than the read): a hit skips execution entirely
// and is provably identical to re-executing fresh (the cache's
// read-set/epoch check). Misses execute normally with
// a read-set recorder threaded through the traversal and publish the
// result back. The same cache instance must be attached to the ingest
// manager (attach_cache) so batches invalidate it; the engine and the
// manager must share one cache, and one engine serves one ingest domain.
// Explicitly-stale, degraded, and non-ok results are never cached.
//
// Standing queries (subscribe()). A subscription registers a watch
// evaluated once at registration and then re-evaluated only when an
// ingest batch touches its recorded read-set (the cache's delta-summary
// listener feeds the trigger). Results are pushed into a bounded
// drop-oldest channel (poll / wait, plus an optional callback invoked
// from the evaluating reader thread). Re-evaluations ride the normal
// reader pool — they appear in the per-kind stats — and coalesce: batches
// landing while a re-eval is in flight collapse into one follow-up
// evaluation, so a subscriber always converges to the freshest answer
// without unbounded queueing. Requires options.cache.
//
// Lifetime: the engine must be destroyed (or stop()ed) before the
// snapshot_store / overlay_view it reads from. The destructor finishes
// all queued queries and waits out inline point reads still running on
// client threads, so every future obtained from submit() becomes ready;
// stop() also closes every subscription channel.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/exemplar.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "parlib/cancellation.h"
#include "parlib/scheduler.h"
#include "parlib/trace_hooks.h"
#include "robust/failpoint.h"
#include "serve/overlay_view.h"
#include "serve/query.h"
#include "serve/read_set.h"
#include "serve/result_cache.h"
#include "serve/snapshot_store.h"

namespace gbbs::serve {

// A standing query's live handle (see query_engine::subscribe). Results
// are pushed into a bounded drop-oldest channel: a slow consumer loses
// the *oldest* undelivered results (dropped() counts them) and always
// finds the freshest at the back — convergence beats completeness for a
// watch. Thread-safe; outliving the engine is fine (the channel is closed
// at engine stop and poll/wait then report what is already buffered).
class subscription {
 public:
  // Non-blocking: pop the oldest buffered result. False if none buffered.
  bool poll(query_result* out) {
    std::lock_guard<std::mutex> lk(mu_);
    if (chan_.empty()) return false;
    *out = std::move(chan_.front());
    chan_.pop_front();
    return true;
  }

  // Block until a result is available (or timeout / channel close). False
  // on timeout or close with nothing buffered.
  bool wait(query_result* out, double timeout_s) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                 [&] { return !chan_.empty() || closed_; });
    if (chan_.empty()) return false;
    *out = std::move(chan_.front());
    chan_.pop_front();
    return true;
  }

  // Results pushed into the channel (including any later dropped).
  std::uint64_t delivered() const {
    std::lock_guard<std::mutex> lk(mu_);
    return delivered_;
  }
  // Results evicted unread by the drop-oldest overflow policy.
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
  }
  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }
  const query& watched() const { return q_; }

 private:
  template <typename>
  friend class query_engine;

  subscription(query q, std::size_t cap,
               std::function<void(const query_result&)> cb)
      : q_(q), cap_(cap == 0 ? 1 : cap), cb_(std::move(cb)) {}

  // Called by the evaluating reader thread; the optional callback runs
  // there too (keep it cheap, it holds a reader).
  void deliver(const query_result& r) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return;
      if (chan_.size() >= cap_) {
        chan_.pop_front();
        ++dropped_;
      }
      chan_.push_back(r);
      ++delivered_;
    }
    cv_.notify_all();
    if (cb_) cb_(r);
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  const query q_;
  const std::size_t cap_;
  const std::function<void(const query_result&)> cb_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<query_result> chan_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  bool closed_ = false;

  // Engine-side trigger state, guarded by the engine's subs_mutex_:
  // reads_ is the read-set of the last evaluation (all-buckets until the
  // first one lands); eval_state_ coalesces triggers — 0 idle, 1 re-eval
  // queued or running, 2 running with a batch landed since (one follow-up
  // re-eval is queued when it finishes).
  bucket_set reads_;
  int eval_state_ = 0;
};

struct query_engine_options {
  // Max queries waiting in the submit queue; 0 = unbounded (the PR-2
  // behavior). In-flight queries (being executed) don't count.
  std::size_t max_queue = 0;
  enum class overflow_policy : std::uint8_t {
    reject,  // overflowing submit resolves immediately, rejected = true
    block,   // overflowing submit waits until the queue has space
  };
  overflow_policy on_overflow = overflow_policy::reject;

  // Latency SLO targets (seconds); 0 disables. Point reads (degree /
  // neighbors / connected / component) are held to slo_point_s, traversal
  // analytics to slo_analytics_s. Violations are counted per kind.
  double slo_point_s = 0;
  double slo_analytics_s = 0;

  // Brownout controller (overload protection). When enabled, submit-side
  // admission walks a degradation ladder driven by queue depth:
  //   level 0  normal
  //   level 1  degrade: analytics answered from the published memoized
  //            merged CSR with a bounded-staleness annotation
  //            (result.route == degraded, result.staleness); beyond
  //            kDegradedStalenessBound ingested updates behind the fresh
  //            overlay the fresh path is used instead
  //   level 2  + shed low-priority analytics (status = rejected)
  //   level 3  + shed all analytics; point reads stay admitted until the
  //            queue is hard-full
  // The rungs are queue depths max_queue * {1/4, 1/2, 3/4}; stepping down
  // requires depth <= rung/2 (hysteresis, no flapping at a rung edge).
  // Transitions are counted, gauged (serve.degrade.level), and tagged in
  // the flight recorder. Requires max_queue >= 4 (every rung non-zero).
  bool brownout = false;

  // Result cache (result_cache.h): non-stale queries consult it before
  // executing and publish canonical results back into it; also the
  // delta-summary source for subscribe(). The same instance MUST be
  // attached to the ingest manager feeding this engine's store/overlay
  // (snapshot_manager::attach_cache / sharded's), and must outlive the
  // engine. Null disables caching and standing queries.
  result_cache* cache = nullptr;
};

// Max ingested updates the published version may lag the fresh overlay
// for a degraded (brownout level >= 1) analytics answer. Beyond it the
// fresh path is used even under brownout — degradation is lossy but never
// unboundedly stale.
inline constexpr std::uint64_t kDegradedStalenessBound = 1ull << 16;

// The pinned version's position on the cache's invalidation clock: the
// composite batch-version clock for sharded versions, the ingested-update
// count for single-writer ones — each the domain the owning manager's
// invalidate() calls use.
template <typename W>
std::uint64_t pinned_epoch(const pinned_snapshot<W>& snap) {
  if (const composite_snapshot<W>* cs = snap.composite()) return cs->clock;
  return snap.updates_ingested();
}

// Which view serves a query (see the routing table in the file header).
// Owns the overlay index or the version pin it needs; false when there is
// nothing published to serve from.
template <typename W>
struct view_plan {
  query_route route = query_route::pinned;
  std::shared_ptr<const overlay_snapshot<W>> idx;  // route == overlay
  pinned_snapshot<W> snap;                          // pinned / degraded
  std::uint64_t epoch = 0;      // the view's position on the cache clock
  std::uint64_t staleness = 0;  // degraded: updates behind the overlay

  explicit operator bool() const {
    return idx != nullptr || static_cast<bool>(snap);
  }
};

// The overlay that can serve q fresh, or null: the single-writer overlay
// serves every kind; a sharded engine serves only per-vertex point reads
// fresh, from the owning shard.
template <typename W>
const overlay_view<W>* fresh_source(const query& q,
                                    const overlay_view<W>* overlay,
                                    const shard_router<W>& router) {
  if (overlay != nullptr) return overlay;
  if (!router.empty() &&
      (q.kind == query_kind::degree || q.kind == query_kind::neighbors)) {
    return &router.owner(q.u);
  }
  return nullptr;
}

// Plan q: `fresh` is fresh_source's answer, `degrade_level` the brownout
// rung. The store.pin.fail failpoint makes every pin come back empty.
template <typename W>
view_plan<W> select_view(const query& q, const overlay_view<W>* fresh,
                         const snapshot_store<W>& store, int degrade_level,
                         bool is_subscription,
                         std::uint64_t degraded_staleness_bound) {
  const auto pin = [&store]() -> pinned_snapshot<W> {
    if (GBBS_FAILPOINT_TRIGGERED("store.pin.fail")) return {};
    return store.pin();
  };
  view_plan<W> plan;
  if (fresh != nullptr && !q.stale) plan.idx = fresh->read();
  if (plan.idx == nullptr) {
    plan.snap = pin();
    if (plan.snap) plan.epoch = pinned_epoch(plan.snap);
    return plan;
  }
  // Point reads stay fresh under brownout: they are O(deg), degrading
  // them would save nothing.
  if (degrade_level >= 1 && !is_point_read(q.kind) && !is_subscription) {
    if (pinned_snapshot<W> snap = pin()) {
      const std::uint64_t published = snap.updates_ingested();
      const std::uint64_t behind =
          plan.idx->epoch > published ? plan.idx->epoch - published : 0;
      if (behind <= degraded_staleness_bound) {
        plan.route = query_route::degraded;
        plan.idx = nullptr;
        plan.snap = std::move(snap);
        plan.staleness = behind;
        return plan;
      }
    }
  }
  plan.route = query_route::overlay;
  plan.epoch = plan.idx->epoch;
  return plan;
}

// Execute q against its plan; the plan's index or pin is released when
// this returns. `rec` (optional) records the analytics read-set.
template <typename W>
query_result execute_plan(view_plan<W> plan, const query& q,
                          read_set_recorder* rec) {
  switch (plan.route) {
    case query_route::overlay:
      return execute_fresh_query(std::move(plan.idx), q, rec);
    case query_route::degraded: {
      query sq = q;
      sq.stale = true;  // the published version's memoized merged CSR
      query_result r = execute_query(plan.snap, sq, rec);
      r.route = query_route::degraded;
      r.staleness = plan.staleness;
      return r;
    }
    default:
      return execute_query(plan.snap, q, rec);
  }
}

template <typename W>
class query_engine {
 public:
  // Per-kind latency summary (seconds). Counts, maxima, and violations
  // are exact; percentiles are estimated from the obs histogram's
  // log-linear buckets (<= ~6% relative error). The queue/exec pairs
  // split the total into time waiting in the submit queue vs time
  // executing, so backpressure from a bounded queue is visible.
  struct kind_stats {
    std::uint64_t count = 0;
    std::uint64_t slo_violations = 0;
    double p50_s = 0;
    double p99_s = 0;
    double max_s = 0;
    double queue_p50_s = 0;
    double queue_p99_s = 0;
    double exec_p50_s = 0;
    double exec_p99_s = 0;
  };

  // Snapshot-only engine: every query pins a published version.
  explicit query_engine(const snapshot_store<W>& store,
                        std::size_t num_readers = 4,
                        query_engine_options options = {})
      : query_engine(store, nullptr, num_readers, options) {}

  // Sharded engine: per-vertex point reads route to the owning shard's
  // overlay (router = manager.router()); everything else pins the latest
  // composite version. The routed overlay_views must outlive the engine.
  query_engine(const snapshot_store<W>& store, shard_router<W> router,
               std::size_t num_readers = 4, query_engine_options options = {})
      : query_engine(store, nullptr, num_readers, options,
                     std::move(router)) {}

  // Engine with a fresh path: all kinds are served from `overlay`
  // (pass &manager.overlay()) unless a query asks for `stale`.
  query_engine(const snapshot_store<W>& store,
               const overlay_view<W>* overlay, std::size_t num_readers = 4,
               query_engine_options options = {},
               shard_router<W> router = {})
      : store_(store),
        overlay_(overlay),
        router_(std::move(router)),
        options_(options) {
    if (num_readers == 0) num_readers = 1;
    // Materialize the scheduler from the constructing thread before any
    // reader runs: if this were the process's first scheduler touch, a
    // transient reader thread would otherwise be bound as native worker 0
    // (see scheduler.h) and orphan that slot at engine shutdown.
    parlib::scheduler::instance();
    // Flight recorder + exemplar store before the first traced query, so
    // the scheduler hook and registry callbacks are installed (both are
    // idempotent leaked singletons). Intern the per-kind timeline names
    // once; the reader loop stamps them on query spans.
    auto& fr = obs::flight_recorder::global();
    obs::exemplar_store::global();
    for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
      kind_name_ids_[k] = fr.intern(
          "serve.query." +
          std::string(query_kind_name(static_cast<query_kind>(k))));
    }
    timed_out_name_id_ = fr.intern("serve.query.timed_out");
    cancelled_name_id_ = fr.intern("serve.query.cancelled");
    brownout_name_id_ = fr.intern("serve.brownout.level");
    // Export the per-kind stage histograms through the obs registry (live
    // while the engine runs; folded into registry-owned totals on
    // destruction so at-exit snapshots keep them).
    auto& reg = obs::registry::global();
    for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
      const std::string kind = query_kind_name(static_cast<query_kind>(k));
      registrations_.push_back(reg.attach_histogram(
          "serve.query.latency." + kind, &kind_metrics_[k].latency));
      registrations_.push_back(reg.attach_histogram(
          "serve.query.queue_wait." + kind, &kind_metrics_[k].queue_wait));
      registrations_.push_back(reg.attach_histogram(
          "serve.query.execute." + kind, &kind_metrics_[k].execute));
    }
    registrations_.push_back(
        reg.attach_histogram("serve.query.view_select", &view_select_));
    registrations_.push_back(reg.attach_histogram(
        "serve.query.queue_wait.all", &queue_wait_all_));
    // Robustness counters: engine-owned, attached to the registry the
    // same way, so they surface in -metrics-json / Prometheus (summed
    // over live engines) and survive the engine.
    const auto attach = [&](const char* name, const obs::counter* c) {
      registrations_.push_back(reg.attach_counter(name, c));
    };
    attach("serve.query.timed_out", &timed_out_);
    attach("serve.query.shed", &shed_);
    attach("serve.query.cancelled", &cancelled_);
    attach("serve.query.unavailable", &unavailable_);
    attach("serve.query.degraded", &degraded_);
    attach("serve.degrade.transitions", &degrade_transitions_);
    attach("sched.reader_forks", &reader_forks_);
    degrade_level_gauge_ = &reg.get_gauge("serve.degrade.level");
    // Brownout rungs derive from the queue bound; a bound too small to
    // give every rung a non-zero depth leaves no ladder to stand on.
    bn_degrade_ = options_.max_queue / 4;
    bn_shed_low_ = options_.max_queue / 2;
    bn_shed_all_ = options_.max_queue - options_.max_queue / 4;
    brownout_enabled_ = options_.brownout && bn_degrade_ != 0;
    cache_ = options_.cache;
    if (cache_ != nullptr) {
      cache_hit_name_id_ = fr.intern("serve.cache.hit");
      cache_miss_name_id_ = fr.intern("serve.cache.miss");
      // Standing-query trigger: the ingest manager publishes each batch's
      // touched-bucket summary through the shared cache once the batch is
      // reader-visible; intersecting subscriptions get a re-eval enqueued
      // on the normal reader pool. Removed in stop() before the engine's
      // state can go away.
      cache_listener_id_ = cache_->add_listener(
          [this](const bucket_set& touched, std::uint64_t epoch) {
            on_delta(touched, epoch);
          });
    }
    readers_.reserve(num_readers);
    for (std::size_t i = 0; i < num_readers; ++i) {
      readers_.emplace_back([this] { reader_loop(); });
    }
  }

  query_engine(const query_engine&) = delete;
  query_engine& operator=(const query_engine&) = delete;

  ~query_engine() { stop(); }

  // Admit a query; the future resolves once it has executed. Point reads
  // (is_point_read) execute right here on the calling thread and come
  // back ready; everything else is queued for the reader pool. Thread-
  // safe. Latency is measured submit -> completion (queue wait included),
  // the client-observed number. A submit that races with (or follows)
  // stop() is rejected: its future resolves immediately with status =
  // rejected (and counts toward dropped()), never left unready. A submit
  // overflowing a bounded queue follows the configured policy — point
  // reads too, although they take no queue slot; brownout shedding (see
  // query_engine_options) also resolves here, so a shed query costs its
  // client one allocation and zero reader time.
  std::future<query_result> submit(query q) {
    item it;
    it.q = q;
    it.submitted = std::chrono::steady_clock::now();
    if (q.deadline_s > 0) {
      it.has_deadline = true;
      it.deadline =
          it.submitted +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(q.deadline_s));
    }
    // Every query is one request timeline: the id set here follows the
    // query across the queue hand-off (flow events), into the execute
    // span, and down into any scheduler forks/steals the algorithm
    // triggers.
    it.trace_id = obs::flight_recorder::global().next_trace_id();
    const std::uint64_t trace_id = it.trace_id;
    const bool run_inline = is_point_read(q.kind);
    std::future<query_result> fut = it.promise.get_future();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      if (options_.max_queue != 0 &&
          options_.on_overflow ==
              query_engine_options::overflow_policy::block) {
        space_cv_.wait(lk, [this] {
          return queue_.size() < options_.max_queue || stopping_;
        });
      }
      if (stopping_) {
        query_result r;
        r.status = query_status::rejected;  // not served
        ++dropped_;
        it.promise.set_value(std::move(r));
        return fut;
      }
      if (brownout_enabled_) {
        update_brownout_locked();
        const int level = degrade_level_.load(std::memory_order_relaxed);
        // Point reads ride through every rung; analytics are shed at
        // level 2 (low priority) and level 3 (all priorities).
        if (!is_point_read(q.kind) &&
            (level >= 3 ||
             (level >= 2 && q.priority == query_priority::low))) {
          shed_.add();
          query_result r;
          r.status = query_status::rejected;
          it.promise.set_value(std::move(r));
          return fut;
        }
      }
      // serve.submit.saturate: behave as if the queue were full. Forced
      // saturation rejects even under the block policy — a blocked submit
      // would deadlock the injection.
      const bool saturated = GBBS_FAILPOINT_TRIGGERED("serve.submit.saturate");
      if (saturated ||
          (options_.max_queue != 0 && queue_.size() >= options_.max_queue)) {
        ++dropped_;
        query_result r;
        r.status = query_status::rejected;
        it.promise.set_value(std::move(r));
        return fut;
      }
      ++submitted_;
      if (!run_inline) queue_.push_back(std::move(it));
    }
    if (run_inline) {
      // No hand-off: dequeue time = submit time, so the queue wait is 0.
      const auto submitted = it.submitted;
      execute_and_account(std::move(it), submitted, nullptr);
      return fut;
    }
    // Flow source on the submitting thread: pairs with the reader's
    // flow_end at dequeue (flow id = the trace id), drawing the
    // queue-wait arrow across threads in the Perfetto view.
    obs::flight_recorder::global().emit_with_id(
        obs::event_type::flow_begin, trace_id, 0, trace_id);
    work_cv_.notify_one();
    return fut;
  }

  // Block until every submitted query has completed.
  void drain() {
    std::unique_lock<std::mutex> lk(mutex_);
    idle_cv_.wait(lk, [this] { return completed_ == submitted_; });
  }

  // Finish all queued queries, join the readers, and wait out inline
  // point reads admitted before the stop, so no query touches the store
  // or overlay once this returns. Idempotent. Also detaches the cache
  // listener (no standing-query triggers fire after this returns) and
  // closes every subscription channel so blocked wait()ers wake.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
    for (auto& t : readers_) t.join();
    readers_.clear();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      idle_cv_.wait(lk, [this] { return completed_ == submitted_; });
    }
    if (cache_ != nullptr && cache_listener_id_ != 0) {
      // Blocks until no notify() is mid-listener, so after this the
      // ingest thread can no longer reach into this engine.
      cache_->remove_listener(cache_listener_id_);
      cache_listener_id_ = 0;
    }
    std::vector<std::shared_ptr<subscription>> subs;
    {
      std::lock_guard<std::mutex> lk(subs_mutex_);
      subs.swap(subs_);
    }
    for (const auto& sp : subs) sp->close();
  }

  // Register a standing query: evaluated once now, then re-evaluated
  // whenever an ingest batch touches its recorded read-set, each result
  // pushed into the subscription's bounded channel (and the optional
  // callback, invoked from the evaluating reader thread). Requires a
  // wired result cache — returns nullptr without one. The handle returned
  // by a subscribe() racing stop() comes back already closed. Thread-safe.
  std::shared_ptr<subscription> subscribe(
      query q, std::size_t channel_capacity = 8,
      std::function<void(const query_result&)> callback = {}) {
    if (cache_ == nullptr) return nullptr;
    // Standing queries are engine-managed: deadline/cancel/stale belong
    // to one-shot requests.
    q.deadline_s = 0;
    q.cancel = nullptr;
    q.stale = false;
    auto sp = std::shared_ptr<subscription>(
        new subscription(q, channel_capacity, std::move(callback)));
    // Trigger on anything until the first evaluation records the real
    // read-set (sound: never misses a relevant batch).
    sp->reads_.set_all();
    {
      std::lock_guard<std::mutex> lk(subs_mutex_);
      subs_.push_back(sp);
      sp->eval_state_ = 1;
    }
    if (!enqueue_sub(sp)) {
      std::lock_guard<std::mutex> lk(subs_mutex_);
      sp->eval_state_ = 0;
      sp->close();
    }
    return sp;
  }

  // Deregister a standing query and close its channel (already-buffered
  // results stay pollable). An in-flight re-evaluation may still finish;
  // its delivery lands on a closed channel and is discarded.
  void unsubscribe(const std::shared_ptr<subscription>& sp) {
    if (sp == nullptr) return;
    {
      std::lock_guard<std::mutex> lk(subs_mutex_);
      for (std::size_t i = 0; i < subs_.size(); ++i) {
        if (subs_[i] == sp) {
          subs_.erase(subs_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    sp->close();
  }

  std::size_t num_subscriptions() const {
    std::lock_guard<std::mutex> lk(subs_mutex_);
    return subs_.size();
  }

  std::size_t num_readers() const { return readers_.size(); }

  std::uint64_t completed() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return completed_;
  }

  // Queries rejected by the bounded-queue overflow policy.
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return dropped_;
  }

  // Jobs the reader threads forked onto their *own* scheduler deques while
  // executing queries (0 if readers could not register, e.g. slot-table
  // exhaustion, or if every query ran without forking). The per-reader-
  // deque evidence that concurrent queries don't funnel through deque 0.
  std::uint64_t reader_forks() const { return reader_forks_.value(); }

  // ---- robustness observability -------------------------------------------

  // Queries resolved timed_out (deadline expired in queue or mid-flight).
  std::uint64_t timed_out() const { return timed_out_.value(); }
  // Queries resolved cancelled via an explicit token.
  std::uint64_t cancelled_queries() const { return cancelled_.value(); }
  // Analytics shed by the brownout ladder (status = rejected at submit).
  std::uint64_t shed() const { return shed_.value(); }
  // Queries resolved unavailable (nothing published to serve from).
  std::uint64_t unavailable() const { return unavailable_.value(); }
  // Analytics answered degraded (published merged CSR under brownout).
  std::uint64_t degraded_served() const { return degraded_.value(); }
  // Current brownout rung (0 = normal .. 3 = shed all analytics).
  int degrade_level() const {
    return degrade_level_.load(std::memory_order_relaxed);
  }
  // Ladder transitions (every level change, up or down).
  std::uint64_t degrade_transitions() const {
    return degrade_transitions_.value();
  }

  // Per-kind latency/SLO summary over everything completed so far.
  // Counts, maxima, and violations are exact; percentiles are estimated
  // from the sharded stage histograms. Index with
  // static_cast<std::size_t>(query_kind).
  std::array<kind_stats, kNumQueryKinds> latency_by_kind() const {
    std::array<kind_stats, kNumQueryKinds> out;
    for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
      const auto total = kind_metrics_[k].latency.read();
      out[k].count = total.count;
      out[k].slo_violations =
          slo_violations_[k].load(std::memory_order_relaxed);
      if (total.count == 0) continue;
      out[k].p50_s = total.p50_s;
      out[k].p99_s = total.p99_s;
      out[k].max_s = total.max_s;
      const auto queue = kind_metrics_[k].queue_wait.read();
      out[k].queue_p50_s = queue.p50_s;
      out[k].queue_p99_s = queue.p99_s;
      const auto exec = kind_metrics_[k].execute.read();
      out[k].exec_p50_s = exec.p50_s;
      out[k].exec_p99_s = exec.p99_s;
    }
    return out;
  }

 private:
  struct item {
    query q;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;  // absolute, from
                                                     // q.deadline_s
    bool has_deadline = false;
    std::promise<query_result> promise;
    std::uint64_t trace_id = 0;  // flight-recorder request id
    // Set for standing-query re-evaluations: the result is delivered into
    // the subscription's channel (the promise has no consumer), the cache
    // is bypassed, and the read-set is re-recorded.
    std::shared_ptr<subscription> sub;
  };

  // Stage histograms for one query kind (worker-sharded, lock-free on the
  // record path — see obs/metrics.h).
  struct kind_metrics {
    obs::histogram latency;     // submit -> completion (client-observed)
    obs::histogram queue_wait;  // submit -> dequeue by a reader
    obs::histogram execute;     // view selected -> result computed
  };

  double slo_for(query_kind k) const {
    return is_point_read(k) ? options_.slo_point_s
                            : options_.slo_analytics_s;
  }

  // Walk the brownout ladder. Called from submit with mutex_ held (queue
  // depth is exact). Depth picks the target rung. Hysteresis: stepping
  // down requires depth at or below half the rung that raised the level.
  void update_brownout_locked() {
    const std::size_t depth = queue_.size();
    int target = 0;
    if (depth >= bn_shed_all_) {
      target = 3;
    } else if (depth >= bn_shed_low_) {
      target = 2;
    } else if (depth >= bn_degrade_) {
      target = 1;
    }
    const int level = degrade_level_.load(std::memory_order_relaxed);
    ++bn_ticks_;
    if (target > level) {
      // Escalation is immediate — protection first.
      set_degrade_level_locked(target);
    } else if (target < level) {
      // De-escalation needs depth at half the raising rung AND a dwell
      // since the last change, so a queue that drains-and-refills every
      // batch doesn't flap the ladder at submit frequency.
      const std::size_t rung =
          level >= 3 ? bn_shed_all_ : level == 2 ? bn_shed_low_ : bn_degrade_;
      if (depth <= rung / 2 && bn_ticks_ - bn_last_change_ >= 256) {
        set_degrade_level_locked(level - 1);
      }
    }
  }

  void set_degrade_level_locked(int level) {
    bn_last_change_ = bn_ticks_;
    degrade_level_.store(level, std::memory_order_relaxed);
    degrade_transitions_.add();
    degrade_level_gauge_->set(level);
    // Flight-recorder tag: the transition shows up on whatever request
    // timeline triggered it, arg = the new rung.
    obs::flight_recorder::global().emit(
        obs::event_type::instant, brownout_name_id_,
        static_cast<std::uint64_t>(level));
  }

  // Enqueue a standing-query re-evaluation on the reader pool. Returns
  // false (without enqueueing) when the engine is stopping; the caller
  // resets the subscription's trigger state under subs_mutex_. Never
  // touches subs_mutex_ itself, so it is callable with it held (on_delta)
  // or not (subscribe / reader re-arm) — lock order is subs_mutex_ before
  // mutex_ throughout.
  bool enqueue_sub(const std::shared_ptr<subscription>& sp) {
    item it;
    it.q = sp->q_;
    it.sub = sp;
    it.submitted = std::chrono::steady_clock::now();
    it.trace_id = obs::flight_recorder::global().next_trace_id();
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (stopping_) return false;
      queue_.push_back(std::move(it));
      ++submitted_;
    }
    work_cv_.notify_one();
    return true;
  }

  // The cache's delta-summary listener (runs on the ingest thread, after
  // the batch became reader-visible): trigger every subscription whose
  // read-set the batch touched. Coalescing via eval_state_ bounds work to
  // at most one queued re-eval per subscription however fast batches land.
  void on_delta(const bucket_set& touched, std::uint64_t /*epoch*/) {
    std::lock_guard<std::mutex> lk(subs_mutex_);
    for (const auto& sp : subs_) {
      if (!touched.intersects(sp->reads_)) continue;
      if (sp->eval_state_ == 0) {
        sp->eval_state_ = 1;
        if (!enqueue_sub(sp)) sp->eval_state_ = 0;
      } else {
        sp->eval_state_ = 2;
      }
    }
  }

  // One query fully resolved (any status): progress accounting + drain()
  // wake-up.
  void finish_one() {
    bool idle;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      ++completed_;
      idle = completed_ == submitted_;
    }
    if (idle) idle_cv_.notify_all();
  }

  void reader_loop() {
    // Own deque slot for this reader: query-internal forks land here (and
    // this thread help-steals while joining) instead of running inline.
    parlib::worker_guard guard;
    for (;;) {
      item it;
      {
        std::unique_lock<std::mutex> lk(mutex_);
        work_cv_.wait(lk, [this] { return !queue_.empty() || stopping_; });
        if (queue_.empty()) return;  // stopping and drained
        it = std::move(queue_.front());
        queue_.pop_front();
      }
      space_cv_.notify_one();
      // Ends the submit-side flow: the queue-wait arrow lands here.
      obs::flight_recorder::global().emit_with_id(
          obs::event_type::flow_end, it.trace_id, 0, it.trace_id);
      execute_and_account(std::move(it), std::chrono::steady_clock::now(),
                          &guard);
    }
  }

  // Execute one admitted query, resolve its future, and account for it.
  // The one execute path: reader threads call it after dequeue, submit()
  // calls it inline for point reads with dequeued = the submit time.
  // `guard` is the calling reader's scheduler registration (null inline:
  // point reads never fork).
  void execute_and_account(item it,
                           std::chrono::steady_clock::time_point dequeued,
                           const parlib::worker_guard* guard) {
    // Adopt the query's trace id for the rest of this call: the execute
    // span below, and every scheduler fork/steal the query's par_do
    // triggers (the id rides job::trace_id into thief threads), all
    // attribute to this request.
    parlib::trace::trace_id_scope tscope(it.trace_id);
    auto& fr = obs::flight_recorder::global();
    const double queue_wait_s =
        std::chrono::duration<double>(dequeued - it.submitted).count();
    queue_wait_all_.record_s(queue_wait_s);
    // Deadline check at dequeue: a query that already expired while
    // waiting resolves timed_out without executing — its client has
    // given up, so running it now would be pure wasted capacity.
    if (it.has_deadline && dequeued >= it.deadline) {
      fr.emit(obs::event_type::instant, timed_out_name_id_);
      query_result r;
      r.status = query_status::timed_out;
      r.latency_s = queue_wait_s;
      timed_out_.add();
      it.promise.set_value(std::move(r));
      finish_one();
      return;
    }
    const auto kind_idx = static_cast<std::size_t>(it.q.kind);
    const std::uint32_t span_name_id =
        kind_idx < kNumQueryKinds ? kind_name_ids_[kind_idx] : 0;
    fr.emit(obs::event_type::span_begin, span_name_id);
    // Set right before the query's algorithm runs: [dequeued,
    // exec_start) is view selection (cache lookup / select_view),
    // [exec_start, done) is execution.
    auto exec_start = dequeued;
    const bool registered = guard != nullptr && guard->registered();
    const std::uint64_t forks_before =
        registered ? parlib::scheduler::instance().push_count(guard->slot())
                   : 0;
    query_result r;
    // Only analytics are cached; point reads cost less than a lookup.
    // Read-set recorder for this execution: needed when a cacheable
    // analytics result will be inserted (bfs precision; whole-graph
    // kinds record the universe) and for every standing-query re-eval.
    // Point reads derive their read-set from the key alone.
    const bool point = is_point_read(it.q.kind);
    read_set_recorder rec;
    const bool cacheable =
        cache_ != nullptr && it.sub == nullptr && !it.q.stale && !point;
    read_set_recorder* rec_ptr =
        ((cacheable || it.sub != nullptr) && !point) ? &rec : nullptr;
    bool from_cache = false;
    if (cacheable) {
      // Lookup is one slot load + the read-set epoch check; a hit
      // skips view selection and execution entirely.
      static const obs::stage_ref s_lookup =
          obs::stage_named("serve.cache.lookup");
      obs::trace_span cspan(s_lookup);
      from_cache = cache_->lookup(it.q, &r);
      fr.emit(obs::event_type::instant,
              from_cache ? cache_hit_name_id_ : cache_miss_name_id_);
      if (from_cache) exec_start = std::chrono::steady_clock::now();
    }
    // Cancellation token for the execution: caller-supplied when the
    // query carries one, else a call-local token when a deadline is
    // armed. The token_scope binds it as this thread's current token,
    // and par_do carries it into every forked job — stolen subtasks
    // poll the same token (scheduler.h), so one latch stops them all.
    parlib::cancel::token local_token;
    parlib::cancel::token* tok = it.q.cancel;
    if (tok == nullptr && it.has_deadline) tok = &local_token;
    if (tok != nullptr && it.has_deadline) tok->set_deadline(it.deadline);
    bool executed = false;
    std::uint64_t entry_epoch = 0;  // the view's cache-clock position
    if (!from_cache) {
      parlib::cancel::token_scope cscope(tok);
      GBBS_FAILPOINT_SLEEP("serve.exec.delay");
      // The ladder only moves with brownout on; otherwise the level
      // stays 0 and need not be loaded.
      view_plan<W> plan = select_view(
          it.q, fresh_source(it.q, overlay_, router_), store_,
          brownout_enabled_ ? degrade_level_.load(std::memory_order_relaxed)
                            : 0,
          it.sub != nullptr, kDegradedStalenessBound);
      exec_start = std::chrono::steady_clock::now();
      if (plan) {
        entry_epoch = plan.epoch;
        r = execute_plan(std::move(plan), it.q, rec_ptr);
        executed = true;
        if (r.route == query_route::degraded) degraded_.add();
      }
    }
    if (tok != nullptr && tok->cancelled()) {
      // The traversal unwound early (or raced completion with the
      // latch): its partial output is not a correct answer, so discard
      // everything and report how the run ended.
      const bool expired = tok->timed_out();
      r = query_result{};
      r.status =
          expired ? query_status::timed_out : query_status::cancelled;
      fr.emit(obs::event_type::instant,
              expired ? timed_out_name_id_ : cancelled_name_id_);
      (expired ? timed_out_ : cancelled_).add();
    } else if (!from_cache && !executed) {
      // Nothing published to serve from: say so instead of handing the
      // client a default-constructed (silently empty) result.
      r.status = query_status::unavailable;
      unavailable_.add();
    }
    if (cacheable && executed) {
      // Publish the result back (insert drops degraded and non-ok
      // ones): read-set from the recorder, epoch from the plan.
      cache_->insert(it.q, r, read_set_for(it.q, rec_ptr), entry_epoch);
    }
    if (registered) {
      const std::uint64_t forks =
          parlib::scheduler::instance().push_count(guard->slot()) -
          forks_before;
      // One add per query, not per fork.
      if (forks != 0) reader_forks_.add(forks);
    }
    const auto done = std::chrono::steady_clock::now();
    fr.emit(obs::event_type::span_end, span_name_id);
    r.latency_s =
        std::chrono::duration<double>(done - it.submitted).count();
    const auto kind_slot = static_cast<std::size_t>(it.q.kind);
    const double slo = slo_for(it.q.kind);
    const double latency = r.latency_s;
    const query_status status = r.status;
    if (it.sub != nullptr) {
      // Standing query: refresh the trigger read-set from this
      // evaluation, deliver, and re-arm — a batch that landed mid-eval
      // (eval_state_ == 2) queues exactly one follow-up, so the
      // subscriber converges to the freshest answer.
      bool requeue = false;
      {
        std::lock_guard<std::mutex> lk(subs_mutex_);
        if (status == query_status::ok) {
          it.sub->reads_ = read_set_for(it.q, rec_ptr);
        }
        if (it.sub->eval_state_ == 2) {
          it.sub->eval_state_ = 1;
          requeue = true;
        } else {
          it.sub->eval_state_ = 0;
        }
      }
      if (status == query_status::ok) it.sub->deliver(r);
      if (requeue && !enqueue_sub(it.sub)) {
        std::lock_guard<std::mutex> lk(subs_mutex_);
        it.sub->eval_state_ = 0;
      }
    }
    it.promise.set_value(std::move(r));
    // Stage accounting: three sharded histogram records + the engine-
    // wide view-selection span, all lock-free on the calling thread's
    // own cells (obs/metrics.h) — the submit-queue mutex is not touched.
    // Only successful queries are recorded: a timed-out / cancelled /
    // unavailable resolution is not a latency sample of the kind's
    // execution and would skew the percentiles CI gates on.
    if (status == query_status::ok && kind_slot < kNumQueryKinds) {
      kind_metrics& km = kind_metrics_[kind_slot];
      km.latency.record_s(latency);
      km.queue_wait.record_s(queue_wait_s);
      km.execute.record_s(
          std::chrono::duration<double>(done - exec_start).count());
      view_select_.record_s(
          std::chrono::duration<double>(exec_start - dequeued).count());
      if (slo > 0 && latency > slo) {
        slo_violations_[kind_slot].fetch_add(1,
                                             std::memory_order_relaxed);
      }
    }
    // Tail sampling: now that the latency is known, retain this
    // request's full timeline if it ranks among the slowest (no-op
    // unless a threshold was configured — see -slow-trace-ms).
    obs::exemplar_store::global().maybe_capture(
        it.trace_id, query_kind_name(it.q.kind), latency);
    finish_one();
  }

  const snapshot_store<W>& store_;
  const overlay_view<W>* overlay_ = nullptr;  // null: snapshot-only engine
  const shard_router<W> router_;  // empty: not a sharded engine
  const query_engine_options options_;
  std::vector<std::thread> readers_;

  // Stage histograms precede registrations_ so the registry detaches (and
  // folds totals) before they are destroyed.
  std::array<kind_metrics, kNumQueryKinds> kind_metrics_;
  obs::histogram view_select_;
  // All-kind queue-wait samples (serve.query.queue_wait.all).
  obs::histogram queue_wait_all_;
  // Interned flight-recorder names for the per-kind query spans.
  std::array<std::uint32_t, kNumQueryKinds> kind_name_ids_{};
  std::uint32_t timed_out_name_id_ = 0;
  std::uint32_t cancelled_name_id_ = 0;
  std::uint32_t brownout_name_id_ = 0;
  std::uint32_t cache_hit_name_id_ = 0;
  std::uint32_t cache_miss_name_id_ = 0;
  std::array<std::atomic<std::uint64_t>, kNumQueryKinds> slo_violations_{};
  // Robustness and fork accounting, one counter per event (attached to
  // the registry under serve.query.* / serve.degrade.transitions /
  // sched.reader_forks).
  obs::counter timed_out_;
  obs::counter cancelled_;
  obs::counter shed_;
  obs::counter unavailable_;
  obs::counter degraded_;
  obs::counter degrade_transitions_;
  obs::counter reader_forks_;
  std::vector<obs::registry::scoped_attach> registrations_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::condition_variable space_cv_;
  std::deque<item> queue_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  bool stopping_ = false;

  std::atomic<int> degrade_level_{0};  // written under mutex_, read lock-free
  obs::gauge* degrade_level_gauge_ = nullptr;
  bool brownout_enabled_ = false;
  std::size_t bn_degrade_ = 0;   // ladder rungs (queue depths)
  std::size_t bn_shed_low_ = 0;
  std::size_t bn_shed_all_ = 0;
  std::uint64_t bn_ticks_ = 0;        // under mutex_
  std::uint64_t bn_last_change_ = 0;  // under mutex_ (dwell anchor)
  // Result cache + standing queries. subs_mutex_ guards the subscription
  // list and every subscription's trigger state; lock order is always
  // subs_mutex_ before mutex_ (on_delta holds it while enqueueing).
  result_cache* cache_ = nullptr;
  std::uint64_t cache_listener_id_ = 0;
  mutable std::mutex subs_mutex_;
  std::vector<std::shared_ptr<subscription>> subs_;
};

}  // namespace gbbs::serve

// Bucket-keyed result cache for the serving layer.
//
// Maps (query kind, u, v) → the query_result computed for it, where every
// entry carries (a) the epoch of the data it was computed from and (b) the
// read-set of cache buckets (read_set.h) the computation actually
// consulted. The ingest side publishes each batch's touched-bucket delta
// summary into the cache (invalidate()); a lookup serves an entry only if
// no bucket in its read-set has been touched since the entry's epoch.
// That is the freshness contract: a hit is provably equivalent to
// re-executing fresh — an unrelated update leaves hot results servable at
// hit cost, and there are no false hits (only false *invalidations*, when
// distinct vertices alias to the same bucket).
//
// Structure — sharded by key, one short per-slot lock:
//   * The entry table is a power-of-two array of independent
//     parlib::atomic_shared_ptr<const cache_entry> slots; the key hash
//     picks the slot. A reader copies one slot's pointer under that
//     slot's own spinlock; writers publish whole immutable entries with a
//     single swap.
//     Collisions overwrite (the table is a cache, not a map): no chains,
//     no probing, no resize, bounded memory by construction.
//   * Invalidation is *lazy and epoch-guarded*, O(touched buckets) per
//     batch instead of O(entries): invalidate() bumps a per-bucket
//     last-touched epoch (plus one global epoch that validates "all
//     buckets" read-sets); lookups compare their entry's read-set against
//     those epochs and evict-on-read when stale. Semantically this is
//     "invalidate only intersecting entries" — a disjoint batch leaves
//     every hit servable and moves no counter.
//
// Epoch discipline: entries and invalidations must use the same monotone
// clock. The single-writer snapshot_manager uses its ingested-update
// count (the overlay epoch); the sharded coordinator uses its batch
// version clock (shard overlay epochs and the composite clock). Each
// cache instance belongs to exactly one ingest domain. Writers call
// invalidate() *before* the batch's data becomes reader-visible, so there
// is no window where a stale entry passes the epoch check after a reader
// could have observed the new data; notify() fires after visibility so
// standing-query re-evaluations (query_engine::subscribe) observe the new
// state.
//
// Only analytics are cached. Point reads (degree / neighbors / connected /
// component) run on the submitting thread and never consult or fill the
// cache: a lookup plus an insert costs more than the read itself.
//
// Read-set derivation per kind lives in read_set_for() below; its
// point-read branches serve standing queries (query_engine::subscribe)
// only. Note `connected` / `component` use an all-buckets read-set:
// connectivity labels are a *global* property — an insert between two
// far-away vertices can merge the components of u and v without any
// update touching their buckets — so endpoint buckets alone would miss a
// batch that changes the answer.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dynamic/update_batch.h"
#include "obs/registry.h"
#include "parlib/atomic_shared_ptr.h"
#include "serve/query.h"
#include "serve/read_set.h"

namespace gbbs::serve {

// Derive the read-set for q: the cache entry's for analytics, the trigger
// set for a standing query of any kind. `rec` is the recorder threaded
// through the execution (required for bfs_distance precision; a bfs
// executed without one degrades to all-buckets, which is sound but
// invalidates on every batch).
inline bucket_set read_set_for(const query& q,
                               const read_set_recorder* rec) {
  bucket_set rs;
  switch (q.kind) {
    case query_kind::degree:
    case query_kind::neighbors:
      // Row-local answers: only updates to u's own adjacency row (which
      // every batch reports via its touched-set, both directions mirrored)
      // can change them.
      rs.add_vertex(q.u);
      break;
    case query_kind::bfs_distance:
      if (rec != nullptr) {
        rs = rec->snapshot();
      } else {
        rs.set_all();
      }
      break;
    case query_kind::connected:
    case query_kind::component:
      // Global property — see the header comment: a remote edge can merge
      // the endpoints' components without touching their buckets.
    default:
      // Whole-graph analytics (kcore_max / triangles / connectivity_refine)
      // read everything.
      rs.set_all();
      break;
  }
  return rs;
}

// The touched-bucket delta summary of a normalized batch — what ingest
// publishes into the cache. For mirrored (symmetric) batches the source
// endpoints cover every changed row.
template <typename W>
bucket_set touched_buckets(const dynamic::update_batch<W>& batch) {
  bucket_set s;
  for (const auto& up : batch.updates) s.add_vertex(up.u);
  return s;
}

class result_cache {
 public:
  struct options {
    // Slot capacity; rounded up to a power of two. Collisions evict.
    std::size_t entries = 4096;
    // Results with larger neighbor lists are not cached (memory bound).
    std::size_t max_list_entries = std::size_t{1} << 16;
  };

  result_cache() : result_cache(options()) {}

  explicit result_cache(options opt) : opt_(opt) {
    std::size_t cap = 1;
    while (cap < opt_.entries) cap <<= 1;
    slots_ = std::vector<slot_type>(cap);
    auto& reg = obs::registry::global();
    hits_ctr_ = &reg.get_counter("serve.cache.hits");
    misses_ctr_ = &reg.get_counter("serve.cache.misses");
    invalidations_ctr_ = &reg.get_counter("serve.cache.invalidations");
    entries_gauge_ = &reg.get_gauge("serve.cache.entries");
  }

  // ---- read side (query engine) -------------------------------------

  // Serve q from cache if present and provably untouched. On a hit, *out
  // receives the stored result with route = cache (version/epoch describe
  // when it was computed — the freshness check proves it is still the
  // answer the fresh path would produce). One slot load plus the read-set
  // epoch comparison. A stale entry found here is evicted and
  // counted as one invalidation (lazy invalidation realizes the batch's
  // logical invalidation at first touch).
  bool lookup(const query& q, query_result* out) {
    const std::size_t kidx = static_cast<std::size_t>(q.kind);
    const std::size_t s = slot_of(q);
    auto e = slots_[s].load();
    if (e == nullptr || e->kind != q.kind || e->u != q.u || e->v != q.v) {
      misses_ctr_->add();
      kind_misses_[kidx].fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!fresh(*e)) {
      // Evict exactly once even under racing lookups: only the CAS winner
      // counts the invalidation.
      if (slots_[s].compare_exchange(e, nullptr)) {
        invalidations_ctr_->add();
        entries_gauge_->add(-1);
      }
      misses_ctr_->add();
      kind_misses_[kidx].fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    *out = e->result;
    out->route = query_route::cache;
    hits_ctr_->add();
    kind_hits_[kidx].fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Publish a computed result. `reads` is its read-set (read_set_for);
  // `epoch` is the data epoch it was computed from, in this cache's ingest
  // clock domain. Results that are already stale against the current
  // epochs (the batch raced the execution) are dropped rather than stored,
  // so they never surface as spurious lazy invalidations, and so are
  // degraded and non-ok results.
  void insert(const query& q, const query_result& r, bucket_set reads,
              std::uint64_t epoch) {
    if (r.status != query_status::ok || r.route == query_route::degraded) {
      return;
    }
    if (r.list.size() > opt_.max_list_entries) return;
    auto e = std::make_shared<const cache_entry>(
        cache_entry{q.kind, q.u, q.v, epoch, std::move(reads), r});
    if (!fresh(*e)) return;
    auto prev = slots_[slot_of(q)].exchange(std::move(e));
    if (prev == nullptr) entries_gauge_->add(1);
  }

  // ---- write side (ingest managers) ---------------------------------

  // Publish a batch's touched-bucket delta summary: every entry whose
  // read-set intersects `touched` is logically invalidated as of `epoch`.
  // O(touched buckets). Call *before* the batch's data becomes visible to
  // readers (see the header's epoch discipline).
  void invalidate(const bucket_set& touched, std::uint64_t epoch) {
    if (touched.empty()) return;
    touched.for_each([&](std::size_t b) {
      last_touched_[b].store(epoch, std::memory_order_release);
    });
    any_touched_.store(epoch, std::memory_order_release);
  }

  // Notify standing-query listeners that a batch with this touched-set is
  // now reader-visible. Called by ingest *after* visibility (post overlay
  // refresh / composite publish), so listener re-evaluations observe the
  // new state. Listeners run on the ingest thread — keep them cheap
  // (query_engine's listener only flags + enqueues).
  void notify(const bucket_set& touched, std::uint64_t epoch) {
    if (touched.empty()) return;
    std::lock_guard<std::mutex> lk(listeners_mu_);
    for (const auto& [id, fn] : listeners_) fn(touched, epoch);
  }

  using listener = std::function<void(const bucket_set&, std::uint64_t)>;

  std::uint64_t add_listener(listener fn) {
    std::lock_guard<std::mutex> lk(listeners_mu_);
    const std::uint64_t id = next_listener_id_++;
    listeners_.emplace_back(id, std::move(fn));
    return id;
  }

  // Blocks until no notify() is mid-call into the listener, so after this
  // returns the listener's captures may be destroyed.
  void remove_listener(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(listeners_mu_);
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if (listeners_[i].first == id) {
        listeners_.erase(listeners_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  // ---- introspection -------------------------------------------------

  std::uint64_t hits() const { return hits_ctr_->value(); }
  std::uint64_t misses() const { return misses_ctr_->value(); }
  std::uint64_t invalidations() const { return invalidations_ctr_->value(); }
  std::size_t capacity() const { return slots_.size(); }

  std::size_t entries() const {
    std::size_t c = 0;
    for (const auto& s : slots_) {
      if (s.load() != nullptr) ++c;
    }
    return c;
  }

  std::uint64_t kind_hits(query_kind k) const {
    return kind_hits_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t kind_misses(query_kind k) const {
    return kind_misses_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }

 private:
  struct cache_entry {
    query_kind kind;
    vertex_id u;
    vertex_id v;
    // Epoch of the data the result was computed from (ingest clock
    // domain); valid while no read-set bucket was touched after it.
    std::uint64_t epoch;
    bucket_set reads;
    query_result result;
  };
  using slot_type = parlib::atomic_shared_ptr<const cache_entry>;

  bool fresh(const cache_entry& e) const {
    if (e.reads.all()) {
      return any_touched_.load(std::memory_order_acquire) <= e.epoch;
    }
    bool ok = true;
    e.reads.for_each([&](std::size_t b) {
      if (last_touched_[b].load(std::memory_order_acquire) > e.epoch) {
        ok = false;
      }
    });
    return ok;
  }

  std::size_t slot_of(const query& q) const {
    // splitmix64-style finalizer over the packed key.
    std::uint64_t h = (static_cast<std::uint64_t>(q.u) << 32) ^
                      static_cast<std::uint64_t>(q.v) ^
                      (static_cast<std::uint64_t>(q.kind) << 56);
    h += 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h) & (slots_.size() - 1);
  }

  options opt_;
  std::vector<slot_type> slots_;
  // Per-bucket last-touched epochs, plus the global one that validates
  // all-buckets read-sets. Monotone: written by the single ingest
  // coordinator of this cache's domain.
  std::array<std::atomic<std::uint64_t>, kCacheBuckets> last_touched_{};
  std::atomic<std::uint64_t> any_touched_{0};

  std::mutex listeners_mu_;
  std::vector<std::pair<std::uint64_t, listener>> listeners_;
  std::uint64_t next_listener_id_ = 1;

  obs::counter* hits_ctr_;
  obs::counter* misses_ctr_;
  obs::counter* invalidations_ctr_;
  obs::gauge* entries_gauge_;
  std::array<std::atomic<std::uint64_t>, kNumQueryKinds> kind_hits_{};
  std::array<std::atomic<std::uint64_t>, kNumQueryKinds> kind_misses_{};
};

}  // namespace gbbs::serve

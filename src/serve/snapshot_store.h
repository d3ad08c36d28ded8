// Versioned snapshot store: the publication point between the single-writer
// ingest path and a pool of concurrent readers (toward the ROADMAP's
// serve-heavy-traffic north star).
//
// Model. The writer publishes immutable versions and readers *pin* the
// latest one without taking any lock. A version is a *payload* of shared
// handles — the base CSR (refcounted, see graph.h), an optional overlay
// index of deltas relative to it, and a component_view — so publishing
// costs O(delta), never O(n + m): no merged-CSR build, no label
// materialization, no array copies. The full merged CSR of a version is
// materialized *lazily*, at most once per version (memoized in the shared
// payload under std::call_once), and only when an analytics query
// actually asks for view(); point reads are answered from base + overlay
// directly. Versions published while the overlay is empty (right after a
// compaction, or when nothing effective was ingested) carry the base
// outright — their view() is free and shares the writer's arrays.
//
// Pins are self-contained: pin() copies the payload handle (O(1)), and
// from then on the reader owns the data outright. A pinned snapshot stays
// valid after the version is retired, after the store reclaims the
// version node, and even after the store itself is destroyed — the arrays
// live until the last owner drops them.
//
// Pinning protocol (hazard-bridged handle copy). The only window that
// needs protection is reading the head node's payload pointer: between
// loading the head and copying the handle the writer could retire *and
// free* the node. A small fixed table of hazard slots bridges that
// window, the classic hazard-pointer handshake (Michael 2004):
//
//   reader                                writer (publish/collect)
//   ------                                ------------------------
//   p = head.load(acquire)                head.store(new, release)
//   slot.store(p, release)                retire old head
//   fence(seq_cst)                        fence(seq_cst)
//   if (head.load(acquire) != p) retry    scan slots; free retired
//   copy p's payload handle                 nodes that are unhazarded
//   slot.store(nullptr, release)
//
// The seq_cst fences totally order the two sides: either the reader's
// re-validation sees the new head (and retries), or the writer's scan sees
// the reader's hazard (and keeps the node). Once the handle is copied the
// slot is released — long-running queries hold only refcounted handles,
// so version *nodes* are reclaimed promptly no matter how long queries
// run. Readers never lock or spin on the fast path; a reader stalled
// mid-handshake delays reclamation of at most one node and never blocks
// the writer from publishing.
//
// Contract: publish()/collect()/live_versions() are writer-only (one thread
// at a time); pin() is safe from any number of concurrent threads.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "obs/registry.h"
#include "serve/component_view.h"
#include "serve/composite_view.h"
#include "serve/dynamic_view.h"
#include "serve/overlay_view.h"

namespace gbbs::serve {

// One published version, shared between the store's node and every pin of
// it. All fields immutable after publish except the memoized merged CSR.
template <typename W>
struct version_payload {
  std::uint64_t version = 0;
  std::uint64_t updates_ingested = 0;
  gbbs::graph<W> base;  // shared CSR block
  // Deltas relative to `base` (null or empty: the base is the live view).
  std::shared_ptr<const overlay_snapshot<W>> overlay;
  // Sharded-ingest publications carry per-shard snapshots instead of a
  // single base/overlay pair; view() stitches them (see composite_view.h).
  std::shared_ptr<const composite_snapshot<W>> composite;
  component_view components;

  bool overlay_empty() const {
    return overlay == nullptr || overlay->overlay_empty();
  }

  // The version's full merged CSR, materialized at most once (lazily) and
  // shared by all pins of this version. O(1) when the overlay is empty —
  // the base *is* the view. Composite versions stitch all shards' rows.
  // Each build is counted in serve.merged_csr_materializations (fresh
  // analytics traverse the overlay instead and never build one).
  const gbbs::graph<W>& view() const {
    if (composite == nullptr && overlay_empty()) return base;
    std::call_once(merged_once_, [&] {
      obs::events().merged_csr_materializations.add();
      merged_ = composite != nullptr
                    ? copy_csr(composite_view<W>(composite))
                    : copy_csr(dynamic_view<W>(overlay));
    });
    return merged_;
  }

  // Live vertex/edge counts without materializing.
  vertex_id num_vertices() const {
    if (composite != nullptr) return composite->n;
    return overlay == nullptr ? base.num_vertices() : overlay->n;
  }

 private:
  mutable std::once_flag merged_once_;
  mutable gbbs::graph<W> merged_;
};

template <typename W>
class snapshot_store;

// A pinned version: a self-contained shared handle onto one published
// version's payload. Copy cost O(1); keeps the underlying arrays alive
// independently of the store (and of the writer). Movable, not copyable —
// hand out the graph via view() if a query needs to retain it.
template <typename W>
class pinned_snapshot {
 public:
  pinned_snapshot() = default;
  pinned_snapshot(pinned_snapshot&& other) noexcept = default;
  pinned_snapshot& operator=(pinned_snapshot&& other) noexcept = default;
  pinned_snapshot(const pinned_snapshot&) = delete;
  pinned_snapshot& operator=(const pinned_snapshot&) = delete;

  explicit operator bool() const { return payload_ != nullptr; }
  std::uint64_t version() const { return payload_->version; }
  std::uint64_t updates_ingested() const {
    return payload_->updates_ingested;
  }

  // Full merged CSR (lazy, memoized per version — see version_payload).
  const gbbs::graph<W>& view() const { return payload_->view(); }

  // The version's overlay index, or null when the base is the live view.
  // Point reads route here to avoid materializing.
  const overlay_snapshot<W>* overlay() const {
    return payload_->overlay_empty() ? nullptr : payload_->overlay.get();
  }

  // Shared handle on the overlay index (null when the base is the live
  // view) — what a dynamic_view is built from, so fresh-at-this-version
  // analytics traverse base ⊕ overlay without materializing the merge.
  std::shared_ptr<const overlay_snapshot<W>> overlay_handle() const {
    return payload_->overlay_empty() ? nullptr : payload_->overlay;
  }

  // The version's composite (sharded) payload, or null for single-writer
  // versions. Point reads route to the owning shard through it; analytics
  // traverse a composite_view built from the shared handle.
  const composite_snapshot<W>* composite() const {
    return payload_->composite.get();
  }
  std::shared_ptr<const composite_snapshot<W>> composite_handle() const {
    return payload_->composite;
  }

  const component_view& components() const { return payload_->components; }
  vertex_id num_vertices() const { return payload_->num_vertices(); }

  void release() { payload_.reset(); }

 private:
  friend class snapshot_store<W>;
  explicit pinned_snapshot(std::shared_ptr<const version_payload<W>> p)
      : payload_(std::move(p)) {}

  std::shared_ptr<const version_payload<W>> payload_;
};

template <typename W>
class snapshot_store {
 public:
  snapshot_store() = default;
  snapshot_store(const snapshot_store&) = delete;
  snapshot_store& operator=(const snapshot_store&) = delete;

  // Outstanding pinned_snapshots survive destruction (they own their
  // payloads); only the version nodes die here.
  ~snapshot_store() {
    node* r = retired_;
    while (r != nullptr) {
      node* next = r->next_retired;
      delete r;
      r = next;
    }
    delete head_.load(std::memory_order_relaxed);
  }

  // ---- reader side -------------------------------------------------------

  // Pin the latest published version; null if nothing is published yet.
  // Lock-free: a bounded scan for a hazard slot, the handshake above, and
  // an O(1) copy of the version's payload handle.
  pinned_snapshot<W> pin() const {
    hazard_slot& slot = acquire_slot();
    const node* p;
    for (;;) {
      p = head_.load(std::memory_order_acquire);
      if (p == nullptr) {
        release_slot(slot);
        return pinned_snapshot<W>{};
      }
      slot.ptr.store(p, std::memory_order_release);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (head_.load(std::memory_order_acquire) == p) break;
      slot.ptr.store(nullptr, std::memory_order_release);
    }
    // The hazard keeps p alive across the handle copy; afterwards the pin
    // owns the payload through the copied shared_ptr.
    pinned_snapshot<W> snap{p->payload};
    slot.ptr.store(nullptr, std::memory_order_release);
    release_slot(slot);
    return snap;
  }

  std::uint64_t current_version() const {
    return current_version_.load(std::memory_order_acquire);
  }

  // ---- writer side (single thread) ---------------------------------------

  // Publish a new version: base CSR + optional overlay of deltas relative
  // to it + connectivity view. All taken by shared handle — O(delta)
  // total, no array duplication, no merge. The previous head node is
  // retired and reclaimed once no reader is mid-handshake on it.
  std::uint64_t publish(gbbs::graph<W> base,
                        std::shared_ptr<const overlay_snapshot<W>> overlay,
                        component_view components,
                        std::uint64_t updates_ingested = 0) {
    auto payload = std::make_shared<version_payload<W>>();
    payload->version = ++last_version_;
    payload->updates_ingested = updates_ingested;
    payload->base = std::move(base);
    payload->overlay = std::move(overlay);
    payload->components = std::move(components);
    return install(std::move(payload));
  }

  // Convenience overloads: publish a self-contained CSR (no overlay).
  std::uint64_t publish(gbbs::graph<W> g, component_view components,
                        std::uint64_t updates_ingested = 0) {
    return publish(std::move(g), nullptr, std::move(components),
                   updates_ingested);
  }
  std::uint64_t publish(gbbs::graph<W> g, std::vector<vertex_id> labels,
                        std::uint64_t updates_ingested = 0) {
    return publish(std::move(g), nullptr,
                   component_view::from_labels(std::move(labels)),
                   updates_ingested);
  }

  // Publish a composite (sharded) version: N per-shard overlay snapshots
  // stitched behind one payload. Same O(delta) cost shape — shared
  // handles only, the stitched CSR materializes lazily on analytics
  // demand.
  std::uint64_t publish_composite(
      std::shared_ptr<const composite_snapshot<W>> comp,
      component_view components, std::uint64_t updates_ingested = 0) {
    auto payload = std::make_shared<version_payload<W>>();
    payload->version = ++last_version_;
    payload->updates_ingested = updates_ingested;
    payload->composite = std::move(comp);
    payload->components = std::move(components);
    return install(std::move(payload));
  }

  // Free retired version nodes no reader is mid-handshake on. (Pinned
  // snapshots do not retain nodes — only hazards do, and only for the
  // instants-long handle-copy window.)
  void collect() {
    if (retired_ == nullptr) return;
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const void* hazards[kHazardSlots];
    for (std::size_t i = 0; i < kHazardSlots; ++i) {
      hazards[i] = slots_[i].ptr.load(std::memory_order_acquire);
    }
    node** link = &retired_;
    while (*link != nullptr) {
      node* nd = *link;
      bool hazarded = false;
      for (std::size_t i = 0; i < kHazardSlots; ++i) {
        if (hazards[i] == nd) {
          hazarded = true;
          break;
        }
      }
      if (!hazarded) {
        *link = nd->next_retired;
        delete nd;
      } else {
        link = &nd->next_retired;
      }
    }
  }

  // Version nodes still resident (head + retired ones awaiting collect).
  std::size_t live_versions() const {
    std::size_t count = head_.load(std::memory_order_relaxed) ? 1 : 0;
    for (const node* r = retired_; r != nullptr; r = r->next_retired) {
      ++count;
    }
    return count;
  }

 private:
  struct node {
    std::shared_ptr<const version_payload<W>> payload;
    node* next_retired = nullptr;  // writer-owned retire list
  };

  // Swap a freshly built payload in as the new head and retire the old
  // one (the shared tail of every publish flavor). Writer-only.
  std::uint64_t install(std::shared_ptr<const version_payload<W>> payload) {
    auto* n = new node();
    n->payload = std::move(payload);
    node* old = head_.load(std::memory_order_relaxed);
    head_.store(n, std::memory_order_release);
    current_version_.store(last_version_, std::memory_order_release);
    if (old != nullptr) {
      old->next_retired = retired_;
      retired_ = old;
    }
    collect();
    return last_version_;
  }

  static constexpr std::size_t kHazardSlots = 64;

  struct alignas(64) hazard_slot {
    std::atomic<const void*> ptr{nullptr};
    std::atomic<bool> in_use{false};
  };

  hazard_slot& acquire_slot() const {
    // Start the scan at a per-thread offset so concurrent readers claim
    // different slots instead of all CAS-contending on slot 0's cacheline.
    static thread_local const std::size_t start =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    static_assert((kHazardSlots & (kHazardSlots - 1)) == 0);
    for (;;) {
      for (std::size_t k = 0; k < kHazardSlots; ++k) {
        hazard_slot& s = slots_[(start + k) & (kHazardSlots - 1)];
        bool expected = false;
        if (s.in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
          return s;
        }
      }
      // > kHazardSlots threads mid-handshake at once; the window is a few
      // instructions, so yielding once is plenty.
      std::this_thread::yield();
    }
  }

  void release_slot(hazard_slot& slot) const {
    slot.in_use.store(false, std::memory_order_release);
  }

  std::atomic<node*> head_{nullptr};
  std::atomic<std::uint64_t> current_version_{0};
  node* retired_ = nullptr;        // writer-owned
  std::uint64_t last_version_ = 0;  // writer-owned
  mutable hazard_slot slots_[kHazardSlots];
};

}  // namespace gbbs::serve

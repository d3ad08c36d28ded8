// Batch-dynamic graph: a static CSR snapshot (gbbs::graph) plus a
// per-vertex *delta overlay* absorbing edge updates between snapshots —
// the ingest-then-query architecture of streaming graph systems (katana /
// Simsiri et al.), layered over the repo's existing static stack.
//
// Representation. base_ is an immutable CSR; delta_[u] is an immutable
// refcounted row, sorted by neighbor id, of overrides relative to base_:
//   {v, w, present=true}   edge (u,v) exists with weight w (insert or
//                          weight overwrite of a base edge);
//   {v, -, present=false}  edge (u,v) is erased (tombstone for a base
//                          edge).
// Entries that would restate the base verbatim are pruned during batch
// application, so |delta_[u]| is bounded by the number of *effective*
// updates since the last compact(), not by the raw stream length. Rows are
// replaced wholesale by each batch (never mutated in place) and handed out
// by shared_ptr, which is what lets the serving layer's persistent overlay
// index share untouched rows across ingests instead of copying the whole
// overlay (see serve/overlay_view.h).
//
// Asymmetric graphs additionally maintain an *in-edge* overlay delta_in_
// (the transposed deltas, merged against base_'s in-CSR) so the live graph
// exposes the full graph_view concept — in particular the in-neighbor
// early-exit decode that edgeMap's direction-optimized dense mode scans.
// Symmetric graphs alias the two sides, exactly like gbbs::graph.
//
// The live neighborhood of u is the ordered two-pointer merge of
// base_.out_neighbors(u) with delta_[u]; the map_*_neighbors* primitives
// expose exactly the neighborhood-iteration concept the static graph has
// (dynamic_graph models gbbs::graph_view), so edge_map and the whole
// static algorithm suite run *directly on the live graph* — no snapshot,
// no merged-CSR build. snapshot()/compact() remain available for
// explicitly-stale consumers.
//
// Batches are applied with one parallel task per *distinct updated
// vertex* (runs of the (u,v)-sorted batch), each doing an O(delta + run)
// sorted merge plus an O(run · log deg_base) membership probe — i.e. work
// proportional to the batch, never to the whole graph. Asymmetric graphs
// pay the same again for the transposed in-side runs.
//
// Vertex ids beyond the current vertex count grow the graph (n-growing
// batches); erases of absent edges and empty batches are no-ops.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dynamic/update_batch.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_view.h"
#include "obs/trace.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs::dynamic {

template <typename W>
struct delta_entry {
  vertex_id v;
  [[no_unique_address]] W w;
  bool present;  // true: live with weight w; false: tombstone
};

template <typename W>
using delta_row = std::vector<delta_entry<W>>;

// Immutable shared row handle; null means "no overrides for this vertex".
template <typename W>
using delta_row_ptr = std::shared_ptr<const delta_row<W>>;

// ---- merged-row primitives -------------------------------------------------
//
// The base-vs-delta two-pointer merges every delta-overlaid view is built
// from, shared between dynamic_graph and serve::dynamic_view. base_weight(j)
// supplies the weight of bn[j].

// f(ngh, w) over the live row, ascending; f returns false to stop.
template <typename W, typename BaseWeight, typename F>
void merged_row_early_exit(std::span<const vertex_id> bn,
                           const BaseWeight& base_weight,
                           const delta_entry<W>* d, std::size_t dn,
                           const F& f) {
  std::size_t i = 0, j = 0;
  while (i < dn || j < bn.size()) {
    if (j == bn.size() || (i < dn && d[i].v < bn[j])) {
      if (d[i].present && !f(d[i].v, d[i].w)) return;
      ++i;
    } else if (i == dn || bn[j] < d[i].v) {
      if (!f(bn[j], base_weight(j))) return;
      ++j;
    } else {  // same neighbor: delta overrides base
      if (d[i].present && !f(d[i].v, d[i].w)) return;
      ++i;
      ++j;
    }
  }
}

// f(ngh, w) over live-row positions [j_lo, j_hi) — the random access the
// blocked edgeMap's prefix-summed-degree splitting needs. Skips to j_lo in
// O(|delta| · log |base|) by bulk-jumping the base runs between delta
// entries, then emits j_hi - j_lo items; never O(position) like a naive
// counted decode would be.
template <typename W, typename BaseWeight, typename F>
void merged_row_range(std::span<const vertex_id> bn,
                      const BaseWeight& base_weight, const delta_entry<W>* d,
                      std::size_t dn, std::size_t j_lo, std::size_t j_hi,
                      const F& f) {
  if (j_hi <= j_lo) return;
  std::size_t i = 0, j = 0, idx = 0;
  // Phase 1: advance (i, j) to merged position j_lo without emitting.
  while (idx < j_lo) {
    if (i == dn) {  // only base left: jump straight to position j_lo
      j += j_lo - idx;
      idx = j_lo;
      break;
    }
    const vertex_id dv = d[i].v;
    const auto jr = static_cast<std::size_t>(
        std::lower_bound(bn.begin() + j, bn.end(), dv) - bn.begin());
    if (idx + (jr - j) >= j_lo) {  // j_lo lands inside this base run
      j += j_lo - idx;
      idx = j_lo;
      break;
    }
    idx += jr - j;
    j = jr;
    const bool in_base = j < bn.size() && bn[j] == dv;
    if (d[i].present) ++idx;  // a live delta entry fills one merged slot
    ++i;
    if (in_base) ++j;  // override/tombstone consumes the base entry too
  }
  // Phase 2: standard merge emit until j_hi.
  while ((i < dn || j < bn.size()) && idx < j_hi) {
    if (j == bn.size() || (i < dn && d[i].v < bn[j])) {
      if (d[i].present) {
        f(d[i].v, d[i].w);
        ++idx;
      }
      ++i;
    } else if (i == dn || bn[j] < d[i].v) {
      f(bn[j], base_weight(j));
      ++j;
      ++idx;
    } else {
      if (d[i].present) {
        f(d[i].v, d[i].w);
        ++idx;
      }
      ++i;
      ++j;
    }
  }
}

template <typename W>
class dynamic_graph {
 public:
  using weight_type = W;

  // Empty graph with n vertices.
  explicit dynamic_graph(vertex_id n = 0, bool symmetric = true)
      : symmetric_(symmetric), n_(n), delta_(n), deg_(n, 0) {
    if (!symmetric_) {
      delta_in_.resize(n);
      in_deg_.assign(n, 0);
    }
  }

  // Seed from an existing static snapshot.
  explicit dynamic_graph(graph<W> base)
      : symmetric_(base.symmetric()),
        n_(base.num_vertices()),
        m_(base.num_edges()),
        delta_(n_) {
    deg_ = parlib::tabulate<vertex_id>(n_, [&](std::size_t v) {
      return base.out_degree(static_cast<vertex_id>(v));
    });
    if (!symmetric_) {
      delta_in_.resize(n_);
      in_deg_ = parlib::tabulate<vertex_id>(n_, [&](std::size_t v) {
        return base.in_degree(static_cast<vertex_id>(v));
      });
    }
    base_ = std::move(base);
  }

  vertex_id num_vertices() const { return n_; }
  edge_id num_edges() const { return m_; }
  bool symmetric() const { return symmetric_; }
  vertex_id out_degree(vertex_id v) const { return deg_[v]; }
  vertex_id in_degree(vertex_id v) const {
    return symmetric_ ? deg_[v] : in_deg_[v];
  }

  // Out-side overlay entries alive since the last compact() (across all
  // vertices); maintained incrementally, O(1). The in-side overlay of an
  // asymmetric graph mirrors these and is not counted separately.
  std::size_t delta_size() const { return overlay_entries_; }

  // Vertices with a non-empty delta, ascending — the work-list that lets
  // the serve layer distill the overlay in O(overlay) instead of O(n).
  // Maintained incrementally by apply_batch; cleared by compact/adopt_base.
  const std::vector<vertex_id>& overlay_vertices() const {
    return overlay_verts_;
  }

  // u's delta log (sorted by neighbor id; empty for untouched vertices).
  const delta_row<W>& delta_of(vertex_id u) const {
    return delta_[u] ? *delta_[u] : empty_row();
  }

  // u's delta log as a shared immutable row (null when empty). Rows are
  // replaced wholesale per batch, so a holder of this handle sees a frozen
  // row regardless of later ingests — the sharing contract the serving
  // layer's persistent overlay index is built on.
  delta_row_ptr<W> delta_row_of(vertex_id u) const { return delta_[u]; }

  // In-side delta log of an asymmetric graph (empty for symmetric graphs,
  // whose in-side aliases the out-side).
  const delta_row<W>& delta_in_of(vertex_id u) const {
    return !symmetric_ && delta_in_[u] ? *delta_in_[u] : empty_row();
  }

  // ---- compaction policy --------------------------------------------------

  // Auto-compact when the overlay exceeds `frac` of the base edge count
  // (checked after every batch; 0 disables, the default). The floor of 1024
  // base edges keeps a tiny/empty base from forcing a compact per batch.
  void set_compact_threshold(double frac) { compact_threshold_ = frac; }
  double compact_threshold() const { return compact_threshold_; }

  // compact() / adopt_base() calls so far (manual, automatic, or hand-off).
  std::size_t num_compactions() const { return compactions_; }

  // ---- ingest ------------------------------------------------------------

  // Normalize a raw update stream (mirroring it for symmetric graphs) and
  // apply it. Returns the normalized batch so callers (e.g. the
  // connectivity tracker) can reuse it without re-normalizing.
  update_batch<W> apply(std::vector<update<W>> raw) {
    // The two ingest-pipeline stages owned by this layer (span taxonomy
    // in obs/trace.h): raw -> normalized batch, then the overlay merge.
    static const obs::stage_ref s_normalize =
        obs::stage_named("ingest.normalize");
    static const obs::stage_ref s_apply = obs::stage_named("ingest.apply");
    update_batch<W> batch = [&] {
      obs::trace_span span(s_normalize);
      return make_batch(std::move(raw), symmetric_);
    }();
    {
      obs::trace_span span(s_apply);
      apply_batch(batch);
    }
    return batch;
  }

  // Apply an already-normalized batch (for symmetric graphs it must have
  // been built with mirror=true). O(batch + touched deltas) work.
  void apply_batch(const update_batch<W>& batch) {
    // Grow even when every update was normalized away (e.g. a batch of
    // self-loops on fresh ids): max_vertex covers the raw endpoints, and
    // consumers (incremental_connectivity) grow by the same rule.
    grow(batch.max_vertex);
    if (batch.empty()) return;
    const auto& ups = batch.updates;
    // One merge task per distinct updated vertex (run of the sorted batch).
    auto is_start = parlib::tabulate<std::uint8_t>(
        ups.size(), [&](std::size_t i) {
          return static_cast<std::uint8_t>(i == 0 ||
                                           ups[i - 1].u != ups[i].u);
        });
    auto starts = parlib::pack_index<std::size_t>(is_start);
    std::vector<long long> dm(starts.size());
    std::vector<long long> ds(starts.size());
    parlib::parallel_for(0, starts.size(), [&](std::size_t r) {
      const std::size_t lo = starts[r];
      const std::size_t hi =
          r + 1 < starts.size() ? starts[r + 1] : ups.size();
      const vertex_id u = ups[lo].u;
      const auto [ddeg, dsize] = merge_run(
          delta_[u], &ups[lo], hi - lo,
          [&](vertex_id v) { return base_lookup(u, v); });
      dm[r] = ddeg;
      ds[r] = dsize;
      deg_[u] = static_cast<vertex_id>(
          static_cast<long long>(deg_[u]) + ddeg);
    });
    m_ = static_cast<edge_id>(static_cast<long long>(m_) +
                              parlib::reduce_add(dm));
    overlay_entries_ = static_cast<std::size_t>(
        static_cast<long long>(overlay_entries_) + parlib::reduce_add(ds));
    if (!symmetric_) apply_in_side(batch);
    // Fold the batch's distinct vertices into the sorted overlay work-list,
    // keeping exactly those with a non-empty delta (a batch can empty a
    // vertex's delta by undoing it). O(overlay + batch).
    {
      std::vector<vertex_id> merged;
      merged.reserve(overlay_verts_.size() + starts.size());
      std::size_t a = 0, b = 0;
      auto keep = [&](vertex_id u) {
        if (!delta_of(u).empty()) merged.push_back(u);
      };
      while (a < overlay_verts_.size() || b < starts.size()) {
        const vertex_id bu =
            b < starts.size() ? ups[starts[b]].u : kNoVertex;
        if (b == starts.size() ||
            (a < overlay_verts_.size() && overlay_verts_[a] < bu)) {
          merged.push_back(overlay_verts_[a]);  // untouched: still non-empty
          ++a;
        } else if (a == overlay_verts_.size() || bu < overlay_verts_[a]) {
          keep(bu);
          ++b;
        } else {
          keep(bu);
          ++a;
          ++b;
        }
      }
      overlay_verts_ = std::move(merged);
    }
    if (compact_threshold_ > 0 &&
        static_cast<double>(overlay_entries_) >
            compact_threshold_ *
                static_cast<double>(
                    std::max<edge_id>(base_.num_edges(), 1024))) {
      compact();
    }
  }

  // Extend the vertex set to cover ids < n (new vertices are isolated).
  void grow(vertex_id n) {
    if (n <= n_) return;
    delta_.resize(n);
    deg_.resize(n, 0);
    if (!symmetric_) {
      delta_in_.resize(n);
      in_deg_.resize(n, 0);
    }
    n_ = n;
  }

  // ---- queries (live view) ----------------------------------------------

  bool contains_edge(vertex_id u, vertex_id v) const {
    if (u >= n_) return false;
    const auto& d = delta_of(u);
    auto it = std::lower_bound(
        d.begin(), d.end(), v,
        [](const delta_entry<W>& e, vertex_id x) { return e.v < x; });
    if (it != d.end() && it->v == v) return it->present;
    return base_lookup(u, v).first;
  }

  std::optional<W> edge_weight(vertex_id u, vertex_id v) const {
    if (u >= n_) return std::nullopt;
    const auto& d = delta_of(u);
    auto it = std::lower_bound(
        d.begin(), d.end(), v,
        [](const delta_entry<W>& e, vertex_id x) { return e.v < x; });
    if (it != d.end() && it->v == v) {
      if (it->present) return it->w;
      return std::nullopt;
    }
    auto [has, w] = base_lookup(u, v);
    if (has) return w;
    return std::nullopt;
  }

  // f(u, ngh, w) over the live out-neighborhood of u, in ascending neighbor
  // order (the ordered merge of base and delta).
  template <typename F>
  void map_out_neighbors(vertex_id u, const F& f) const {
    map_out_neighbors_early_exit(u, [&](vertex_id a, vertex_id b, W w) {
      f(a, b, w);
      return true;
    });
  }

  template <typename F>
  void map_in_neighbors(vertex_id u, const F& f) const {
    map_in_neighbors_early_exit(u, [&](vertex_id a, vertex_id b, W w) {
      f(a, b, w);
      return true;
    });
  }

  // Early-exit decode, mirroring graph::map_out_neighbors_early_exit.
  template <typename F>
  void map_out_neighbors_early_exit(vertex_id u, const F& f) const {
    const auto& d = delta_of(u);
    merged_row_early_exit(
        base_neighbors(u),
        [&](std::size_t j) { return base_.out_weight(u, j); }, d.data(),
        d.size(), [&](vertex_id ngh, W w) { return f(u, ngh, w); });
  }

  // In-side early-exit decode — what edgeMap's dense mode scans when it
  // runs directly on the live graph. Symmetric graphs alias the out-side;
  // asymmetric graphs merge the base in-CSR with the in-edge overlay.
  template <typename F>
  void map_in_neighbors_early_exit(vertex_id u, const F& f) const {
    if (symmetric_) {
      map_out_neighbors_early_exit(u, f);
      return;
    }
    const auto& d = delta_in_of(u);
    merged_row_early_exit(
        base_in_neighbors(u),
        [&](std::size_t j) { return base_.in_weight(u, j); }, d.data(),
        d.size(), [&](vertex_id ngh, W w) { return f(u, ngh, w); });
  }

  // f over live out-neighbor positions [j_lo, j_hi) — the random access
  // the blocked edgeMap needs (Algorithm 15).
  template <typename F>
  void map_out_neighbors_range(vertex_id u, std::size_t j_lo,
                               std::size_t j_hi, const F& f) const {
    const auto& d = delta_of(u);
    merged_row_range(
        base_neighbors(u),
        [&](std::size_t j) { return base_.out_weight(u, j); }, d.data(),
        d.size(), j_lo, j_hi, [&](vertex_id ngh, W w) { f(u, ngh, w); });
  }

  // Live out-neighbors satisfying pred (used by contraction/filter_graph
  // when they run directly on the live graph).
  template <typename F>
  std::size_t count_out(vertex_id u, const F& pred) const {
    std::size_t c = 0;
    map_out_neighbors(u, [&](vertex_id a, vertex_id b, W w) {
      c += pred(a, b, w) ? 1 : 0;
    });
    return c;
  }

  // ---- snapshots ---------------------------------------------------------

  // Fresh static CSR of the live graph; O(n + m) work. The dynamic graph
  // is left untouched — use for running static algorithms mid-stream.
  // Both sides are laid out from the live rows (the in-side through
  // transposed_view, i.e. base in-CSR ⊕ in-edge overlay).
  graph<W> snapshot() const { return copy_csr(*this); }

  // Fold the delta overlay into a fresh base CSR and clear it. Queries and
  // snapshots after compact() are pure CSR reads.
  void compact() {
    base_ = snapshot();
    clear_overlay();
    ++compactions_;
  }

  // Version hand-off for the serve layer: install an externally built CSR
  // of the *current live view* (e.g. the snapshot just published) as the
  // new base and clear the overlay. Since graph<W> copies share one
  // refcounted CSR block, passing the just-published snapshot here makes
  // the published version and the compacted base the *same* arrays — one
  // merged-CSR build, zero post-merge copies.
  void adopt_base(graph<W> g) {
    assert(g.num_vertices() == n_ && g.num_edges() == m_);
    base_ = std::move(g);
    clear_overlay();
    ++compactions_;
  }

  const graph<W>& base() const { return base_; }

 private:
  static const delta_row<W>& empty_row() {
    static const delta_row<W> kEmpty;
    return kEmpty;
  }

  void clear_overlay() {
    delta_.assign(n_, nullptr);
    if (!symmetric_) delta_in_.assign(n_, nullptr);
    overlay_verts_.clear();
    overlay_entries_ = 0;
  }

  std::span<const vertex_id> base_neighbors(vertex_id u) const {
    if (u >= base_.num_vertices()) return {};
    return base_.out_neighbors(u);
  }

  std::span<const vertex_id> base_in_neighbors(vertex_id u) const {
    if (u >= base_.num_vertices()) return {};
    return base_.in_neighbors(u);
  }

  std::pair<bool, W> base_lookup(vertex_id u, vertex_id v) const {
    const auto nghs = base_neighbors(u);
    auto it = std::lower_bound(nghs.begin(), nghs.end(), v);
    if (it != nghs.end() && *it == v) {
      return {true, base_.out_weight(u, static_cast<std::size_t>(
                                            it - nghs.begin()))};
    }
    return {false, W{}};
  }

  std::pair<bool, W> base_in_lookup(vertex_id u, vertex_id v) const {
    const auto nghs = base_in_neighbors(u);
    auto it = std::lower_bound(nghs.begin(), nghs.end(), v);
    if (it != nghs.end() && *it == v) {
      return {true, base_.in_weight(u, static_cast<std::size_t>(
                                           it - nghs.begin()))};
    }
    return {false, W{}};
  }

  // Merge a (v-sorted) run of updates for one vertex into its delta row.
  // The row is replaced wholesale (immutable shared rows — holders of the
  // old handle are unaffected). Returns {change in the vertex's live
  // degree, change in its overlay size}.
  template <typename BaseLookup>
  std::pair<long long, long long> merge_run(delta_row_ptr<W>& slot,
                                            const update<W>* run,
                                            std::size_t len,
                                            const BaseLookup& lookup) {
    const delta_row<W>& old = slot ? *slot : empty_row();
    delta_row<W> merged;
    merged.reserve(old.size() + len);
    long long dm = 0;
    std::size_t i = 0, j = 0;
    auto absorb = [&](const update<W>& up, bool cur_present, bool in_base,
                      W base_w) {
      const bool new_present = up.op == update_op::insert;
      dm += static_cast<long long>(new_present) -
            static_cast<long long>(cur_present);
      if (new_present) {
        // Prune entries that restate the base edge verbatim.
        if (!(in_base && base_w == up.w)) {
          merged.push_back({up.v, up.w, true});
        }
      } else if (in_base) {
        merged.push_back({up.v, W{}, false});  // tombstone a base edge
      }
      // erase of a non-base edge: drop entirely (no-op or undoes a delta
      // insert).
    };
    while (i < old.size() || j < len) {
      if (j == len || (i < old.size() && old[i].v < run[j].v)) {
        merged.push_back(old[i]);
        ++i;
      } else if (i == old.size() || run[j].v < old[i].v) {
        const auto [in_base, base_w] = lookup(run[j].v);
        absorb(run[j], /*cur_present=*/in_base, in_base, base_w);
        ++j;
      } else {  // same neighbor: the batch overrides the old delta entry
        const auto [in_base, base_w] = lookup(run[j].v);
        absorb(run[j], old[i].present, in_base, base_w);
        ++i;
        ++j;
      }
    }
    const long long dsize = static_cast<long long>(merged.size()) -
                            static_cast<long long>(old.size());
    slot = merged.empty()
               ? nullptr
               : std::make_shared<const delta_row<W>>(std::move(merged));
    return {dm, dsize};
  }

  // Transpose the batch and merge the runs into the in-edge overlay
  // (asymmetric graphs only). Same run decomposition as the out side; the
  // in-degree deltas mirror the out-degree math, so m_ is not re-counted.
  void apply_in_side(const update_batch<W>& batch) {
    auto rev = parlib::tabulate<update<W>>(
        batch.updates.size(), [&](std::size_t i) {
          const auto& e = batch.updates[i];
          return update<W>{e.v, e.u, e.w, e.op};
        });
    internal::sort_updates(rev, batch.max_vertex);
    auto is_start = parlib::tabulate<std::uint8_t>(
        rev.size(), [&](std::size_t i) {
          return static_cast<std::uint8_t>(i == 0 ||
                                           rev[i - 1].u != rev[i].u);
        });
    auto starts = parlib::pack_index<std::size_t>(is_start);
    parlib::parallel_for(0, starts.size(), [&](std::size_t r) {
      const std::size_t lo = starts[r];
      const std::size_t hi =
          r + 1 < starts.size() ? starts[r + 1] : rev.size();
      const vertex_id u = rev[lo].u;
      const auto [ddeg, dsize] = merge_run(
          delta_in_[u], &rev[lo], hi - lo,
          [&](vertex_id v) { return base_in_lookup(u, v); });
      (void)dsize;
      in_deg_[u] = static_cast<vertex_id>(
          static_cast<long long>(in_deg_[u]) + ddeg);
    });
  }

  bool symmetric_ = true;
  vertex_id n_ = 0;
  edge_id m_ = 0;
  graph<W> base_;
  std::vector<delta_row_ptr<W>> delta_;     // out-side rows, neighbor-sorted
  std::vector<delta_row_ptr<W>> delta_in_;  // in-side rows (asymmetric only)
  std::vector<vertex_id> overlay_verts_;  // sorted u with |delta_[u]| > 0
  std::vector<vertex_id> deg_;            // live out-degrees
  std::vector<vertex_id> in_deg_;         // live in-degrees (asym only)
  std::size_t overlay_entries_ = 0;  // sum of |delta_[v]| (O(1) delta_size)
  std::size_t compactions_ = 0;
  double compact_threshold_ = 0;  // 0 = never auto-compact
};

using dynamic_unweighted_graph = dynamic_graph<empty_weight>;
using dynamic_weighted_graph = dynamic_graph<std::uint32_t>;

}  // namespace gbbs::dynamic

namespace gbbs {
// The live batch-dynamic graph is a first-class traversal target: edge_map
// and the static algorithm suite run on it directly, uncompacted.
static_assert(graph_view<dynamic::dynamic_graph<empty_weight>>);
static_assert(graph_view<dynamic::dynamic_graph<std::uint32_t>>);
}  // namespace gbbs

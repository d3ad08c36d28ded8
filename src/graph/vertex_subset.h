// Ligra vertexSubset: a subset of vertices in sparse (id list) or dense
// (bitvector) representation, converted lazily by edgeMap's direction
// optimization. vertex_subset_data<D> additionally carries one payload per
// member (Julienne's edgeMapData result, used to ship bucket destinations).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

class vertex_subset {
 public:
  // Empty subset over n vertices.
  explicit vertex_subset(vertex_id n) : n_(n), is_dense_(false) {}

  // Singleton.
  vertex_subset(vertex_id n, vertex_id v)
      : n_(n), is_dense_(false), sparse_{v} {}

  // From a sparse id list.
  vertex_subset(vertex_id n, std::vector<vertex_id> sparse)
      : n_(n), is_dense_(false), sparse_(std::move(sparse)) {}

  // From dense flags (0/1 per vertex).
  vertex_subset(vertex_id n, std::vector<std::uint8_t> dense)
      : n_(n), is_dense_(true), dense_(std::move(dense)) {
    assert(dense_.size() == n_);
    size_ = parlib::count_if(dense_, [](std::uint8_t f) { return f != 0; });
  }

  vertex_id num_universe() const { return n_; }

  std::size_t size() const { return is_dense_ ? size_ : sparse_.size(); }
  bool empty() const { return size() == 0; }
  bool is_dense() const { return is_dense_; }

  const std::vector<vertex_id>& sparse() const {
    assert(!is_dense_);
    return sparse_;
  }
  const std::vector<std::uint8_t>& dense() const {
    assert(is_dense_);
    return dense_;
  }

  void to_dense() {
    if (is_dense_) return;
    dense_.assign(n_, 0);
    parlib::parallel_for(0, sparse_.size(),
                         [&](std::size_t i) { dense_[sparse_[i]] = 1; });
    size_ = sparse_.size();
    is_dense_ = true;
    sparse_.clear();
  }

  void to_sparse() {
    if (!is_dense_) return;
    sparse_ = parlib::pack_index<vertex_id>(dense_);
    is_dense_ = false;
    dense_.clear();
  }

  bool contains(vertex_id v) const {
    if (is_dense_) return dense_[v] != 0;
    for (const vertex_id u : sparse_) {
      if (u == v) return true;
    }
    return false;
  }

  // f(v) over members; parallel.
  template <typename F>
  void for_each(const F& f) const {
    if (is_dense_) {
      parlib::parallel_for(0, n_, [&](std::size_t v) {
        if (dense_[v]) f(static_cast<vertex_id>(v));
      });
    } else {
      parlib::parallel_for(0, sparse_.size(),
                           [&](std::size_t i) { f(sparse_[i]); });
    }
  }

 private:
  vertex_id n_;
  bool is_dense_;
  std::size_t size_ = 0;  // cached for dense
  std::vector<vertex_id> sparse_;
  std::vector<std::uint8_t> dense_;
};

// vertexSubset with a payload per member (always sparse).
template <typename D>
class vertex_subset_data {
 public:
  explicit vertex_subset_data(vertex_id n) : n_(n) {}
  vertex_subset_data(vertex_id n, std::vector<std::pair<vertex_id, D>> elts)
      : n_(n), elts_(std::move(elts)) {}

  vertex_id num_universe() const { return n_; }
  std::size_t size() const { return elts_.size(); }
  bool empty() const { return elts_.empty(); }
  const std::vector<std::pair<vertex_id, D>>& entries() const { return elts_; }

 private:
  vertex_id n_;
  std::vector<std::pair<vertex_id, D>> elts_;
};

// vertexMap: apply f to every member (for side effects).
template <typename F>
void vertex_map(const vertex_subset& vs, const F& f) {
  vs.for_each(f);
}

// vertexFilter: members satisfying pred, as a new sparse subset.
template <typename F>
vertex_subset vertex_filter(const vertex_subset& vs, const F& pred) {
  if (vs.is_dense()) {
    const auto& d = vs.dense();
    auto flags = parlib::tabulate<std::uint8_t>(
        vs.num_universe(), [&](std::size_t v) {
          return static_cast<std::uint8_t>(
              d[v] && pred(static_cast<vertex_id>(v)));
        });
    return vertex_subset(vs.num_universe(),
                         parlib::pack_index<vertex_id>(flags));
  }
  return vertex_subset(vs.num_universe(), parlib::filter(vs.sparse(), pred));
}

}  // namespace gbbs

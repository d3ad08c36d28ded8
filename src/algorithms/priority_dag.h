// The priority DAG shared by MIS (Algorithm 10, the rootset algorithm) and
// Jones-Plassmann coloring (Algorithm 12, both schedules).
//
// Priorities order the vertices, lower first, with ties broken by the lower
// vertex id, so they need not be distinct (priority_before). Every edge
// points from its earlier endpoint to its later one. count[v] holds v's
// unfinished earlier neighbors; the zero-count vertices are the roots. A
// finished vertex releases its later neighbors with fetch-and-add, and a
// neighbor whose count reaches 0 is a new root. Counting is O(m) work and
// O(log n) depth; each edge is released at most once, so all releases
// together are O(m) work.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

// u comes before v: the lower priority first, then the lower id. With the
// priority uint32(rng.ith_rand(v)) this is the order of
// parlib::random_permutation(n, rng).
template <typename Priority>
bool priority_before(const std::vector<Priority>& priority, vertex_id u,
                     vertex_id v) {
  return priority[u] < priority[v] || (priority[u] == priority[v] && u < v);
}

template <typename Graph, typename Priority>
class priority_dag {
 public:
  priority_dag(const Graph& g, std::vector<Priority> priority)
      : g_(&g), priority_(std::move(priority)), count_(g.num_vertices()) {
    parlib::parallel_for(0, count_.size(), [&](std::size_t vi) {
      const auto v = static_cast<vertex_id>(vi);
      count_[vi] = static_cast<std::int64_t>(g.count_out(
          v, [&](vertex_id, vertex_id u, auto) { return before(u, v); }));
    });
  }

  // The vertices with no earlier neighbor, in id order.
  std::vector<vertex_id> roots() const {
    std::vector<vertex_id> out;
    parlib::pack_blocks(count_.size(), [&](std::size_t v, const auto& emit) {
      if (count_[v] == 0) emit(static_cast<vertex_id>(v));
    }, out);
    return out;
  }

  // True while v still waits on an earlier neighbor.
  bool waiting(vertex_id v) const {
    return parlib::atomic_load(&count_[v]) > 0;
  }

  // Finishes waiting v without making it a root, so releases no longer
  // reach it; true for the one call that does. Never overlaps a release.
  bool retire(vertex_id v) {
    const std::int64_t c = parlib::atomic_load(&count_[v]);
    return c > 0 && parlib::atomic_cas(&count_[v], c, std::int64_t{0});
  }

  // Finished u releases its neighbor v; true if v became a root.
  bool release(vertex_id u, vertex_id v) {
    return before(u, v) &&
           parlib::fetch_and_add<std::int64_t>(&count_[v], -1) == 1;
  }

  // The synchronous schedule: step(roots) handles one rootset and returns
  // the frontier that finishes with it, whose release gives the next
  // rootset. The earliest unfinished vertex is always a root, so the rounds
  // end once every vertex is finished (or a cancelled edge_map returns no
  // roots). Always sparse: the dense traversal's early exit on cond does
  // not suit counting updates from multiple sources.
  template <typename Step>
  void run(const Step& step) {
    vertex_subset roots(g_->num_vertices(), this->roots());
    while (!roots.empty()) {
      vertex_subset finished = step(roots);
      roots = edge_map(*g_, finished, release_f{this},
                       edge_map_direction::sparse);
    }
  }

 private:
  bool before(vertex_id u, vertex_id v) const {
    return priority_before(priority_, u, v);
  }

  struct release_f {
    priority_dag* dag;
    bool cond(vertex_id v) const { return dag->waiting(v); }
    bool update(vertex_id u, vertex_id v, auto) const {
      return dag->release(u, v);
    }
    bool update_atomic(vertex_id u, vertex_id v, auto) const {
      return dag->release(u, v);
    }
  };

  const Graph* g_;
  std::vector<Priority> priority_;
  std::vector<std::int64_t> count_;
};

}  // namespace gbbs

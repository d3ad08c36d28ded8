// Tests for edgeMap: dense vs sparse vs blocked equivalence, direction
// switching, edgeMapData, and the write-counter semantics used by the
// Table 6 locality bench.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "graph/edge_map.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "parlib/atomics.h"

namespace {

using gbbs::edge_map_options;
using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::vertex_subset;

// A BFS-style acquire functor over a visited array.
struct acquire_f {
  std::vector<std::uint8_t>* visited;
  bool update(vertex_id, vertex_id v, empty_weight) const {
    if (!(*visited)[v]) {
      (*visited)[v] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v, empty_weight) const {
    return parlib::test_and_set(&(*visited)[v]);
  }
  bool cond(vertex_id v) const { return !(*visited)[v]; }
};

std::vector<vertex_id> sorted_ids(vertex_subset vs) {
  vs.to_sparse();
  auto ids = vs.sparse();
  std::sort(ids.begin(), ids.end());
  return ids;
}

class EdgeMapModes : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Modes, EdgeMapModes, ::testing::Values(0, 1, 2));
// 0 = blocked sparse, 1 = plain sparse, 2 = dense

edge_map_options mode_options(int mode) {
  edge_map_options o;
  if (mode == 0) {
    o.allow_dense = false;
    o.use_blocked = true;
  } else if (mode == 1) {
    o.allow_dense = false;
    o.use_blocked = false;
  } else {
    o.threshold = 0;  // always dense
  }
  return o;
}

TEST_P(EdgeMapModes, OneHopNeighborhood) {
  auto g = gbbs::rmat_symmetric(10, 8000, 11);
  const vertex_id src = 3;
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  visited[src] = 1;
  vertex_subset frontier(g.num_vertices(), src);
  auto next = gbbs::edge_map(g, frontier, acquire_f{&visited},
                             mode_options(GetParam()));
  // Expected: exactly the neighbors of src.
  auto nghs = g.out_neighbors(src);
  std::vector<vertex_id> expected(nghs.begin(), nghs.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted_ids(std::move(next)), expected);
}

TEST_P(EdgeMapModes, FullBfsReachesSameVertices) {
  auto g = gbbs::rmat_symmetric(10, 16000, 13);
  const vertex_id src = 0;
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  visited[src] = 1;
  vertex_subset frontier(g.num_vertices(), src);
  std::size_t total = 1;
  while (!frontier.empty()) {
    frontier = gbbs::edge_map(g, frontier, acquire_f{&visited},
                              mode_options(GetParam()));
    total += frontier.size();
  }
  // Reference reachability.
  std::vector<std::uint8_t> ref(g.num_vertices(), 0);
  std::vector<vertex_id> stack = {src};
  ref[src] = 1;
  std::size_t expected = 1;
  while (!stack.empty()) {
    const vertex_id v = stack.back();
    stack.pop_back();
    for (vertex_id u : g.out_neighbors(v)) {
      if (!ref[u]) {
        ref[u] = 1;
        ++expected;
        stack.push_back(u);
      }
    }
  }
  EXPECT_EQ(total, expected);
  EXPECT_EQ(visited, ref);
}

TEST(EdgeMap, ModesAgreeOnEveryRound) {
  auto g = gbbs::rmat_symmetric(9, 6000, 17);
  const vertex_id src = 5;
  std::vector<std::uint8_t> vis_a(g.num_vertices(), 0),
      vis_b(g.num_vertices(), 0), vis_c(g.num_vertices(), 0);
  vis_a[src] = vis_b[src] = vis_c[src] = 1;
  vertex_subset fa(g.num_vertices(), src), fb(g.num_vertices(), src),
      fc(g.num_vertices(), src);
  while (!fa.empty() || !fb.empty() || !fc.empty()) {
    fa = gbbs::edge_map(g, fa, acquire_f{&vis_a}, mode_options(0));
    fb = gbbs::edge_map(g, fb, acquire_f{&vis_b}, mode_options(1));
    fc = gbbs::edge_map(g, fc, acquire_f{&vis_c}, mode_options(2));
    ASSERT_EQ(sorted_ids(fa), sorted_ids(fb));
    ASSERT_EQ(sorted_ids(fb), sorted_ids(fc));
  }
}

TEST(EdgeMap, DirectedUsesInEdgesForDense) {
  // Directed path 0 -> 1 -> 2: dense mode must find 1 from {0} via 1's
  // in-edges.
  std::vector<gbbs::edge<empty_weight>> edges = {{0, 1, {}}, {1, 2, {}}};
  auto g = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  std::vector<std::uint8_t> visited(3, 0);
  visited[0] = 1;
  vertex_subset frontier(3, vertex_id{0});
  auto next = gbbs::edge_map(g, frontier, acquire_f{&visited},
                             mode_options(2));
  EXPECT_EQ(sorted_ids(std::move(next)), (std::vector<vertex_id>{1}));
}

TEST(EdgeMap, EmptyFrontierShortCircuits) {
  auto g = gbbs::rmat_symmetric(8, 2000, 19);
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  vertex_subset frontier(g.num_vertices());
  auto next = gbbs::edge_map(g, frontier, acquire_f{&visited});
  EXPECT_TRUE(next.empty());
}

// A frontier without out-edges cannot produce output, so even a forced
// dense round returns empty without its O(n) scan; a frontier with an edge
// still goes dense and counts n scanned vertices.
TEST(EdgeMap, ZeroDegreeFrontierSkipsDenseScan) {
  // Vertices 0..9 are isolated; 10..19 form a path.
  std::vector<gbbs::edge<empty_weight>> edges;
  for (vertex_id v = 10; v + 1 < 20; ++v) edges.push_back({v, v + 1, {}});
  auto g = gbbs::build_symmetric_graph<empty_weight>(20, edges);
  edge_map_options always_dense;
  always_dense.threshold = 0;
  const auto& dense = gbbs::obs::events().edgemap_dense_vertices;
  std::vector<std::uint8_t> visited(20, 0);
  std::vector<vertex_id> isolated(10);
  for (vertex_id v = 0; v < 10; ++v) isolated[v] = v;
  vertex_subset frontier(20, isolated);
  const std::uint64_t before = dense.value();
  auto next = gbbs::edge_map(g, frontier, acquire_f{&visited}, always_dense);
  EXPECT_TRUE(next.empty());
  EXPECT_EQ(dense.value(), before);

  visited[10] = 1;
  vertex_subset one_edge(20, vertex_id{10});
  next = gbbs::edge_map(g, one_edge, acquire_f{&visited}, always_dense);
  EXPECT_EQ(sorted_ids(next), std::vector<vertex_id>{11});
  EXPECT_EQ(dense.value(), before + 20);
}

TEST(EdgeMap, BlockedWritesFewerSlotsThanSparse) {
  // On a one-hop expansion of a high-degree frontier with most targets
  // already visited, blocked writes O(live) slots while sparse writes
  // O(degree) slots. This is the Section B / Table 6 claim in counter form.
  auto g = gbbs::rmat_symmetric(12, 60000, 23);
  // Mark most vertices visited already.
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    visited[v] = (v % 8 != 0);
  }
  const auto& slots = gbbs::obs::events().edgemap_slots_written;

  std::vector<std::uint8_t> vis1 = visited;
  vertex_subset f1(g.num_vertices(), vertex_id{0});
  std::uint64_t before = slots.value();
  gbbs::edge_map(g, f1, acquire_f{&vis1}, mode_options(1));
  const auto sparse_writes = slots.value() - before;

  std::vector<std::uint8_t> vis2 = visited;
  vertex_subset f2(g.num_vertices(), vertex_id{0});
  before = slots.value();
  gbbs::edge_map(g, f2, acquire_f{&vis2}, mode_options(0));
  const auto blocked_writes = slots.value() - before;

  EXPECT_EQ(sparse_writes, g.out_degree(0));
  EXPECT_LE(blocked_writes, sparse_writes);
}

TEST(EdgeMap, DenseForwardAgreesWithOtherModes) {
  auto g = gbbs::rmat_symmetric(10, 12000, 31);
  const vertex_id src = 9;
  std::vector<std::uint8_t> vis_a(g.num_vertices(), 0),
      vis_b(g.num_vertices(), 0);
  vis_a[src] = vis_b[src] = 1;
  vertex_subset fa(g.num_vertices(), src), fb(g.num_vertices(), src);
  edge_map_options fwd;
  fwd.threshold = 0;  // always dense
  fwd.dense_forward = true;
  while (!fa.empty() || !fb.empty()) {
    fa = gbbs::edge_map(g, fa, acquire_f{&vis_a}, fwd);
    fb = gbbs::edge_map(g, fb, acquire_f{&vis_b}, mode_options(2));
    ASSERT_EQ(sorted_ids(fa), sorted_ids(fb));
  }
  EXPECT_EQ(vis_a, vis_b);
}

TEST(EdgeMap, DenseForwardOnDirectedGraph) {
  // Forward mode traverses out-edges even in dense representation.
  std::vector<gbbs::edge<empty_weight>> edges = {{0, 1, {}}, {1, 2, {}}};
  auto g = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  std::vector<std::uint8_t> visited(3, 0);
  visited[0] = 1;
  vertex_subset frontier(3, vertex_id{0});
  edge_map_options fwd;
  fwd.threshold = 0;
  fwd.dense_forward = true;
  auto next = gbbs::edge_map(g, frontier, acquire_f{&visited}, fwd);
  EXPECT_EQ(sorted_ids(std::move(next)), (std::vector<vertex_id>{1}));
}

struct min_payload_f {
  std::vector<std::uint32_t>* dist;
  bool cond(vertex_id) const { return true; }
  std::optional<std::uint32_t> update_atomic(vertex_id u, vertex_id v,
                                             empty_weight) const {
    const std::uint32_t nd = (*dist)[u] + 1;
    if (parlib::write_min(&(*dist)[v], nd)) return nd;
    return std::nullopt;
  }
};

TEST(EdgeMapData, CollectsPayloadsOfSuccessfulUpdates) {
  auto g = gbbs::rmat_symmetric(9, 6000, 29);
  std::vector<std::uint32_t> dist(g.num_vertices(),
                                  std::numeric_limits<std::uint32_t>::max());
  dist[4] = 0;
  vertex_subset frontier(g.num_vertices(), vertex_id{4});
  auto out = gbbs::edge_map_data<std::uint32_t>(g, frontier,
                                                min_payload_f{&dist});
  // Each neighbor of 4 should appear exactly once with payload 1.
  auto nghs = g.out_neighbors(4);
  EXPECT_EQ(out.size(), nghs.size());
  for (const auto& [v, d] : out.entries()) {
    EXPECT_EQ(d, 1u);
    EXPECT_TRUE(std::binary_search(nghs.begin(), nghs.end(), v));
  }
}

}  // namespace

// Tests for edgeMap: dense vs blocked sparse equivalence, direction
// switching, edgeMapData blocked vs unblocked, and the write-counter
// semantics used by the Table 6 locality bench.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "graph/edge_map.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "parlib/atomics.h"
#include "parlib/scheduler.h"

namespace {

using gbbs::edge_map_direction;
using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::vertex_subset;
using gbbs::vertex_subset_data;

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
  // Relaxed atomic read: update_atomic's CAS may write the flag concurrently.
  bool cond(vertex_id v) const {
    return std::atomic_ref<std::uint8_t>((*visited)[v]).load(
               std::memory_order_relaxed) == 0;
  }
};

std::vector<vertex_id> sorted_ids(vertex_subset vs) {
  vs.to_sparse();
  auto ids = vs.sparse();
  std::sort(ids.begin(), ids.end());
  return ids;
}

class EdgeMapModes : public ::testing::TestWithParam<edge_map_direction> {};
INSTANTIATE_TEST_SUITE_P(Modes, EdgeMapModes,
                         ::testing::Values(edge_map_direction::sparse,
                                           edge_map_direction::dense));

TEST_P(EdgeMapModes, OneHopNeighborhood) {
  auto g = gbbs::rmat_symmetric(10, 8000, 11);
  const vertex_id src = 3;
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  visited[src] = 1;
  vertex_subset frontier(g.num_vertices(), src);
  auto next = gbbs::edge_map(g, frontier, acquire_f{&visited},
                             GetParam());
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
                              GetParam());
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
    fa = gbbs::edge_map(g, fa, acquire_f{&vis_a}, edge_map_direction::sparse);
    fb = gbbs::edge_map(g, fb, acquire_f{&vis_b}, edge_map_direction::dense);
    fc = gbbs::edge_map(g, fc, acquire_f{&vis_c});
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
                             edge_map_direction::dense);
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
  const auto always_dense = edge_map_direction::dense;
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

// No cond: edge_map_data calls update_atomic on every edge.
struct min_payload_f {
  std::vector<std::uint32_t>* dist;
  std::optional<std::uint32_t> update_atomic(vertex_id u, vertex_id v,
                                             empty_weight) const {
    const std::uint32_t nd = (*dist)[u] + 1;
    if (parlib::write_min(&(*dist)[v], nd)) return nd;
    return std::nullopt;
  }
};

// edge_map_data's acquire functor with the source as payload.
struct acquire_data_f {
  std::vector<std::uint8_t>* visited;
  std::optional<vertex_id> update_atomic(vertex_id u, vertex_id v,
                                         empty_weight) const {
    if (parlib::test_and_set(&(*visited)[v])) return u;
    return std::nullopt;
  }
  bool cond(vertex_id v) const {
    return std::atomic_ref<std::uint8_t>((*visited)[v]).load(
               std::memory_order_relaxed) == 0;
  }
};

using entry = std::pair<vertex_id, vertex_id>;

std::vector<entry> sorted_entries(vertex_subset_data<vertex_id> vs) {
  auto e = vs.entries();
  std::sort(e.begin(), e.end());
  return e;
}

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

TEST(EdgeMapData, BlockedWritesFewerSlotsThanUnblocked) {
  // On a one-hop expansion of a high-degree frontier with most targets
  // already visited, blocked writes O(live) slots while unblocked writes
  // O(degree) slots. This is the Section B / Table 6 claim in counter form,
  // on the path bench_locality measures.
  auto g = gbbs::rmat_symmetric(12, 60000, 23);
  // Mark most vertices visited already.
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    visited[v] = (v % 8 != 0);
  }
  const auto& slots = gbbs::obs::events().edgemap_slots_written;
  auto slots_written = [&](bool use_blocked) {
    std::vector<std::uint8_t> vis = visited;
    vertex_subset f(g.num_vertices(), vertex_id{0});
    const std::uint64_t before = slots.value();
    gbbs::edge_map_data<vertex_id>(g, f, acquire_data_f{&vis}, use_blocked);
    return slots.value() - before;
  };
  const auto unblocked_writes = slots_written(false);
  const auto blocked_writes = slots_written(true);
  EXPECT_EQ(unblocked_writes, g.out_degree(0));
  EXPECT_LE(blocked_writes, unblocked_writes);
}

// A star hub with `leaves` private leaves, and three low-degree vertices,
// each with five private leaves and an edge to the hub.
struct hub_case {
  gbbs::graph<empty_weight> g;
  std::vector<vertex_id> ids;  // the hub second, so its edges start mid-block
  std::vector<std::uint8_t> visited;
};

hub_case make_hub_case(vertex_id leaves) {
  const vertex_id hub = 0;
  const std::vector<vertex_id> small = {leaves + 1, leaves + 2,
                                        leaves + 3};
  const vertex_id n = leaves + 4 + 5 * 3;
  std::vector<gbbs::edge<empty_weight>> edges;
  for (vertex_id v = 1; v <= leaves; ++v) edges.push_back({hub, v, {}});
  vertex_id next_leaf = leaves + 4;
  for (vertex_id s : small) {
    edges.push_back({hub, s, {}});
    for (int i = 0; i < 5; ++i) edges.push_back({s, next_leaf++, {}});
  }
  hub_case c{gbbs::build_symmetric_graph<empty_weight>(n, edges),
             {small[0], hub, small[1], small[2]},
             std::vector<std::uint8_t>(n, 0)};
  for (vertex_id v : c.ids) c.visited[v] = 1;
  for (vertex_id v = 1; v < n; v += 3) c.visited[v] = 1;
  return c;
}

// The blocked kernel sizes its blocks to the round (degree sum and active
// workers). A hub whose edges start mid-block and cross several block
// boundaries, with some targets already visited, must be split across
// blocks without dropping or duplicating a target, at the minimum block
// size and at the cap, at 1, 2 and all workers.
TEST(EdgeMapData, BlocksStraddlingAVertexMatchReference) {
  using gbbs::internal::kEdgeMapBlock;
  using gbbs::internal::kEdgeMapMinBlock;
  const std::size_t p = parlib::num_workers();
  // 2500 edges make minimum-size blocks at any worker count; a degree sum
  // over 8 * p * kEdgeMapBlock makes cap-size blocks at up to p workers.
  const auto small_round = static_cast<vertex_id>(2500);
  const auto big_round = static_cast<vertex_id>(8 * p * kEdgeMapBlock + 5000);
  for (vertex_id leaves : {small_round, big_round}) {
    const hub_case c = make_hub_case(leaves);
    const auto& g = c.g;
    const vertex_id n = g.num_vertices();
    std::uint64_t deg_sum = 0;
    for (vertex_id u : c.ids) deg_sum += g.out_degree(u);

    // Sequential reference: each unvisited target with its one frontier
    // neighbor (every leaf has exactly one).
    std::vector<entry> expected;
    for (vertex_id u : c.ids) {
      for (vertex_id v : g.out_neighbors(u)) {
        if (!c.visited[v]) expected.push_back({v, u});
      }
    }
    std::sort(expected.begin(), expected.end());
    std::vector<vertex_id> expected_ids;
    for (const auto& [v, u] : expected) expected_ids.push_back(v);
    ASSERT_GT(expected.size(), 0u);

    for (std::size_t workers : {std::size_t{1}, std::min<std::size_t>(2, p),
                                p}) {
      parlib::active_workers_guard guard(workers);
      const std::uint64_t bsize = gbbs::internal::block_size(deg_sum);
      EXPECT_EQ(bsize, leaves == small_round ? kEdgeMapMinBlock
                                             : kEdgeMapBlock)
          << workers << " workers";
      // The hub's edge range [6, 6 + deg) starts mid-block and crosses at
      // least two block boundaries.
      const std::uint64_t hub_lo = g.out_degree(c.ids[0]);
      ASSERT_NE(hub_lo % bsize, 0u);
      ASSERT_GE((hub_lo + g.out_degree(c.ids[1])) / bsize - hub_lo / bsize,
                2u);

      for (auto dir :
           {edge_map_direction::sparse, edge_map_direction::dense}) {
        std::vector<std::uint8_t> vis = c.visited;
        vertex_subset f(n, c.ids);
        EXPECT_EQ(sorted_ids(gbbs::edge_map(g, f, acquire_f{&vis}, dir)),
                  expected_ids);
      }

      const auto& ev = gbbs::obs::events();
      for (bool use_blocked : {true, false}) {
        std::vector<std::uint8_t> vis = c.visited;
        vertex_subset f(n, c.ids);
        const std::uint64_t slots = ev.edgemap_slots_written.value();
        const std::uint64_t examined = ev.edgemap_edges_examined.value();
        auto out = gbbs::edge_map_data<vertex_id>(g, f, acquire_data_f{&vis},
                                                  use_blocked);
        EXPECT_EQ(sorted_entries(std::move(out)), expected)
            << workers << " workers, use_blocked=" << use_blocked;
        EXPECT_EQ(ev.edgemap_edges_examined.value() - examined, deg_sum);
        EXPECT_EQ(ev.edgemap_slots_written.value() - slots,
                  use_blocked ? expected.size() : deg_sum);
      }
    }
  }
}

// A hop-count relaxation without cond, like the SSSP functors: the dense
// kernel cannot exit early on it, so edge_map charges a dense round n + m.
struct hop_f {
  std::vector<std::uint32_t>* dist;
  bool update(vertex_id u, vertex_id v, empty_weight) const {
    const std::uint32_t nd = parlib::atomic_load(&(*dist)[u]) + 1;
    if (nd >= (*dist)[v]) return false;
    parlib::atomic_store(&(*dist)[v], nd);
    return true;
  }
  bool update_atomic(vertex_id u, vertex_id v, empty_weight) const {
    return parlib::write_min(&(*dist)[v], parlib::atomic_load(&(*dist)[u]) + 1);
  }
};

// The direction rule: a functor with cond goes dense once |F| + deg_sum
// exceeds m / 20, a cond-less one only past m / 3. Between the two, the
// cond-less functor runs sparse and acquire_f runs dense; above m / 3 both
// run dense. Each choice must give the forced direction's frontier.
TEST(EdgeMap, DenseThresholdDependsOnCond) {
  auto g = gbbs::rmat_symmetric(12, 60000, 31);
  const vertex_id n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  // Lowest ids first until |F| + deg_sum passes m / 8, then everything.
  std::vector<vertex_id> mid;
  std::uint64_t cost = 0;
  for (vertex_id v = 0; v < n && cost <= m / 8; ++v) {
    mid.push_back(v);
    cost += 1 + g.out_degree(v);
  }
  ASSERT_GT(cost, m / 20);
  ASSERT_LE(cost, m / 3);
  std::vector<vertex_id> all(n);
  for (vertex_id v = 0; v < n; ++v) all[v] = v;
  ASSERT_GT(n + m, m / 3);

  // edge_map of f over ids in direction dir: the sorted output frontier;
  // *scanned = the edgemap.dense_vertices delta (n for a dense round).
  const auto& dense = gbbs::obs::events().edgemap_dense_vertices;
  auto run = [&](const std::vector<vertex_id>& ids, auto f,
                 edge_map_direction dir, std::uint64_t* scanned) {
    vertex_subset frontier(n, ids);
    const std::uint64_t before = dense.value();
    auto out = sorted_ids(gbbs::edge_map(g, frontier, f, dir));
    *scanned = dense.value() - before;
    return out;
  };
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  for (const auto* ids : {&mid, &all}) {
    const bool above = ids == &all;
    std::uint64_t scanned = 0, forced_scanned = 0;

    std::vector<std::uint32_t> dist(n, kInf);
    for (vertex_id v : *ids) dist[v] = 0;
    std::vector<std::uint32_t> forced_dist = dist;
    const auto hop_out = run(*ids, hop_f{&dist},
                             edge_map_direction::automatic, &scanned);
    const auto hop_forced = run(*ids, hop_f{&forced_dist},
                                edge_map_direction::dense, &forced_scanned);
    EXPECT_EQ(scanned, above ? n : 0u) << "cond-less, above m/3: " << above;
    EXPECT_EQ(forced_scanned, n);
    EXPECT_EQ(hop_out, hop_forced);
    EXPECT_EQ(dist, forced_dist);

    std::vector<std::uint8_t> vis(n, 0);
    for (vertex_id v : *ids) vis[v] = 1;
    std::vector<std::uint8_t> forced_vis = vis;
    const auto acq_out = run(*ids, acquire_f{&vis},
                             edge_map_direction::automatic, &scanned);
    const auto acq_forced = run(*ids, acquire_f{&forced_vis},
                                edge_map_direction::sparse, &forced_scanned);
    EXPECT_EQ(scanned, n) << "acquire_f, above m/3: " << above;
    EXPECT_EQ(forced_scanned, 0u);
    EXPECT_EQ(acq_out, acq_forced);
    EXPECT_EQ(vis, forced_vis);
  }
}

}  // namespace

// wBFS (bucketed SSSP) and Bellman-Ford vs Dijkstra / sequential oracles,
// including negative weights and negative cycles for Bellman-Ford.
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bellman_ford.h"
#include "algorithms/wbfs.h"
#include "graph/compression/compressed_graph.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class SsspSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, SsspSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(SsspSuite, WbfsMatchesDijkstra) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  if (g.num_vertices() == 0) return;
  const vertex_id src = g.num_vertices() / 3;
  auto got = gbbs::wbfs(g, src);
  auto expected = gbbs::seq::dijkstra(g, src);
  for (std::size_t v = 0; v < expected.size(); ++v) {
    if (expected[v] == gbbs::seq::kInfDist64) {
      ASSERT_EQ(got.dist[v], std::numeric_limits<std::uint32_t>::max()) << v;
    } else {
      ASSERT_EQ(static_cast<std::int64_t>(got.dist[v]), expected[v])
          << GetParam() << " v=" << v;
    }
  }
}

TEST_P(SsspSuite, BellmanFordMatchesDijkstraOnPositiveWeights) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  if (g.num_vertices() == 0) return;
  const vertex_id src = 0;
  auto got = gbbs::bellman_ford(g, src);
  auto expected = gbbs::seq::dijkstra(g, src);
  for (std::size_t v = 0; v < expected.size(); ++v) {
    if (expected[v] == gbbs::seq::kInfDist64) {
      ASSERT_EQ(got[v], gbbs::kInfDist64) << v;
    } else {
      ASSERT_EQ(got[v], expected[v]) << GetParam() << " v=" << v;
    }
  }
}

// Bellman-Ford's relaxation has no cond, so the automatic direction rule
// charges its dense rounds n + m; every direction must give the same
// distances. The torus runs many sparse rounds, R-MAT some dense ones.
class BellmanFordDirections
    : public ::testing::TestWithParam<gbbs::edge_map_direction> {};
INSTANTIATE_TEST_SUITE_P(
    Directions, BellmanFordDirections,
    ::testing::Values(gbbs::edge_map_direction::automatic,
                      gbbs::edge_map_direction::sparse,
                      gbbs::edge_map_direction::dense));

TEST_P(BellmanFordDirections, MatchesDijkstra) {
  for (const std::string name : {"torus", "rmat"}) {
    auto g = gbbs::testing::make_symmetric_weighted(name);
    const vertex_id src = g.num_vertices() / 3;
    auto got = gbbs::bellman_ford(g, src, GetParam());
    auto expected = gbbs::seq::dijkstra(g, src);
    for (std::size_t v = 0; v < expected.size(); ++v) {
      const auto want = expected[v] == gbbs::seq::kInfDist64
                            ? gbbs::kInfDist64
                            : expected[v];
      ASSERT_EQ(got[v], want) << name << " v=" << v;
    }
  }
}

TEST_P(BellmanFordDirections, NegativeCycleReportsMinusInfinity) {
  // 0 -> 1 -> 2 -> 1 with cycle weight -1; 2 -> 3. 4 -> 5 is unreachable.
  std::vector<gbbs::edge<std::int32_t>> edges = {
      {0, 1, 1}, {1, 2, 1}, {2, 1, -2}, {2, 3, 5}, {4, 5, -1}};
  auto g = gbbs::build_asymmetric_graph<std::int32_t>(6, edges);
  auto got = gbbs::bellman_ford(g, 0, GetParam());
  const std::vector<std::int64_t> expected = {
      0, gbbs::kNegInfDist64, gbbs::kNegInfDist64, gbbs::kNegInfDist64,
      gbbs::kInfDist64, gbbs::kInfDist64};
  EXPECT_EQ(got, expected);
}

TEST(Sssp, WbfsAndBellmanFordAgree) {
  auto g = gbbs::testing::make_symmetric_weighted("rmat", 11);
  auto a = gbbs::wbfs(g, 5);
  auto b = gbbs::bellman_ford(g, 5);
  for (std::size_t v = 0; v < a.dist.size(); ++v) {
    if (a.dist[v] == std::numeric_limits<std::uint32_t>::max()) {
      ASSERT_EQ(b[v], gbbs::kInfDist64);
    } else {
      ASSERT_EQ(static_cast<std::int64_t>(a.dist[v]), b[v]) << v;
    }
  }
}

TEST(Sssp, WbfsOnCompressedGraph) {
  auto g = gbbs::testing::make_symmetric_weighted("torus");
  auto cg = gbbs::compressed_graph<std::uint32_t>::compress(g);
  auto a = gbbs::wbfs(g, 7);
  auto b = gbbs::wbfs(cg, 7);
  EXPECT_EQ(a.dist, b.dist);
}

TEST(Sssp, WbfsRoundsBoundedByTotalDistanceRange) {
  // On a path with unit-ish weights, the number of bucket pops equals the
  // number of distinct finite distances.
  std::vector<gbbs::edge<std::uint32_t>> edges;
  for (vertex_id i = 0; i + 1 < 50; ++i) edges.push_back({i, i + 1, 1});
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(50, edges);
  auto res = gbbs::wbfs(g, 0);
  EXPECT_EQ(res.num_rounds, 50u);
  for (vertex_id v = 0; v < 50; ++v) ASSERT_EQ(res.dist[v], v);
}

TEST(BellmanFord, NegativeWeightsNoCycle) {
  // Directed: 0->1 (4), 0->2 (1), 2->1 (-3), 1->3 (2).
  std::vector<gbbs::edge<std::int32_t>> edges = {
      {0, 1, 4}, {0, 2, 1}, {2, 1, -3}, {1, 3, 2}};
  auto g = gbbs::build_asymmetric_graph<std::int32_t>(4, edges);
  auto got = gbbs::bellman_ford(g, 0);
  auto expected = gbbs::seq::bellman_ford_edges<std::int32_t>(4, edges, 0);
  for (int v = 0; v < 4; ++v) {
    ASSERT_EQ(got[v], expected[v]) << v;
  }
  EXPECT_EQ(got[1], -2);
  EXPECT_EQ(got[3], 0);
}

TEST(BellmanFord, NegativeCycleReportsMinusInfinity) {
  // 0 -> 1 -> 2 -> 1 with cycle weight -1; 2 -> 3. Vertices 1,2,3 are all
  // reachable from the cycle; 0 is not.
  std::vector<gbbs::edge<std::int32_t>> edges = {
      {0, 1, 1}, {1, 2, 1}, {2, 1, -2}, {2, 3, 5}};
  auto g = gbbs::build_asymmetric_graph<std::int32_t>(4, edges);
  auto got = gbbs::bellman_ford(g, 0);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], gbbs::kNegInfDist64);
  EXPECT_EQ(got[2], gbbs::kNegInfDist64);
  EXPECT_EQ(got[3], gbbs::kNegInfDist64);
}

TEST(BellmanFord, UnreachableNegativeCycleDoesNotPoison) {
  // Negative cycle 2<->3 is not reachable from 0.
  std::vector<gbbs::edge<std::int32_t>> edges = {
      {0, 1, 1}, {2, 3, -5}, {3, 2, 1}};
  auto g = gbbs::build_asymmetric_graph<std::int32_t>(4, edges);
  auto got = gbbs::bellman_ford(g, 0);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], gbbs::kInfDist64);
  EXPECT_EQ(got[3], gbbs::kInfDist64);
}

TEST(BellmanFord, DirectedGraphMatchesOracle) {
  auto g0 = gbbs::testing::make_directed("rmat_dir");
  // Re-weight deterministically with some negative edges (no cycles made
  // negative: weights >= 1 except a few forward DAG-ified edges).
  auto base = g0.edges();
  std::vector<gbbs::edge<std::int32_t>> edges(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto h = parlib::hash64(i);
    edges[i] = {base[i].u, base[i].v, static_cast<std::int32_t>(h % 8 + 1)};
  }
  auto g = gbbs::build_asymmetric_graph<std::int32_t>(g0.num_vertices(),
                                                      edges);
  auto got = gbbs::bellman_ford(g, 0);
  auto flat = g.edges();
  auto expected = gbbs::seq::bellman_ford_edges<std::int32_t>(
      g.num_vertices(), flat, 0);
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(got[v], expected[v]) << v;
  }
}

}  // namespace

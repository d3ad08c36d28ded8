// BFS vs the sequential oracle over the full graph suite, plus the
// multi-source BFS forest used by biconnectivity.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "graph/compression/compressed_graph.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class BfsSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, BfsSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(BfsSuite, DistancesMatchOracle) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  if (g.num_vertices() == 0) return;
  for (vertex_id src : {vertex_id{0}, g.num_vertices() / 2}) {
    auto got = gbbs::bfs(g, src);
    auto expected = gbbs::seq::bfs(g, src);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
      ASSERT_EQ(got[v], expected[v]) << GetParam() << " src=" << src
                                     << " v=" << v;
    }
  }
}

TEST_P(BfsSuite, SparseOnlyAndDenseOnlyAgree) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  if (g.num_vertices() == 0) return;
  auto a = gbbs::bfs(g, 0, gbbs::edge_map_direction::sparse);
  auto b = gbbs::bfs(g, 0, gbbs::edge_map_direction::dense);
  EXPECT_EQ(a, b);
}

TEST(Bfs, DirectedRespectsEdgeDirection) {
  // 0 -> 1 -> 2, and 3 -> 0: from 0, vertex 3 is unreachable.
  std::vector<gbbs::edge<gbbs::empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {3, 0, {}}};
  auto g = gbbs::build_asymmetric_graph<gbbs::empty_weight>(4, edges);
  auto dist = gbbs::bfs(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], gbbs::kInfDist);
}

TEST(Bfs, WorksOnCompressedGraph) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  auto a = gbbs::bfs(g, 1);
  auto b = gbbs::bfs(cg, 1);
  EXPECT_EQ(a, b);
}

TEST(Bfs, PathDistancesAreExact) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      100, gbbs::path_edges(100));
  auto dist = gbbs::bfs(g, 0);
  for (vertex_id v = 0; v < 100; ++v) ASSERT_EQ(dist[v], v);
}

class BfsForestSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, BfsForestSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(BfsForestSuite, ForestIsValid) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  if (g.num_vertices() == 0) return;
  // Roots: one per component from the oracle.
  auto cc = gbbs::seq::connectivity(g);
  std::vector<vertex_id> roots;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (cc[v] == v) roots.push_back(v);
  }
  auto parents = gbbs::bfs_forest(g, roots);
  // Every vertex reached; parent edges exist in g; following parents
  // reaches a root without cycling.
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(parents[v], gbbs::kNoVertex) << v;
    if (parents[v] != v) {
      auto nghs = g.out_neighbors(v);
      ASSERT_TRUE(std::binary_search(nghs.begin(), nghs.end(), parents[v]));
      ASSERT_EQ(cc[parents[v]], cc[v]);  // same component
    }
    vertex_id cur = v;
    std::size_t steps = 0;
    while (parents[cur] != cur) {
      cur = parents[cur];
      ASSERT_LE(++steps, g.num_vertices());
    }
    ASSERT_EQ(cc[cur], cc[v]);
  }
}

TEST(BfsForest, ParentsAreStrictlyCloserToRoot) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto dist = gbbs::seq::bfs(g, 3);
  auto parents = gbbs::bfs_forest(g, {3});
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] == gbbs::seq::kInfDist) {
      EXPECT_EQ(parents[v], gbbs::kNoVertex);
    } else if (v != 3) {
      ASSERT_EQ(dist[parents[v]] + 1, dist[v]) << v;
    }
  }
}

}  // namespace

// Tests for graph contraction (the recursion step of connectivity).
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/contraction.h"
#include "graph/generators.h"

namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;

TEST(Contraction, TwoClustersOneEdge) {
  // Path 0-1-2-3, clusters {0,1} and {2,3}: quotient is a single edge.
  auto g = gbbs::build_symmetric_graph<empty_weight>(4, gbbs::path_edges(4));
  std::vector<vertex_id> labels = {0, 0, 2, 2};
  auto res = gbbs::contract(g, labels);
  EXPECT_EQ(res.quotient.num_vertices(), 2u);
  EXPECT_EQ(res.quotient.num_edges(), 2u);  // symmetric: both directions
  EXPECT_NE(res.cluster_to_vertex[0], gbbs::kNoVertex);
  EXPECT_NE(res.cluster_to_vertex[2], gbbs::kNoVertex);
  EXPECT_EQ(res.cluster_to_vertex[1], gbbs::kNoVertex);
}

TEST(Contraction, AllOneClusterGivesIsolatedVertex) {
  auto g = gbbs::build_symmetric_graph<empty_weight>(5, gbbs::cycle_edges(5));
  std::vector<vertex_id> labels(5, 3);
  auto res = gbbs::contract(g, labels);
  EXPECT_EQ(res.quotient.num_vertices(), 1u);
  EXPECT_EQ(res.quotient.num_edges(), 0u);
}

TEST(Contraction, SingletonClustersReproduceGraph) {
  auto g = gbbs::rmat_symmetric(8, 3000, 3);
  std::vector<vertex_id> labels(g.num_vertices());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) labels[v] = v;
  auto res = gbbs::contract(g, labels);
  EXPECT_EQ(res.quotient.num_vertices(), g.num_vertices());
  EXPECT_EQ(res.quotient.num_edges(), g.num_edges());
}

TEST(Contraction, ParallelEdgesBetweenClustersDeduplicated) {
  // K4 split into two clusters of two: 4 cross edges collapse to one
  // undirected edge.
  auto g =
      gbbs::build_symmetric_graph<empty_weight>(4, gbbs::complete_edges(4));
  std::vector<vertex_id> labels = {0, 0, 1, 1};
  auto res = gbbs::contract(g, labels);
  EXPECT_EQ(res.quotient.num_vertices(), 2u);
  EXPECT_EQ(res.quotient.num_edges(), 2u);
}

TEST(Contraction, QuotientHasNoSelfLoops) {
  auto g = gbbs::rmat_symmetric(9, 8000, 5);
  // Cluster by id/16 — plenty of intra-cluster edges to drop.
  std::vector<vertex_id> labels(g.num_vertices());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) labels[v] = v / 16 * 16;
  auto res = gbbs::contract(g, labels);
  for (vertex_id v = 0; v < res.quotient.num_vertices(); ++v) {
    for (vertex_id u : res.quotient.out_neighbors(v)) {
      ASSERT_NE(u, v);
    }
  }
}

TEST(Contraction, QuotientConnectivityMatchesClusterAdjacency) {
  auto g = gbbs::torus3d_symmetric(6);
  // Slabs along the first dimension as clusters.
  std::vector<vertex_id> labels(g.num_vertices());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) labels[v] = v / 36;
  auto res = gbbs::contract(g, labels);
  EXPECT_EQ(res.quotient.num_vertices(), 6u);
  // Each slab touches its two cyclic neighbors.
  for (vertex_id v = 0; v < 6; ++v) {
    ASSERT_EQ(res.quotient.out_degree(v), 2u) << v;
  }
}

// With keep_representatives, representative(a, b) is an edge of g whose
// endpoints lie in clusters a and b, the min side's endpoint first, for
// either argument order: the LDD spanning forest lifts its edges by it.
TEST(Contraction, RepresentativesAreEdgesBetweenTheirClusters) {
  auto g = gbbs::rmat_symmetric(9, 8000, 5);
  std::vector<vertex_id> labels(g.num_vertices());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) labels[v] = v / 16 * 16;
  auto res = gbbs::contract(g, labels, /*keep_representatives=*/true);
  ASSERT_GT(res.quotient.num_edges(), 0u);
  for (vertex_id a = 0; a < res.quotient.num_vertices(); ++a) {
    for (const vertex_id b : res.quotient.out_neighbors(a)) {
      const auto [x, y] = res.representative(a, b);
      EXPECT_EQ(res.representative(b, a), std::make_pair(x, y));
      EXPECT_EQ(res.cluster_to_vertex[labels[x]], std::min(a, b));
      EXPECT_EQ(res.cluster_to_vertex[labels[y]], std::max(a, b));
      const auto row = g.out_neighbors(x);
      EXPECT_TRUE(std::binary_search(row.begin(), row.end(), y))
          << "(" << x << "," << y << ") not an edge of g";
    }
  }
}

}  // namespace

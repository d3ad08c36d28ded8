// Connectivity vs the sequential oracle (partition equality), spanning
// forest validity, multiple betas and seeds.
#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/connectivity.h"
#include "algorithms/spanning_forest.h"
#include "graph/compression/compressed_graph.h"
#include "obs/registry.h"
#include "parlib/union_find.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

// Two labelings describe the same partition iff the label-pair mapping is a
// bijection.
void expect_same_partition(const std::vector<vertex_id>& a,
                           const std::vector<vertex_id>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::unordered_map<vertex_id, vertex_id> a2b, b2a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    auto [ia, inserted_a] = a2b.try_emplace(a[v], b[v]);
    ASSERT_EQ(ia->second, b[v]) << "a-label " << a[v] << " split at " << v;
    auto [ib, inserted_b] = b2a.try_emplace(b[v], a[v]);
    ASSERT_EQ(ib->second, a[v]) << "b-label " << b[v] << " merged at " << v;
  }
}

class ConnectivitySuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, ConnectivitySuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(ConnectivitySuite, MatchesOracle) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto got = gbbs::connectivity(g);
  auto expected = gbbs::seq::connectivity(g);
  expect_same_partition(got, expected);
}

TEST_P(ConnectivitySuite, SeedsAndBetasAgree) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto base = gbbs::connectivity(g, 0.2, parlib::random(1));
  for (double beta : {0.05, 0.5}) {
    for (std::uint64_t seed : {7ull, 31ull}) {
      auto other = gbbs::connectivity(g, beta, parlib::random(seed));
      expect_same_partition(base, other);
    }
  }
}

TEST(Connectivity, CompressedMatchesUncompressed) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  expect_same_partition(gbbs::connectivity(g), gbbs::connectivity(cg));
}

// 2^14 isolated vertices plus a 32-clique. Level 0's LDD scans all n
// vertices only in the rounds that grow the clique (an all-isolated
// frontier has no edges, so edge_map returns at once), and the isolated
// clusters do not recurse, so no later level scans them again. Without
// the edge_map guard most ball-growing rounds go dense (about 21n).
TEST(Connectivity, MostlyIsolatedGraphScansFewDenseRounds) {
  const vertex_id isolated = vertex_id{1} << 14, core = 32;
  const vertex_id n = isolated + core;
  std::vector<gbbs::edge<gbbs::empty_weight>> edges;
  for (vertex_id i = 0; i < core; ++i) {
    for (vertex_id j = i + 1; j < core; ++j) {
      edges.push_back({isolated + i, isolated + j, {}});
    }
  }
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(n, edges);
  const auto& dense = gbbs::obs::events().edgemap_dense_vertices;
  const std::uint64_t before = dense.value();
  auto got = gbbs::connectivity(g);
  const std::uint64_t scanned = dense.value() - before;
  expect_same_partition(got, gbbs::seq::connectivity(g));
  EXPECT_LE(scanned, 4ull * n);
}

TEST(Connectivity, RepresentativesAreOnePerComponent) {
  auto g = gbbs::testing::two_components(150);
  auto labels = gbbs::connectivity(g);
  auto reps = gbbs::component_representatives(labels);
  EXPECT_EQ(reps.size(), 2u);
  EXPECT_NE(labels[reps[0]], labels[reps[1]]);
}

class SpanningForestSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, SpanningForestSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

// The BFS-free spanning forest (Section 4's sketched improvement) has
// n - #components real edges and no cycle.
template <typename Graph>
void check_ldd_forest(const Graph& g) {
  auto edges = gbbs::spanning_forest_ldd(g);
  auto cc = gbbs::seq::connectivity(g);
  std::set<vertex_id> comps(cc.begin(), cc.end());
  ASSERT_EQ(edges.size(), g.num_vertices() - comps.size());
  parlib::union_find uf(g.num_vertices());
  for (const auto& [u, v] : edges) {
    auto nghs = g.out_neighbors(u);
    ASSERT_TRUE(std::binary_search(nghs.begin(), nghs.end(), v))
        << "(" << u << "," << v << ") not an edge of g";
    ASSERT_TRUE(uf.unite(u, v)) << "cycle at (" << u << "," << v << ")";
  }
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      ASSERT_TRUE(uf.same_set(v, u));
    }
  }
}

TEST_P(SpanningForestSuite, LddForestSpansComponentsAcyclically) {
  check_ldd_forest(gbbs::testing::make_symmetric(GetParam()));
}

// Small components become isolated clusters and stop recursing while the
// torus goes on: their ball edges must still be in the forest, once.
TEST(SpanningForest, LddForestWithIsolatedClusters) {
  check_ldd_forest(gbbs::testing::two_components(50));
  auto edges = gbbs::torus3d_edges(5);
  vertex_id n = 5 * 5 * 5;
  for (int i = 0; i < 20; ++i, n += 3) {  // triangles
    edges.push_back({n, n + 1, {}});
    edges.push_back({n + 1, n + 2, {}});
    edges.push_back({n + 2, n, {}});
  }
  for (int i = 0; i < 10; ++i, n += 6) {  // paths
    for (const auto& e : gbbs::path_edges(6)) {
      edges.push_back({n + e.u, n + e.v, {}});
    }
  }
  n += 10;  // isolated vertices
  check_ldd_forest(
      gbbs::build_symmetric_graph<gbbs::empty_weight>(n, std::move(edges)));
}

TEST_P(SpanningForestSuite, ForestEdgesSpanComponentsAcyclically) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto sf = gbbs::spanning_forest(g);
  auto edges = gbbs::forest_edges(sf.parents);

  // #forest edges = n - #components.
  auto cc = gbbs::seq::connectivity(g);
  std::set<vertex_id> comps(cc.begin(), cc.end());
  ASSERT_EQ(edges.size(), g.num_vertices() - comps.size());

  // Acyclic (union-find never sees a redundant edge) and edges are real.
  parlib::union_find uf(g.num_vertices());
  for (const auto& [u, p] : edges) {
    auto nghs = g.out_neighbors(u);
    ASSERT_TRUE(std::binary_search(nghs.begin(), nghs.end(), p));
    ASSERT_TRUE(uf.unite(u, p)) << "cycle at (" << u << "," << p << ")";
  }
  // The forest connects exactly the components of g.
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      ASSERT_TRUE(uf.same_set(v, u));
    }
  }
}

}  // namespace

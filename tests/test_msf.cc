// MSF vs Kruskal: total weight equality (the MSF invariant), forest
// validity, filtering vs plain Boruvka agreement, and the exact forest
// under the index tie-break.
#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/msf.h"
#include "graph/generators.h"
#include "parlib/union_find.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class MsfSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, MsfSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(MsfSuite, TotalWeightMatchesKruskal) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto res = gbbs::msf(g);
  auto edges = g.edges();
  auto half = parlib::filter(edges, [](const auto& e) { return e.u < e.v; });
  const auto expected = gbbs::seq::msf_weight(g.num_vertices(), half);
  EXPECT_EQ(res.total_weight, expected) << GetParam();
}

TEST_P(MsfSuite, ForestIsSpanningAndAcyclic) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto res = gbbs::msf(g);
  // Acyclic + edge count = n - #components.
  parlib::union_find uf(g.num_vertices());
  for (const auto& e : res.forest) {
    ASSERT_TRUE(uf.unite(e.u, e.v)) << "cycle";
    // Edge exists in g with this weight.
    bool found = false;
    g.map_out_neighbors_early_exit(e.u, [&](vertex_id, vertex_id ngh, std::uint32_t w) {
      if (ngh == e.v && w == e.w) found = true;
      return ngh < e.v;  // sorted adjacency: stop once past
    });
    ASSERT_TRUE(found) << e.u << "-" << e.v;
  }
  auto cc = gbbs::seq::connectivity(g);
  std::set<vertex_id> comps(cc.begin(), cc.end());
  EXPECT_EQ(res.forest.size(), g.num_vertices() - comps.size());
  // Spanning: forest connects whatever g connects.
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      ASSERT_TRUE(uf.same_set(v, u));
    }
  }
}

TEST_P(MsfSuite, FilteredAndPlainBoruvkaAgree) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam(), 9);
  auto filtered = gbbs::msf(g, /*use_filtering=*/true);
  auto plain = gbbs::msf(g, /*use_filtering=*/false);
  EXPECT_EQ(filtered.total_weight, plain.total_weight);
  EXPECT_EQ(filtered.forest.size(), plain.forest.size());
}

TEST(Msf, UniqueWeightsGiveUniqueForest) {
  // With all-distinct weights the MSF is unique: compare edge sets.
  std::vector<gbbs::edge<std::uint32_t>> edges;
  const vertex_id n = 64;
  std::uint32_t w = 1;
  for (vertex_id i = 0; i < n; ++i) {
    for (vertex_id j = i + 1; j < n; j += 3) {
      edges.push_back({i, j, w});
      w += 7;
    }
  }
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(n, edges);
  auto res = gbbs::msf(g);
  // Kruskal reference edge set.
  auto flat = g.edges();
  auto half = parlib::filter(flat, [](const auto& e) { return e.u < e.v; });
  std::sort(half.begin(), half.end(),
            [](const auto& a, const auto& b) { return a.w < b.w; });
  parlib::union_find uf(n);
  std::set<std::pair<vertex_id, vertex_id>> expected;
  for (const auto& e : half) {
    if (uf.unite(e.u, e.v)) expected.insert({e.u, e.v});
  }
  std::set<std::pair<vertex_id, vertex_id>> got;
  for (const auto& e : res.forest) {
    got.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  EXPECT_EQ(got, expected);
}

// Boruvka breaks weight ties by edge index, so its forest is the unique MSF
// under the (weight, index) order: on seeded graphs full of ties it must
// equal Kruskal's forest with the same tie-break, filtered or not.
TEST(Msf, ForestEqualsIndexTieBrokenKruskal) {
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    auto base = gbbs::rmat_edges(10, 12000, seed);
    auto g = gbbs::build_symmetric_graph<std::uint32_t>(
        1 << 10, gbbs::with_random_weights(base, 4, seed));
    auto flat = g.edges();
    auto half = parlib::filter(flat, [](const auto& e) { return e.u < e.v; });
    std::stable_sort(half.begin(), half.end(),
                     [](const auto& a, const auto& b) { return a.w < b.w; });
    parlib::union_find uf(g.num_vertices());
    std::set<std::pair<vertex_id, vertex_id>> expected;
    for (const auto& e : half) {
      if (uf.unite(e.u, e.v)) expected.insert({e.u, e.v});
    }
    for (bool filtering : {true, false}) {
      auto res = gbbs::msf(g, filtering);
      std::set<std::pair<vertex_id, vertex_id>> got;
      for (const auto& e : res.forest) {
        got.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
      }
      EXPECT_EQ(got, expected) << "seed " << seed << " filtering "
                               << filtering;
    }
  }
}

// A dense seeded graph, so filtering runs past its first (CSR-read) step:
// light 4-cliques hold the step-1 edges, and the heavy random edges
// between cliques outlive it. Heavy weights take 256 values, so every
// later pivot splits a class of tied edges. Zero-degree rows sit at 0,
// in the middle and at n - 1, next to a one-edge component, so forest ids
// map back to edges through prefix sums that repeat at every empty row.
// The exact forest must equal index-tie-broken Kruskal, filtered and plain.
TEST(Msf, MultiStepForestOverEmptyRowsEqualsKruskal) {
  const vertex_id n = 1024;
  const vertex_id mid = n / 2;
  // Ids [0, n - 5) map onto [1, n - 3) minus `mid`; n - 3 and n - 2 form
  // the one-edge component.
  auto id = [&](vertex_id x) { return x + 1 + (x + 1 >= mid ? 1 : 0); };
  for (std::uint64_t seed : {5ull, 17ull}) {
    gbbs::edge_list cliques;
    for (vertex_id c = 0; c + 4 <= n - 5; c += 4) {
      for (vertex_id a = c; a < c + 4; ++a) {
        for (vertex_id b = a + 1; b < c + 4; ++b) cliques.push_back({a, b, {}});
      }
    }
    auto edges = gbbs::with_random_weights(cliques, 1u << 10, seed);
    for (auto e : gbbs::with_random_weights(
             gbbs::erdos_renyi_edges(n - 5, 60000, seed), 256, seed)) {
      edges.push_back({e.u, e.v, e.w + (1u << 10)});
    }
    for (auto& e : edges) {
      e.u = id(e.u);
      e.v = id(e.v);
    }
    edges.push_back({n - 3, n - 2, 7});
    auto g = gbbs::build_symmetric_graph<std::uint32_t>(n, edges);
    ASSERT_EQ(g.out_degree(0), 0u);
    ASSERT_EQ(g.out_degree(mid), 0u);
    ASSERT_EQ(g.out_degree(n - 1), 0u);
    auto flat = g.edges();
    auto half = parlib::filter(flat, [](const auto& e) { return e.u < e.v; });
    std::stable_sort(half.begin(), half.end(),
                     [](const auto& a, const auto& b) { return a.w < b.w; });
    parlib::union_find uf(n);
    std::set<std::pair<vertex_id, vertex_id>> expected;
    std::uint64_t expected_weight = 0;
    for (const auto& e : half) {
      if (uf.unite(e.u, e.v)) {
        expected.insert({e.u, e.v});
        expected_weight += e.w;
      }
    }
    for (bool filtering : {true, false}) {
      auto res = gbbs::msf(g, filtering);
      if (filtering) {
        EXPECT_GE(res.num_filter_steps, 2u) << "seed " << seed;
      }
      std::set<std::pair<vertex_id, vertex_id>> got;
      for (const auto& e : res.forest) {
        ASSERT_LT(e.u, e.v);
        got.insert({e.u, e.v});
      }
      EXPECT_EQ(got, expected) << "seed " << seed << " filtering "
                               << filtering;
      EXPECT_EQ(res.total_weight, expected_weight);
    }
  }
}

TEST(Msf, PathUsesAllEdges) {
  auto base = gbbs::path_edges(40);
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(
      40, gbbs::with_random_weights(base, 10, 3));
  auto res = gbbs::msf(g);
  EXPECT_EQ(res.forest.size(), 39u);
}

TEST(Msf, EmptyGraph) {
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(10, {});
  auto res = gbbs::msf(g);
  EXPECT_TRUE(res.forest.empty());
  EXPECT_EQ(res.total_weight, 0u);
}

TEST(Msf, FilterStepsReduceBoruvkaInput) {
  auto g = gbbs::testing::make_symmetric_weighted("rmat", 13);
  auto res = gbbs::msf(g, true);
  EXPECT_GT(res.num_filter_steps, 0u);  // rmat has m >> 3n
}

}  // namespace

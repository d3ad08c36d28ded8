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

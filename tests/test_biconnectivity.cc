// Biconnectivity vs the Hopcroft-Tarjan oracle: the edge partition into
// biconnected components must match exactly.
#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/biconnectivity.h"
#include "graph/generators.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

std::uint64_t edge_key(vertex_id a, vertex_id b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

template <typename Graph>
void check_against_oracle(const Graph& g) {
  auto res = gbbs::biconnectivity(g);
  auto oracle = gbbs::seq::biconnectivity_edge_labels(g);
  std::unordered_map<std::uint64_t, vertex_id> oracle_label(oracle.begin(),
                                                            oracle.end());
  // Partition equality via bijection between label spaces.
  std::unordered_map<vertex_id, vertex_id> ours2oracle, oracle2ours;
  std::size_t edges_checked = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      if (u < v) continue;
      const auto it = oracle_label.find(edge_key(v, u));
      ASSERT_NE(it, oracle_label.end()) << v << "," << u;
      const vertex_id mine = res.edge_label(v, u);
      const vertex_id theirs = it->second;
      auto [i1, ins1] = ours2oracle.try_emplace(mine, theirs);
      ASSERT_EQ(i1->second, theirs)
          << "our label " << mine << " spans oracle comps at (" << v << ","
          << u << ")";
      auto [i2, ins2] = oracle2ours.try_emplace(theirs, mine);
      ASSERT_EQ(i2->second, mine)
          << "oracle comp " << theirs << " split at (" << v << "," << u
          << ")";
      ++edges_checked;
    }
  }
  ASSERT_EQ(edges_checked, g.num_edges() / 2);
}

class BiconnSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, BiconnSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(BiconnSuite, EdgePartitionMatchesHopcroftTarjan) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  check_against_oracle(g);
}

TEST(Biconnectivity, TriangleWithPendant) {
  // Triangle {0,1,2} + pendant 3 on 0: two biconnected components.
  std::vector<gbbs::edge<gbbs::empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {0, 2, {}}, {0, 3, {}}};
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(4, edges);
  auto res = gbbs::biconnectivity(g);
  EXPECT_EQ(res.edge_label(0, 1), res.edge_label(1, 2));
  EXPECT_EQ(res.edge_label(0, 1), res.edge_label(0, 2));
  EXPECT_NE(res.edge_label(0, 1), res.edge_label(0, 3));
  check_against_oracle(g);
}

TEST(Biconnectivity, PathIsAllBridges) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      20, gbbs::path_edges(20));
  auto res = gbbs::biconnectivity(g);
  // Every edge is its own component: all labels distinct.
  std::set<vertex_id> labels;
  for (vertex_id v = 0; v + 1 < 20; ++v) {
    labels.insert(res.edge_label(v, v + 1));
  }
  EXPECT_EQ(labels.size(), 19u);
  EXPECT_EQ(res.num_critical_edges, 19u);
}

TEST(Biconnectivity, CycleIsOneComponent) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      30, gbbs::cycle_edges(30));
  auto res = gbbs::biconnectivity(g);
  std::set<vertex_id> labels;
  for (vertex_id v = 0; v < 30; ++v) {
    labels.insert(res.edge_label(v, (v + 1) % 30));
  }
  EXPECT_EQ(labels.size(), 1u);
}

TEST(Biconnectivity, BowtieSharesArticulationPoint) {
  // Two triangles sharing vertex 0.
  std::vector<gbbs::edge<gbbs::empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {2, 0, {}},
      {0, 3, {}}, {3, 4, {}}, {4, 0, {}}};
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(5, edges);
  auto res = gbbs::biconnectivity(g);
  EXPECT_EQ(res.edge_label(0, 1), res.edge_label(1, 2));
  EXPECT_EQ(res.edge_label(0, 3), res.edge_label(3, 4));
  EXPECT_NE(res.edge_label(0, 1), res.edge_label(0, 3));
  check_against_oracle(g);
}

TEST(Biconnectivity, CompleteGraphIsOneComponent) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      20, gbbs::complete_edges(20));
  auto res = gbbs::biconnectivity(g);
  // Note: root-child tree edges always satisfy the critical-edge condition
  // (the subtree trivially stays inside the root's subtree); the deeper-
  // endpoint labeling reattaches them, so the partition is still one
  // component even though num_critical_edges > 0.
  EXPECT_LE(res.num_critical_edges, g.num_vertices());
  check_against_oracle(g);
}

// A wheel whose hub is the BFS root (the smallest id of its component):
// every hub-leaf edge is a tree edge passing the critical test, so each
// leaf is a piece of its own and only the rim edges join them into the
// one biconnected component. With 8192 spokes, every leaf pushes its size,
// preorder interval and Low/High into the hub within one level pass.
TEST(Biconnectivity, WheelRimJoinsCriticalSpokes) {
  for (const vertex_id leaves : {24u, 8192u}) {
    SCOPED_TRACE(std::to_string(leaves) + " spokes");
    std::vector<gbbs::edge<gbbs::empty_weight>> edges;
    for (vertex_id i = 1; i <= leaves; ++i) {
      edges.push_back({0, i, {}});
      edges.push_back({i, i % leaves + 1, {}});
    }
    auto g =
        gbbs::build_symmetric_graph<gbbs::empty_weight>(leaves + 1, edges);
    auto res = gbbs::biconnectivity(g);
    ASSERT_EQ(res.parents[0], 0u);
    for (vertex_id i = 1; i <= leaves; ++i) ASSERT_EQ(res.parents[i], 0u);
    EXPECT_EQ(res.num_critical_edges, leaves);
    std::set<vertex_id> labels;
    for (const auto& e : edges) labels.insert(res.edge_label(e.u, e.v));
    EXPECT_EQ(labels.size(), 1u);
    check_against_oracle(g);
  }
}

// A star without a rim: every spoke is a bridge, its own component.
TEST(Biconnectivity, StarIsAllBridges) {
  const vertex_id n = 8192;
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      n, gbbs::star_edges(n));
  auto res = gbbs::biconnectivity(g);
  EXPECT_EQ(res.num_critical_edges, n - 1);
  std::set<vertex_id> labels;
  for (vertex_id v = 1; v < n; ++v) labels.insert(res.edge_label(0, v));
  EXPECT_EQ(labels.size(), n - 1);
  check_against_oracle(g);
}

// Random trees plus a few random chords under a random vertex numbering:
// many small pieces, joined by non-tree edges at different depths of the
// BFS forest, with bridges and articulation points left between them.
TEST(Biconnectivity, RandomTreesWithChords) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    const vertex_id n = 20 + rng() % 180;
    std::vector<vertex_id> id(n);
    std::iota(id.begin(), id.end(), 0);
    std::shuffle(id.begin(), id.end(), rng);
    std::vector<gbbs::edge<gbbs::empty_weight>> edges;
    for (vertex_id v = 1; v < n; ++v) {
      edges.push_back({id[v], id[rng() % v], {}});
    }
    const vertex_id chords = 1 + rng() % (n / 8);
    for (vertex_id c = 0; c < chords; ++c) {
      edges.push_back({id[rng() % n], id[rng() % n], {}});
    }
    auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(n, edges);
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_against_oracle(g);
  }
}

TEST(Biconnectivity, DisconnectedGraphHandled) {
  auto g = gbbs::testing::two_components(50);
  check_against_oracle(g);
}

// The spanning forest's levels, which biconnectivity schedules its passes
// by, are the BFS frontiers: on a graph with a torus, a path, a star and
// isolated vertices, the recorded levels partition the vertices, each
// vertex's level is its hop distance from its tree's root, and each parent
// sits exactly one level above its child.
TEST(Biconnectivity, LevelsAreBfsFrontiers) {
  const vertex_id torus_n = 4 * 4 * 4, path_n = 20, star_n = 15;
  auto edges = gbbs::torus3d_edges(4);
  for (const auto& e : gbbs::path_edges(path_n)) {
    edges.push_back({torus_n + e.u, torus_n + e.v, {}});
  }
  for (const auto& e : gbbs::star_edges(star_n)) {
    edges.push_back({torus_n + path_n + e.u, torus_n + path_n + e.v, {}});
  }
  const vertex_id n = torus_n + path_n + star_n + 5;  // 5 isolated
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(n, edges);
  auto sf = gbbs::spanning_forest(g);
  std::vector<std::size_t> level(n, 0);
  std::vector<int> seen(n, 0);
  for (std::size_t d = 0; d < sf.levels.size(); ++d) {
    for (const vertex_id v : sf.levels[d]) {
      ++seen[v];
      level[v] = d;
      if (d == 0) {
        EXPECT_EQ(sf.parents[v], v) << v;
      }
    }
  }
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(seen[v], 1) << v;
  std::vector<int> covered(n, 0);
  for (vertex_id r = 0; r < n; ++r) {
    if (sf.parents[r] != r) continue;
    const auto dist = gbbs::seq::bfs(g, r);
    for (vertex_id v = 0; v < n; ++v) {
      if (dist[v] == gbbs::seq::kInfDist) continue;
      ++covered[v];
      EXPECT_EQ(level[v], dist[v]) << "root " << r << " vertex " << v;
    }
  }
  for (vertex_id v = 0; v < n; ++v) {
    ASSERT_EQ(covered[v], 1) << v;
    if (sf.parents[v] != v) {
      EXPECT_EQ(level[sf.parents[v]] + 1, level[v]) << v;
    }
  }
  check_against_oracle(g);
}

}  // namespace

// SCC vs the iterative Tarjan oracle: partition equality across graph
// shapes, option combinations (trimming, single-pivot, beta), and seeds;
// and the round work of long searches, read off the edgemap.* counters.
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/scc.h"
#include "graph/compression/compressed_graph.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

void expect_same_partition(const std::vector<vertex_id>& a,
                           const std::vector<vertex_id>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::unordered_map<vertex_id, vertex_id> a2b, b2a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    auto [ia, unused_a] = a2b.try_emplace(a[v], b[v]);
    ASSERT_EQ(ia->second, b[v]) << "label " << a[v] << " split at " << v;
    auto [ib, unused_b] = b2a.try_emplace(b[v], a[v]);
    ASSERT_EQ(ib->second, a[v]) << "label " << b[v] << " merged at " << v;
  }
}

class SccSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, SccSuite,
    ::testing::ValuesIn(gbbs::testing::directed_suite_names()));

TEST_P(SccSuite, MatchesTarjan) {
  auto g = gbbs::testing::make_directed(GetParam());
  auto got = gbbs::scc(g);
  auto expected = gbbs::seq::scc(g);
  expect_same_partition(got.labels, expected);
}

TEST_P(SccSuite, OptionCombinationsAgree) {
  auto g = gbbs::testing::make_directed(GetParam());
  auto expected = gbbs::seq::scc(g);
  for (bool trim : {false, true}) {
    for (bool pivot : {false, true}) {
      gbbs::scc_options o;
      o.trim = trim;
      o.single_pivot = pivot;
      o.rng = parlib::random(17);
      auto got = gbbs::scc(g, o);
      expect_same_partition(got.labels, expected);
    }
  }
}

TEST_P(SccSuite, BetaAndSeedsAgree) {
  auto g = gbbs::testing::make_directed(GetParam());
  auto expected = gbbs::seq::scc(g);
  for (double beta : {1.1, 2.0, 4.0}) {
    gbbs::scc_options o;
    o.beta = beta;
    o.rng = parlib::random(static_cast<std::uint64_t>(beta * 100));
    expect_same_partition(gbbs::scc(g, o).labels, expected);
  }
}

TEST(Scc, DirectedCycleIsOneScc) {
  auto g = gbbs::testing::make_directed("dicycle");
  auto got = gbbs::scc(g);
  for (std::size_t v = 1; v < got.labels.size(); ++v) {
    ASSERT_EQ(got.labels[v], got.labels[0]);
  }
}

TEST(Scc, DagIsAllSingletons) {
  auto g = gbbs::testing::make_directed("dag");
  auto got = gbbs::scc(g);
  std::unordered_map<vertex_id, int> counts;
  for (auto l : got.labels) counts[l]++;
  for (const auto& [l, c] : counts) ASSERT_EQ(c, 1);
}

TEST(Scc, TwoCyclesJoinedByOneWayEdge) {
  // Cycle A: 0->1->2->0; cycle B: 3->4->5->3; bridge 2->3.
  std::vector<gbbs::edge<gbbs::empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {2, 0, {}},
      {3, 4, {}}, {4, 5, {}}, {5, 3, {}},
      {2, 3, {}}};
  auto g = gbbs::build_asymmetric_graph<gbbs::empty_weight>(6, edges);
  auto got = gbbs::scc(g);
  EXPECT_EQ(got.labels[0], got.labels[1]);
  EXPECT_EQ(got.labels[1], got.labels[2]);
  EXPECT_EQ(got.labels[3], got.labels[4]);
  EXPECT_EQ(got.labels[4], got.labels[5]);
  EXPECT_NE(got.labels[0], got.labels[3]);
}

TEST(Scc, CompressedMatchesUncompressed) {
  auto g = gbbs::testing::make_directed("rmat_dir");
  auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  auto a = gbbs::scc(g, {.rng = parlib::random(5)});
  auto b = gbbs::scc(cg, {.rng = parlib::random(5)});
  expect_same_partition(a.labels, b.labels);
}

TEST(Scc, EmptyAndSingletonGraphs) {
  auto empty = gbbs::build_asymmetric_graph<gbbs::empty_weight>(0, {});
  EXPECT_TRUE(gbbs::scc(empty).labels.empty());
  auto lone = gbbs::build_asymmetric_graph<gbbs::empty_weight>(3, {});
  auto got = gbbs::scc(lone);
  ASSERT_EQ(got.labels.size(), 3u);
  EXPECT_NE(got.labels[0], got.labels[1]);
  EXPECT_NE(got.labels[1], got.labels[2]);
}

TEST(Scc, GiantSccPlusTail) {
  // A big cycle with a long tail hanging off it (exercises single-pivot +
  // trimming together).
  std::vector<gbbs::edge<gbbs::empty_weight>> edges;
  const vertex_id cyc = 300, tail = 100;
  for (vertex_id i = 0; i < cyc; ++i) edges.push_back({i, (i + 1) % cyc, {}});
  for (vertex_id i = 0; i < tail; ++i) {
    edges.push_back({cyc + i == cyc ? 0 : cyc + i - 1, cyc + i, {}});
  }
  auto g = gbbs::build_asymmetric_graph<gbbs::empty_weight>(cyc + tail,
                                                            edges);
  auto got = gbbs::scc(g);
  auto expected = gbbs::seq::scc(g);
  expect_same_partition(got.labels, expected);
}

// One default scc() call, checked against Tarjan, and the edgemap.*
// counter deltas it caused.
struct edge_map_work {
  std::uint64_t edges_examined;
  std::uint64_t dense_vertices;
};

edge_map_work checked_scc_work(
    const gbbs::graph<gbbs::empty_weight>& g) {
  const auto& ev = gbbs::obs::events();
  const std::uint64_t examined0 = ev.edgemap_edges_examined.value();
  const std::uint64_t dense0 = ev.edgemap_dense_vertices.value();
  auto got = gbbs::scc(g);
  const edge_map_work work{ev.edgemap_edges_examined.value() - examined0,
                           ev.edgemap_dense_vertices.value() - dense0};
  expect_same_partition(got.labels, gbbs::seq::scc(g));
  return work;
}

// Both are one SCC, found by the single-pivot phase: its forward and
// backward reach each visit every vertex once, so the sparse rounds examine
// at most 2m edges in all (dense rounds count no examined edges). A reach
// that scanned all n vertices per round would cost n^2 on the cycle.
TEST(Scc, LongDirectedCycleRoundsPayOnlyForTheirFrontier) {
  const vertex_id n = vertex_id{1} << 16;
  std::vector<gbbs::edge<gbbs::empty_weight>> edges;
  for (vertex_id i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n, {}});
  auto g = gbbs::build_asymmetric_graph<gbbs::empty_weight>(n, edges);
  const std::uint64_t m = g.num_edges();
  const auto work = checked_scc_work(g);
  EXPECT_GE(work.edges_examined, m);
  EXPECT_LE(work.edges_examined, 4 * m);
  EXPECT_EQ(work.dense_vertices, 0u);
}

// The +1 edges of each dimension only: one SCC of diameter 3 * 23, about 70
// rounds per direction. At side 24 the largest frontier (about 3/4 side^2
// vertices) stays under edge_map's m/20 dense threshold, so every round is
// sparse and counted; at side 16 the middle rounds go dense.
TEST(Scc, DirectedTorusRoundsPayOnlyForTheirFrontier) {
  const vertex_id side = 24;
  auto g = gbbs::build_asymmetric_graph<gbbs::empty_weight>(
      side * side * side, gbbs::torus3d_edges(side));
  const std::uint64_t m = g.num_edges();
  const auto work = checked_scc_work(g);
  EXPECT_GE(work.edges_examined, m);
  EXPECT_LE(work.edges_examined, 4 * m);
  EXPECT_EQ(work.dense_vertices, 0u);
}

}  // namespace

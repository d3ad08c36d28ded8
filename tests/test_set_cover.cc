// Approximate set cover: validity (full coverage), approximation quality
// vs the greedy oracle, and both priority modes.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/set_cover.h"
#include "graph/generators.h"
#include "seq/reference.h"

namespace {

using gbbs::vertex_id;

gbbs::graph<gbbs::empty_weight> cover_instance(vertex_id sets,
                                               vertex_id elements,
                                               std::size_t avg_deg,
                                               std::uint64_t seed) {
  return gbbs::build_symmetric_graph<gbbs::empty_weight>(
      sets + elements,
      gbbs::bipartite_cover_edges(sets, elements, avg_deg, seed));
}

struct CoverCase {
  vertex_id sets, elements;
  std::size_t avg_deg;
  std::uint64_t seed;
};

class SetCoverSuite : public ::testing::TestWithParam<CoverCase> {};
INSTANTIATE_TEST_SUITE_P(
    Instances, SetCoverSuite,
    ::testing::Values(CoverCase{50, 200, 10, 1}, CoverCase{100, 1000, 20, 2},
                      CoverCase{500, 2000, 15, 3},
                      CoverCase{20, 50, 8, 4},
                      CoverCase{1000, 5000, 10, 5}));

TEST_P(SetCoverSuite, CoversAllCoverableElements) {
  const auto& p = GetParam();
  auto g = cover_instance(p.sets, p.elements, p.avg_deg, p.seed);
  auto res = gbbs::set_cover(g, p.sets);
  EXPECT_TRUE(gbbs::seq::covers_all(g, p.sets, res.cover));
}

TEST_P(SetCoverSuite, WithinLogFactorOfGreedy) {
  const auto& p = GetParam();
  auto g = cover_instance(p.sets, p.elements, p.avg_deg, p.seed);
  auto res = gbbs::set_cover(g, p.sets);
  auto greedy = gbbs::seq::greedy_set_cover(g, p.sets);
  ASSERT_FALSE(greedy.empty());
  // Greedy is itself an Hn-approximation; allow a generous constant-factor
  // gap between the parallel cover and greedy.
  const double hn = std::log(static_cast<double>(p.elements)) + 1.0;
  EXPECT_LE(static_cast<double>(res.cover.size()),
            (1.0 + hn) * greedy.size())
      << "ours=" << res.cover.size() << " greedy=" << greedy.size();
}

TEST_P(SetCoverSuite, StaticPrioritiesAlsoCover) {
  const auto& p = GetParam();
  auto g = cover_instance(p.sets, p.elements, p.avg_deg, p.seed);
  gbbs::set_cover_options o;
  o.regenerate_priorities = false;
  auto res = gbbs::set_cover(g, p.sets, o);
  EXPECT_TRUE(gbbs::seq::covers_all(g, p.sets, res.cover));
}

TEST(SetCover, SingleSetCoversEverything) {
  // One set covering all elements: cover = that set alone.
  gbbs::edge_list edges;
  for (vertex_id e = 1; e <= 50; ++e) edges.push_back({0, e, {}});
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(51, edges);
  auto res = gbbs::set_cover(g, 1);
  ASSERT_EQ(res.cover.size(), 1u);
  EXPECT_EQ(res.cover[0], 0u);
}

TEST(SetCover, DisjointSetsAllChosen) {
  // 10 sets, each covering 5 private elements: all must be chosen.
  gbbs::edge_list edges;
  for (vertex_id s = 0; s < 10; ++s) {
    for (vertex_id j = 0; j < 5; ++j) {
      edges.push_back({s, 10 + s * 5 + j, {}});
    }
  }
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(60, edges);
  auto res = gbbs::set_cover(g, 10);
  EXPECT_EQ(res.cover.size(), 10u);
}

TEST(SetCover, EmptySetsNeverChosen) {
  gbbs::edge_list edges;
  for (vertex_id e = 0; e < 20; ++e) edges.push_back({0, 5 + e, {}});
  // Sets 1..4 cover nothing.
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(25, edges);
  auto res = gbbs::set_cover(g, 5);
  ASSERT_EQ(res.cover.size(), 1u);
  EXPECT_EQ(res.cover[0], 0u);
  EXPECT_TRUE(gbbs::seq::covers_all(g, 5, res.cover));
}

// The paper's instance family: elements are vertices, sets are closed
// vertex neighborhoods.
gbbs::graph<gbbs::empty_weight> torus_neighborhood_instance(vertex_id side) {
  auto torus = gbbs::torus3d_symmetric(side);
  const vertex_id n = torus.num_vertices();
  gbbs::edge_list edges;
  for (vertex_id v = 0; v < n; ++v) {
    for (vertex_id u : torus.out_neighbors(v)) {
      edges.push_back({v, n + u, {}});
    }
    edges.push_back({v, n + v, {}});  // closed neighborhood
  }
  return gbbs::build_symmetric_graph<gbbs::empty_weight>(2 * n, edges);
}

TEST(SetCover, TorusNeighborhoodInstanceTerminates) {
  // On tori the static-priority baseline exhibits its pathology; both
  // modes must still produce valid covers.
  for (vertex_id side : {6u, 10u}) {
    auto g = torus_neighborhood_instance(side);
    const vertex_id n = g.num_vertices() / 2;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      std::size_t rounds[2] = {0, 0};
      for (bool regen : {true, false}) {
        gbbs::set_cover_options o;
        o.regenerate_priorities = regen;
        o.rng = parlib::random(seed);
        auto res = gbbs::set_cover(g, n, o);
        ASSERT_TRUE(gbbs::seq::covers_all(g, n, res.cover))
            << side << " " << regen;
        rounds[regen] = res.num_rounds;
      }
      // The pathology itself (Section 6): static priorities take several
      // times the rounds of regenerated ones.
      if (side == 10) {
        EXPECT_GT(rounds[false], 2 * rounds[true]) << "seed " << seed;
      }
    }
  }
}

TEST(SetCover, EpsilonVariantsAllCover) {
  auto g = cover_instance(200, 1500, 12, 9);
  for (double eps : {0.01, 0.1, 0.5}) {
    gbbs::set_cover_options o;
    o.epsilon = eps;
    auto res = gbbs::set_cover(g, 200, o);
    ASSERT_TRUE(gbbs::seq::covers_all(g, 200, res.cover)) << eps;
  }
}

}  // namespace

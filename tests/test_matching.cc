// Maximal matching: validity (disjoint + maximal) across the suite, seeds,
// and filter-step counts.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/maximal_matching.h"
#include "parlib/scheduler.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class MatchingSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, MatchingSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(MatchingSuite, IsValidMaximalMatching) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto matching = gbbs::maximal_matching(g);
  EXPECT_TRUE(gbbs::seq::is_valid_maximal_matching(g, matching))
      << GetParam();
}

TEST_P(MatchingSuite, SeedsVaryButStayValid) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  for (std::uint64_t seed : {2ull, 77ull}) {
    auto matching = gbbs::maximal_matching(g, parlib::random(seed));
    ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, matching)) << seed;
  }
}

// The matched pairs, sorted, with multiplicity: a pair emitted twice shows.
std::vector<std::pair<vertex_id, vertex_id>> sorted_pairs(
    const std::vector<gbbs::edge<gbbs::empty_weight>>& matching) {
  std::vector<std::pair<vertex_id, vertex_id>> s;
  for (const auto& e : matching) s.push_back({e.u, e.v});
  std::sort(s.begin(), s.end());
  return s;
}

TEST_P(MatchingSuite, FilterStepCountsAgree) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::maximal_matching(g, parlib::random(5), 0);  // no filtering
  auto b = gbbs::maximal_matching(g, parlib::random(5), 4);
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, a));
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, b));
  // Same priorities => same greedy matching regardless of filtering and of
  // the worker count.
  EXPECT_EQ(sorted_pairs(a), sorted_pairs(b));
  parlib::active_workers_guard one(1);
  auto c = gbbs::maximal_matching(g, parlib::random(5), 4);
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, c));
  EXPECT_EQ(sorted_pairs(c), sorted_pairs(a));
}

TEST(Matching, PathAlternates) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      50, gbbs::path_edges(50));
  auto matching = gbbs::maximal_matching(g);
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, matching));
  // A maximal matching on a 50-path has between 17 and 25 edges.
  EXPECT_GE(matching.size(), 17u);
  EXPECT_LE(matching.size(), 25u);
}

TEST(Matching, CompleteGraphPairsEveryone) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      30, gbbs::complete_edges(30));
  auto matching = gbbs::maximal_matching(g);
  EXPECT_EQ(matching.size(), 15u);
}

TEST(Matching, StarMatchesExactlyOneEdge) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      64, gbbs::star_edges(64));
  auto matching = gbbs::maximal_matching(g);
  EXPECT_EQ(matching.size(), 1u);
  EXPECT_TRUE(matching[0].u == 0 || matching[0].v == 0);
}

TEST(Matching, EmptyGraphEmptyMatching) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(8, {});
  EXPECT_TRUE(gbbs::maximal_matching(g).empty());
}

TEST(Matching, GreedyOnSamePrioritiesIsDeterministic) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto a = gbbs::maximal_matching(g, parlib::random(11));
  auto b = gbbs::maximal_matching(g, parlib::random(11));
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, a));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(sorted_pairs(a), sorted_pairs(b));
}

}  // namespace

// Graph coloring: propriety, Delta+1 bound, LLF vs LF heuristics, shapes
// with known chromatic structure, and exact agreement of both schedules with
// sequential greedy coloring in the same order.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/coloring.h"
#include "algorithms/priority_dag.h"
#include "graph/compression/compressed_graph.h"
#include "parlib/random.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

template <typename Graph>
vertex_id max_degree(const Graph& g) {
  vertex_id d = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    d = std::max(d, g.out_degree(v));
  }
  return d;
}

class ColoringSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, ColoringSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(ColoringSuite, LlfIsProperAndWithinDeltaPlusOne) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto colors = gbbs::color_graph(g, gbbs::coloring_heuristic::llf);
  EXPECT_TRUE(gbbs::seq::is_valid_coloring(g, colors, max_degree(g) + 1))
      << GetParam();
}

TEST_P(ColoringSuite, LfIsProperAndWithinDeltaPlusOne) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto colors = gbbs::color_graph(g, gbbs::coloring_heuristic::lf);
  EXPECT_TRUE(gbbs::seq::is_valid_coloring(g, colors, max_degree(g) + 1))
      << GetParam();
}

// The Jones-Plassmann order, built independently of the algorithm: a
// higher key first (ceil(log2(deg + 1)) for LLF, deg for LF), ties broken
// by position in the seed's random permutation.
template <typename Graph>
std::vector<vertex_id> jp_order(const Graph& g,
                                gbbs::coloring_heuristic heuristic,
                                parlib::random rng) {
  const vertex_id n = g.num_vertices();
  const auto perm = parlib::random_permutation(n, rng);
  std::vector<std::uint32_t> rank(n);
  std::vector<std::uint64_t> key(n);
  for (vertex_id i = 0; i < n; ++i) rank[perm[i]] = i;
  for (vertex_id v = 0; v < n; ++v) {
    const std::uint64_t d = g.out_degree(v);
    std::uint64_t b = 0;
    while ((std::uint64_t{1} << b) < d + 1) ++b;
    key[v] = heuristic == gbbs::coloring_heuristic::llf ? b : d;
  }
  std::vector<vertex_id> order(n);
  for (vertex_id v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](vertex_id a, vertex_id b) {
    if (key[a] != key[b]) return key[a] > key[b];
    return rank[a] < rank[b];
  });
  return order;
}

TEST_P(ColoringSuite, MatchesSequentialGreedyInTheSameOrder) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  for (auto heuristic :
       {gbbs::coloring_heuristic::llf, gbbs::coloring_heuristic::lf}) {
    for (std::uint64_t seed : {0xc01ull, 5ull}) {
      const auto want = gbbs::seq::greedy_coloring(
          g, jp_order(g, heuristic, parlib::random(seed)));
      EXPECT_EQ(gbbs::color_graph(g, heuristic, parlib::random(seed)), want)
          << GetParam() << " seed " << seed;
      EXPECT_EQ(gbbs::color_graph_async(g, heuristic, parlib::random(seed)),
                want)
          << GetParam() << " seed " << seed;
    }
  }
}

// Equal priorities fall back to vertex ids: the DAG is the id order, so
// the synchronous schedule colors greedily in id order.
TEST(PriorityDag, EqualPrioritiesBreakTiesById) {
  auto path = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      50, gbbs::path_edges(50));
  gbbs::priority_dag path_dag(
      path, std::vector<std::uint32_t>(path.num_vertices(), 7));
  EXPECT_EQ(path_dag.roots(), std::vector<vertex_id>{0});

  for (const auto& name : gbbs::testing::symmetric_suite_names()) {
    auto g = gbbs::testing::make_symmetric(name);
    const vertex_id n = g.num_vertices();
    gbbs::priority_dag dag(g, std::vector<std::uint32_t>(n, 7));
    std::vector<vertex_id> color(n, gbbs::kNoVertex);
    dag.run([&](gbbs::vertex_subset& roots) {
      gbbs::vertex_map(roots, [&](vertex_id v) {
        gbbs::coloring_internal::assign_color(g, color, v);
      });
      return std::move(roots);
    });
    std::vector<vertex_id> id_order(n);
    for (vertex_id v = 0; v < n; ++v) id_order[v] = v;
    EXPECT_EQ(color, gbbs::seq::greedy_coloring(g, id_order)) << name;
  }
}

TEST(Coloring, PathUsesTwoOrThreeColors) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      100, gbbs::path_edges(100));
  auto colors = gbbs::color_graph(g);
  EXPECT_LE(gbbs::num_colors(colors), 3u);
}

TEST(Coloring, CompleteGraphNeedsAllColors) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      25, gbbs::complete_edges(25));
  auto colors = gbbs::color_graph(g);
  EXPECT_EQ(gbbs::num_colors(colors), 25u);
}

TEST(Coloring, StarUsesTwoColors) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      128, gbbs::star_edges(128));
  auto colors = gbbs::color_graph(g);
  EXPECT_EQ(gbbs::num_colors(colors), 2u);
}

TEST(Coloring, EmptyGraphOneColor) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(10, {});
  auto colors = gbbs::color_graph(g);
  EXPECT_EQ(gbbs::num_colors(colors), 1u);
}

TEST(Coloring, BipartiteGridGetsFewColors) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      400, gbbs::grid2d_edges(20, 20));
  auto colors = gbbs::color_graph(g);
  // Greedy on a bipartite graph can exceed 2 but stays small.
  EXPECT_LE(gbbs::num_colors(colors), 5u);
}

TEST(Coloring, SeedsProduceValidColorings) {
  auto g = gbbs::testing::make_symmetric("rmat");
  const auto bound = max_degree(g) + 1;
  for (std::uint64_t seed : {3ull, 31ull, 314ull}) {
    auto colors = gbbs::color_graph(g, gbbs::coloring_heuristic::llf,
                                    parlib::random(seed));
    ASSERT_TRUE(gbbs::seq::is_valid_coloring(g, colors, bound)) << seed;
  }
}

TEST_P(ColoringSuite, AsyncIsProperAndWithinDeltaPlusOne) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto colors = gbbs::color_graph_async(g, gbbs::coloring_heuristic::llf);
  EXPECT_TRUE(gbbs::seq::is_valid_coloring(g, colors, max_degree(g) + 1))
      << GetParam();
}

TEST(Coloring, AsyncMatchesSyncExactly) {
  // Both execute greedy coloring in the same priority order, so the result
  // is the identical (deterministic) coloring, barriers or not.
  auto g = gbbs::testing::make_symmetric("rmat");
  auto sync_colors = gbbs::color_graph(g, gbbs::coloring_heuristic::llf,
                                       parlib::random(5));
  auto async_colors = gbbs::color_graph_async(
      g, gbbs::coloring_heuristic::llf, parlib::random(5));
  EXPECT_EQ(sync_colors, async_colors);
}

TEST(Coloring, AsyncOnLongPath) {
  // A path is the worst case for activation chains; the balanced fork-join
  // activation keeps it within stack limits.
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      20000, gbbs::path_edges(20000));
  auto colors = gbbs::color_graph_async(g);
  EXPECT_TRUE(gbbs::seq::is_valid_coloring(g, colors, 3));
}

TEST(Coloring, CompressedMatchesUncompressed) {
  auto g = gbbs::testing::make_symmetric("torus");
  auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  auto a = gbbs::color_graph(g, gbbs::coloring_heuristic::llf,
                             parlib::random(9));
  auto b = gbbs::color_graph(cg, gbbs::coloring_heuristic::llf,
                             parlib::random(9));
  EXPECT_TRUE(gbbs::seq::is_valid_coloring(g, b, max_degree(g) + 1));
  EXPECT_EQ(a, b);
}

}  // namespace

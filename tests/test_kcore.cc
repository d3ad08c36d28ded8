// k-core vs the Matula-Beck oracle; histogram and fetch-and-add variants
// must agree exactly (Table 6 compares only their performance), and so
// must rounds below and above kKcoreSmallRoundEdges peeled edges.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/kcore.h"
#include "graph/compression/compressed_graph.h"
#include "obs/registry.h"
#include "parlib/scheduler.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

// Julienne's round count by brute force: each round removes every live
// vertex whose induced degree is at most k = max(k, min live degree).
template <typename Graph>
std::size_t reference_rounds(const Graph& g) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> deg(n);
  for (vertex_id v = 0; v < n; ++v) deg[v] = g.out_degree(v);
  std::vector<std::uint8_t> live(n, 1);
  std::size_t remaining = n, rounds = 0;
  vertex_id k = 0;
  std::vector<vertex_id> peel;
  while (remaining > 0) {
    vertex_id lo = ~vertex_id{0};
    for (vertex_id v = 0; v < n; ++v) {
      if (live[v]) lo = std::min(lo, deg[v]);
    }
    k = std::max(k, lo);
    peel.clear();
    for (vertex_id v = 0; v < n; ++v) {
      if (live[v] && deg[v] <= k) peel.push_back(v);
    }
    for (vertex_id v : peel) live[v] = 0;
    for (vertex_id v : peel) {
      g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
        if (live[u]) --deg[u];
        return true;
      });
    }
    remaining -= peel.size();
    ++rounds;
  }
  return rounds;
}

// Both variants, at one worker and at all workers, must match Matula-Beck
// coreness and the brute-force round count. Returns the round count.
template <typename Graph>
std::size_t expect_all_paths_match(const Graph& g) {
  const auto expected = gbbs::seq::coreness(g);
  const vertex_id kmax =
      expected.empty() ? 0 : *std::max_element(expected.begin(), expected.end());
  const std::size_t rounds = reference_rounds(g);
  for (std::size_t workers : {std::size_t{1}, parlib::num_workers()}) {
    parlib::active_workers_guard guard(workers);
    for (auto variant : {gbbs::kcore_variant::histogram,
                         gbbs::kcore_variant::fetch_and_add}) {
      const auto got = gbbs::kcore(g, variant);
      const bool fa = variant == gbbs::kcore_variant::fetch_and_add;
      EXPECT_EQ(got.coreness, expected) << workers << " workers, fa=" << fa;
      EXPECT_EQ(got.num_rounds, rounds) << workers << " workers, fa=" << fa;
      EXPECT_EQ(got.max_core, kmax) << workers << " workers, fa=" << fa;
    }
  }
  return rounds;
}

// parlib.histogram_calls issued by one default k-core call.
template <typename Graph>
std::uint64_t histogram_calls_of(const Graph& g) {
  const auto& calls = gbbs::obs::events().histogram_calls;
  const std::uint64_t before = calls.value();
  gbbs::kcore(g);
  return calls.value() - before;
}

class KcoreSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, KcoreSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(KcoreSuite, HistogramMatchesMatulaBeck) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto got = gbbs::kcore(g, gbbs::kcore_variant::histogram);
  auto expected = gbbs::seq::coreness(g);
  ASSERT_EQ(got.coreness.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(got.coreness[v], expected[v]) << GetParam() << " v=" << v;
  }
}

TEST_P(KcoreSuite, FetchAndAddMatchesHistogram) {
  expect_all_paths_match(gbbs::testing::make_symmetric(GetParam()));
}

TEST(Kcore, CompleteGraphCore) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      20, gbbs::complete_edges(20));
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.max_core, 19u);
  for (auto c : res.coreness) ASSERT_EQ(c, 19u);
}

TEST(Kcore, TorusIsUniform) {
  // The paper notes 3D-Torus peels in one round (all vertices degree 6).
  auto g = gbbs::torus3d_symmetric(6);
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.max_core, 6u);
  EXPECT_EQ(res.num_rounds, 1u);
  for (auto c : res.coreness) ASSERT_EQ(c, 6u);
}

TEST(Kcore, PathCoreIsOne) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      64, gbbs::path_edges(64));
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.max_core, 1u);
}

TEST(Kcore, TriangleWithTailPeelsInOrder) {
  // Tail vertices peel at 1, triangle at 2.
  std::vector<gbbs::edge<gbbs::empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {0, 2, {}}, {2, 3, {}}, {3, 4, {}}};
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(5, edges);
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.coreness[0], 2u);
  EXPECT_EQ(res.coreness[1], 2u);
  EXPECT_EQ(res.coreness[2], 2u);
  EXPECT_EQ(res.coreness[3], 1u);
  EXPECT_EQ(res.coreness[4], 1u);
}

TEST(Kcore, CompressedMatchesUncompressed) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  auto a = gbbs::kcore(g);
  auto b = gbbs::kcore(cg);
  EXPECT_EQ(a.coreness, b.coreness);
}

TEST(Kcore, LargeSkewedGraphMatchesOracle) {
  // Regression for the bucket-overflow duplicate bug: needs a degree range
  // far wider than the 128-bucket window so vertices bounce through the
  // overflow repeatedly (first seen at R-MAT scale 16 in bench_stats).
  auto g = gbbs::rmat_symmetric(13, std::size_t{16} << 13, 107);
  auto got = gbbs::kcore(g);
  auto expected = gbbs::seq::coreness(g);
  gbbs::vertex_id refmax = 0;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(got.coreness[v], expected[v]) << v;
    refmax = std::max(refmax, expected[v]);
  }
  EXPECT_EQ(got.max_core, refmax);
}

TEST(Kcore, RoundAboveGrainTakesHistogram) {
  // A hub in a 6-clique plus more than kKcoreSmallRoundEdges leaves: the
  // first round peels every leaf, one edge each, into the still-live hub.
  const vertex_id clique = 6;
  const vertex_id leaves =
      static_cast<vertex_id>(gbbs::kKcoreSmallRoundEdges) + 100;
  auto edges = gbbs::complete_edges(clique);
  for (vertex_id l = clique; l < clique + leaves; ++l) {
    edges.push_back({0, l, {}});
  }
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(clique + leaves,
                                                           edges);
  expect_all_paths_match(g);
  EXPECT_GE(histogram_calls_of(g), 1u);
  EXPECT_EQ(gbbs::kcore(g).max_core, clique - 1);
}

TEST(Kcore, SmallRoundsSkipHistogram) {
  // Many low-coreness rounds on a skewed graph, most far below the grain.
  auto g = gbbs::rmat_symmetric(13, std::size_t{16} << 13, 107);
  const std::size_t rounds = expect_all_paths_match(g);
  EXPECT_GT(rounds, 1u);
  EXPECT_LT(histogram_calls_of(g), rounds);
}

TEST(Kcore, RhoCountsPeelingRounds) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto res = gbbs::kcore(g);
  EXPECT_GT(res.num_rounds, 1u);
  EXPECT_LT(res.num_rounds, g.num_vertices());
}

}  // namespace

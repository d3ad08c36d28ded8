// Triangle counting vs the brute-force oracle, with closed-form checks on
// structured graphs, compressed-graph parity, and concurrent calls.
#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/triangle.h"
#include "graph/compression/compressed_graph.h"
#include "parlib/scheduler.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class TriangleSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, TriangleSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(TriangleSuite, MatchesBruteForce) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  const std::uint64_t expected = gbbs::seq::triangle_count(g);
  EXPECT_EQ(gbbs::triangle_count(g), expected) << GetParam();
  parlib::active_workers_guard one(1);
  EXPECT_EQ(gbbs::triangle_count(g), expected) << GetParam() << " 1 worker";
}

TEST(Triangle, CompleteGraphBinomial) {
  // K_n has n-choose-3 triangles. At n = 130 the DAG rows of the
  // low-ranked vertices span three 64-bit words of the marking bitset.
  for (vertex_id n : {4u, 10u, 30u, 130u}) {
    auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
        n, gbbs::complete_edges(n));
    const std::uint64_t expected =
        static_cast<std::uint64_t>(n) * (n - 1) * (n - 2) / 6;
    EXPECT_EQ(gbbs::triangle_count(g), expected) << n;
  }
}

TEST(Triangle, TriangleFreeGraphsReportZero) {
  auto grid = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      100, gbbs::grid2d_edges(10, 10));
  EXPECT_EQ(gbbs::triangle_count(grid), 0u);
  auto star = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      100, gbbs::star_edges(100));
  EXPECT_EQ(gbbs::triangle_count(star), 0u);
  auto torus = gbbs::torus3d_symmetric(5);
  EXPECT_EQ(gbbs::triangle_count(torus), 0u);
}

TEST(Triangle, SingleTriangle) {
  std::vector<gbbs::edge<gbbs::empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {0, 2, {}}};
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(3, edges);
  EXPECT_EQ(gbbs::triangle_count(g), 1u);
}

TEST(Triangle, CompressedMatchesUncompressed) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  EXPECT_EQ(gbbs::triangle_count(g), gbbs::triangle_count(cg));
}

TEST(Triangle, ConcurrentCallsMatchReference) {
  // Each call owns its per-slot marking scratch, so calls running at the
  // same time from the main thread, registered external workers and
  // unregistered threads never see each other's bits. The two unregistered
  // callers share the scheduler's overflow slot: scratch indexed by slot
  // but shared across calls would mix their marks.
  auto g = gbbs::testing::make_symmetric("rmat");
  const std::uint64_t expected = gbbs::seq::triangle_count(g);
  constexpr int kCallers = 5;
  constexpr int kRounds = 20;
  std::latch start(kCallers);
  std::vector<std::uint64_t> got(kCallers * kRounds, 0);
  auto run = [&](int caller) {
    start.arrive_and_wait();
    for (int r = 0; r < kRounds; ++r) {
      got[caller * kRounds + r] = gbbs::triangle_count(g);
    }
  };
  std::vector<std::thread> threads;
  for (int caller = 1; caller <= 2; ++caller) {
    threads.emplace_back([&, caller] {
      parlib::worker_guard guard;
      run(caller);
    });
  }
  for (int caller = 3; caller <= 4; ++caller) {
    threads.emplace_back([&, caller] { run(caller); });
  }
  run(0);
  for (auto& t : threads) t.join();
  for (int i = 0; i < kCallers * kRounds; ++i) {
    EXPECT_EQ(got[i], expected) << "caller " << i / kRounds;
  }
}

TEST(Triangle, EmptyGraph) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(10, {});
  EXPECT_EQ(gbbs::triangle_count(g), 0u);
}

}  // namespace

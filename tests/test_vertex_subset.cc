// Tests for vertexSubset, vertexMap, vertexFilter, vertex_subset_data.
#include <algorithm>
#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "graph/vertex_subset.h"

namespace {

using gbbs::vertex_id;
using gbbs::vertex_subset;

TEST(VertexSubset, EmptyAndSingleton) {
  vertex_subset empty(10);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);

  vertex_subset single(10, vertex_id{3});
  EXPECT_EQ(single.size(), 1u);
  EXPECT_TRUE(single.contains(3));
  EXPECT_FALSE(single.contains(4));
}

TEST(VertexSubset, SparseToDenseAndBack) {
  vertex_subset vs(100, std::vector<vertex_id>{5, 10, 99});
  EXPECT_FALSE(vs.is_dense());
  vs.to_dense();
  EXPECT_TRUE(vs.is_dense());
  EXPECT_EQ(vs.size(), 3u);
  EXPECT_TRUE(vs.contains(5));
  EXPECT_TRUE(vs.contains(99));
  EXPECT_FALSE(vs.contains(6));
  vs.to_sparse();
  EXPECT_FALSE(vs.is_dense());
  auto ids = vs.sparse();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<vertex_id>{5, 10, 99}));
}

TEST(VertexSubset, DenseConstructionCountsSize) {
  std::vector<std::uint8_t> flags(50, 0);
  flags[1] = flags[7] = flags[49] = 1;
  vertex_subset vs(50, std::move(flags));
  EXPECT_TRUE(vs.is_dense());
  EXPECT_EQ(vs.size(), 3u);
}

TEST(VertexSubset, ForEachVisitsAllMembersOnce) {
  vertex_subset vs(1000, std::vector<vertex_id>{1, 2, 3, 500, 999});
  std::atomic<int> count{0};
  std::vector<std::atomic<int>> hits(1000);
  vs.for_each([&](vertex_id v) {
    count++;
    hits[v]++;
  });
  EXPECT_EQ(count.load(), 5);
  EXPECT_EQ(hits[500].load(), 1);
  EXPECT_EQ(hits[501].load(), 0);

  vs.to_dense();
  std::atomic<int> count2{0};
  vs.for_each([&](vertex_id) { count2++; });
  EXPECT_EQ(count2.load(), 5);
}

TEST(VertexSubset, VertexFilterSparseAndDenseAgree) {
  std::vector<vertex_id> ids;
  for (vertex_id v = 0; v < 200; v += 3) ids.push_back(v);
  vertex_subset sparse(200, ids);
  auto f1 = gbbs::vertex_filter(sparse, [](vertex_id v) { return v % 2 == 0; });

  vertex_subset dense(200, ids);
  dense.to_dense();
  auto f2 = gbbs::vertex_filter(dense, [](vertex_id v) { return v % 2 == 0; });

  auto s1 = f1.sparse();
  auto s2 = f2.sparse();
  std::sort(s1.begin(), s1.end());
  std::sort(s2.begin(), s2.end());
  EXPECT_EQ(s1, s2);
  for (vertex_id v : s1) {
    EXPECT_EQ(v % 6, 0u);  // multiples of 3 that are even
  }
}

TEST(VertexSubsetData, Entries) {
  std::vector<std::pair<vertex_id, int>> elts = {{3, 30}, {7, 70}};
  gbbs::vertex_subset_data<int> vsd(10, elts);
  EXPECT_EQ(vsd.size(), 2u);
  EXPECT_EQ(vsd.entries(), elts);
}

TEST(VertexSubset, LargeDenseRoundTrip) {
  const vertex_id n = 100000;
  std::vector<std::uint8_t> flags(n, 0);
  std::size_t expected = 0;
  for (vertex_id v = 0; v < n; ++v) {
    if (v % 7 == 0) {
      flags[v] = 1;
      ++expected;
    }
  }
  vertex_subset vs(n, std::move(flags));
  EXPECT_EQ(vs.size(), expected);
  vs.to_sparse();
  EXPECT_EQ(vs.size(), expected);
  const auto& ids = vs.sparse();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

}  // namespace

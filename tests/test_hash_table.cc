// Tests for the phase-concurrent hash tables (set, insert-once map, SCC
// reachability multimap), including concurrent insertion races.
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "parlib/hash_table.h"
#include "parlib/parallel.h"
#include "parlib/random.h"

namespace {

TEST(ConcurrentSet, InsertAndContains) {
  parlib::concurrent_set s(100);
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(6));
}

TEST(ConcurrentSet, ParallelInsertDedupes) {
  const std::size_t n = 100000, distinct = 5000;
  parlib::concurrent_set s(distinct);
  std::vector<std::size_t> inserted(n);
  parlib::parallel_for(0, n, [&](std::size_t i) {
    inserted[i] = s.insert(parlib::hash64(i % distinct) | 1) ? 1 : 0;
  });
  std::size_t total = 0;
  for (auto x : inserted) total += x;
  EXPECT_EQ(total, distinct);
  EXPECT_EQ(s.entries().size(), distinct);
}

TEST(ConcurrentSet, EntriesMatchInsertedValues) {
  parlib::concurrent_set s(1000);
  std::set<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t v = parlib::hash64(i);
    s.insert(v);
    expected.insert(v);
  }
  auto entries = s.entries();
  std::set<std::uint64_t> got(entries.begin(), entries.end());
  EXPECT_EQ(got, expected);
}

TEST(ConcurrentSet, ZeroIsAValidElement) {
  parlib::concurrent_set s(10);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.insert(0));
}

TEST(ReachabilityTable, InsertContains) {
  parlib::reachability_table t(100);
  EXPECT_TRUE(t.insert(3, 7));
  EXPECT_FALSE(t.insert(3, 7));
  EXPECT_TRUE(t.insert(3, 9));
  EXPECT_TRUE(t.contains(3, 7));
  EXPECT_TRUE(t.contains(3, 9));
  EXPECT_FALSE(t.contains(3, 8));
  EXPECT_FALSE(t.contains(4, 7));
}

TEST(ReachabilityTable, ForEachLabelFindsAllOfVertex) {
  parlib::reachability_table t(1000);
  // Vertex 42 gets labels {1..20}; decoys on other vertices share hashes.
  for (std::uint32_t c = 1; c <= 20; ++c) t.insert(42, c);
  for (std::uint32_t v = 0; v < 100; ++v)
    if (v != 42) t.insert(v, 99);
  std::set<std::uint32_t> got;
  t.for_each_label(42, [&](std::uint32_t c) { got.insert(c); });
  ASSERT_EQ(got.size(), 20u);
  for (std::uint32_t c = 1; c <= 20; ++c) ASSERT_TRUE(got.count(c));
  EXPECT_EQ(t.count_labels(42), 20u);
  EXPECT_EQ(t.count_labels(7), 1u);
}

TEST(ReachabilityTable, ParallelMultiLabelInsert) {
  const std::size_t verts = 2000, labels_per = 8;
  parlib::reachability_table t(verts * labels_per);
  parlib::parallel_for(0, verts * labels_per, [&](std::size_t i) {
    const auto v = static_cast<std::uint32_t>(i / labels_per);
    const auto c = static_cast<std::uint32_t>(i % labels_per);
    t.insert(v, c);
  });
  for (std::uint32_t v = 0; v < verts; v += 97) {
    ASSERT_EQ(t.count_labels(v), labels_per) << v;
  }
  EXPECT_EQ(t.entries().size(), verts * labels_per);
}

TEST(ReachabilityTable, DuplicateRaceInsertsOnce) {
  // Many threads inserting the same pair: exactly one reported insertion.
  for (int trial = 0; trial < 5; ++trial) {
    parlib::reachability_table t(64);
    std::vector<std::size_t> won(512);
    parlib::parallel_for(
        0, won.size(),
        [&](std::size_t i) { won[i] = t.insert(11, 22) ? 1 : 0; }, 1);
    std::size_t total = 0;
    for (auto w : won) total += w;
    ASSERT_EQ(total, 1u);
    ASSERT_EQ(t.count_labels(11), 1u);
  }
}

// Distinct keys racing for the same empty cells: every key keeps the value
// its own insert stored, never one written by an inserter that lost the cell.
TEST(ConcurrentMap, RacingInsertsKeepTheirOwnValues) {
  const std::uint64_t n = 1 << 14;
  for (int trial = 0; trial < 20; ++trial) {
    parlib::concurrent_map m(n);
    parlib::parallel_for(
        0, n, [&](std::size_t k) { m.insert(k, k * 7 + 1); }, 1);
    for (std::uint64_t k = 0; k < n; ++k) {
      ASSERT_EQ(m.find(k), k * 7 + 1) << "key " << k << " trial " << trial;
    }
  }
}

TEST(NextPowerOfTwo, Basics) {
  EXPECT_EQ(parlib::next_power_of_two(1), 1u);
  EXPECT_EQ(parlib::next_power_of_two(2), 2u);
  EXPECT_EQ(parlib::next_power_of_two(3), 4u);
  EXPECT_EQ(parlib::next_power_of_two(1000), 1024u);
  EXPECT_EQ(parlib::next_power_of_two(1024), 1024u);
}

}  // namespace

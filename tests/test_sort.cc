// Tests for the parallel merge sort, radix integer sort, counting sort, and
// approximate k-th smallest selection.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parlib/integer_sort.h"
#include "parlib/random.h"
#include "parlib/sort.h"

namespace {

class SortSizes : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Sizes, SortSizes,
                         ::testing::Values(0, 1, 2, 10, 1000, 4095, 4096,
                                           4097, 50000, 300000));

TEST_P(SortSizes, MergeSortMatchesStdSort) {
  const std::size_t n = GetParam();
  auto v = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i) % 1000003; });
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parlib::sort_inplace(v);
  EXPECT_EQ(v, expected);
}

TEST_P(SortSizes, IntegerSortMatchesStdSort) {
  const std::size_t n = GetParam();
  auto v = parlib::tabulate<std::uint32_t>(n, [](std::size_t i) {
    return parlib::hash32(static_cast<std::uint32_t>(i)) % 77771;
  });
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parlib::integer_sort_inplace(v, [](std::uint32_t x) { return x; });
  EXPECT_EQ(v, expected);
}

TEST(Sort, MergeSortIsStable) {
  // Sort pairs by first only; ties must preserve the original second order.
  const std::size_t n = 60000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<std::uint32_t>(parlib::hash64(i) % 16),
            static_cast<std::uint32_t>(i)};
  }
  parlib::sort_inplace(v, [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i - 1].first == v[i].first) {
      ASSERT_LT(v[i - 1].second, v[i].second) << "instability at " << i;
    } else {
      ASSERT_LT(v[i - 1].first, v[i].first);
    }
  }
}

TEST(Sort, IntegerSortIsStable) {
  const std::size_t n = 60000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<std::uint32_t>(parlib::hash64(i) % 7),
            static_cast<std::uint32_t>(i)};
  }
  parlib::integer_sort_inplace(v, [](const auto& p) { return p.first; });
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i - 1].first == v[i].first) {
      ASSERT_LT(v[i - 1].second, v[i].second);
    } else {
      ASSERT_LT(v[i - 1].first, v[i].first);
    }
  }
}

TEST(Sort, IntegerSort64BitKeys) {
  const std::size_t n = 100000;
  auto v = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i); });
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parlib::integer_sort_inplace(v, [](std::uint64_t x) { return x; }, 64);
  EXPECT_EQ(v, expected);
}

TEST(Sort, IntegerSortAllEqualKeys) {
  std::vector<std::uint32_t> v(10000, 42);
  parlib::integer_sort_inplace(v, [](std::uint32_t x) { return x; });
  for (auto x : v) ASSERT_EQ(x, 42u);
}

TEST(Sort, CountingSortBucketsAndOffsets) {
  const std::size_t n = 100000, buckets = 17;
  auto v = parlib::tabulate<std::uint32_t>(n, [](std::size_t i) {
    return static_cast<std::uint32_t>(parlib::hash64(i));
  });
  std::vector<std::size_t> expected_counts(buckets, 0);
  for (auto x : v) expected_counts[x % buckets]++;
  auto starts = parlib::counting_sort_inplace(
      v, [&](std::uint32_t x) { return x % buckets; }, buckets);
  ASSERT_EQ(starts.size(), buckets + 1);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[buckets], n);
  for (std::size_t b = 0; b < buckets; ++b) {
    ASSERT_EQ(starts[b + 1] - starts[b], expected_counts[b]) << b;
    for (std::size_t i = starts[b]; i < starts[b + 1]; ++i) {
      ASSERT_EQ(v[i] % buckets, b);
    }
  }
}

TEST(Sort, SortedHelperReturnsSortedCopy) {
  std::vector<int> v = {5, 3, 8, 1};
  auto s = parlib::sorted(v);
  EXPECT_EQ(s, (std::vector<int>{1, 3, 5, 8}));
  EXPECT_EQ(v, (std::vector<int>{5, 3, 8, 1}));  // original untouched
}

TEST(Sort, CustomComparatorDescending) {
  auto v = parlib::tabulate<std::uint32_t>(
      30000, [](std::size_t i) { return parlib::hash32(static_cast<std::uint32_t>(i)); });
  parlib::sort_inplace(v, std::greater<std::uint32_t>{});
  for (std::size_t i = 1; i < v.size(); ++i) ASSERT_GE(v[i - 1], v[i]);
}

TEST(Sort, ApproximateKthSmallestIsInRightNeighborhood) {
  const std::size_t n = 200000;
  auto v = parlib::iota<std::uint64_t>(n);  // ranks are transparent
  // Shuffle deterministically.
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(v[i], v[parlib::hash64(i) % (i + 1)]);
  }
  const std::size_t k = n / 3;
  const auto pivot = parlib::approximate_kth_smallest(
      n, k, [&](std::size_t i) { return v[i]; }, parlib::random(7));
  // The pivot's true rank should be within a few percent of k.
  EXPECT_GT(pivot, static_cast<std::uint64_t>(k * 0.8));
  EXPECT_LT(pivot, static_cast<std::uint64_t>(k * 1.2));
}

}  // namespace

// Tests for scan, reduce, filter, pack, pack_index, map_maybe, pack_blocks —
// including parameterized sweeps over sizes that cross block boundaries.
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace {

using parlib::sequence;

class SequenceOpsSizes : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, SequenceOpsSizes,
                         ::testing::Values(0, 1, 2, 3, 100, 2047, 2048, 2049,
                                           4096, 10000, 100000, 262144));

TEST_P(SequenceOpsSizes, TabulateMatchesFormula) {
  const std::size_t n = GetParam();
  auto s = parlib::tabulate<std::uint64_t>(n, [](std::size_t i) {
    return 3 * i + 1;
  });
  ASSERT_EQ(s.size(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(s[i], 3 * i + 1);
}

TEST_P(SequenceOpsSizes, ReduceAddMatchesSequential) {
  const std::size_t n = GetParam();
  auto s = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i) % 1000; });
  std::uint64_t expected = 0;
  for (auto v : s) expected += v;
  EXPECT_EQ(parlib::reduce_add(s), expected);
}

TEST_P(SequenceOpsSizes, ReduceMaxMatchesSequential) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  auto s = parlib::tabulate<std::int64_t>(n, [](std::size_t i) {
    return static_cast<std::int64_t>(parlib::hash64(i) % 1000000) - 500000;
  });
  std::int64_t expected = s[0];
  for (auto v : s) expected = std::max(expected, v);
  EXPECT_EQ(parlib::reduce(s, parlib::max_monoid<std::int64_t>()), expected);
}

TEST_P(SequenceOpsSizes, ExclusiveScanMatchesSequential) {
  const std::size_t n = GetParam();
  auto s = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i) % 100; });
  auto orig = s;
  const std::uint64_t total = parlib::scan_inplace(s);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(s[i], acc) << "at " << i;
    acc += orig[i];
  }
  EXPECT_EQ(total, acc);
}

TEST_P(SequenceOpsSizes, FilterKeepsExactlyMatchingInOrder) {
  const std::size_t n = GetParam();
  auto s = parlib::tabulate<std::uint32_t>(
      n, [](std::size_t i) { return parlib::hash32(static_cast<std::uint32_t>(i)); });
  auto pred = [](std::uint32_t v) { return v % 3 == 0; };
  auto got = parlib::filter(s, pred);
  std::vector<std::uint32_t> expected;
  for (auto v : s)
    if (pred(v)) expected.push_back(v);
  EXPECT_EQ(got, expected);
}

TEST_P(SequenceOpsSizes, PackAgreesWithFilter) {
  const std::size_t n = GetParam();
  auto s = parlib::iota<std::uint32_t>(n);
  auto flags = parlib::tabulate<std::uint8_t>(n, [](std::size_t i) {
    return static_cast<std::uint8_t>(parlib::hash64(i) & 1);
  });
  auto got = parlib::pack(s, flags);
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < n; ++i)
    if (flags[i]) expected.push_back(s[i]);
  EXPECT_EQ(got, expected);
}

TEST_P(SequenceOpsSizes, PackIndexReturnsSortedPositions) {
  const std::size_t n = GetParam();
  auto flags = parlib::tabulate<std::uint8_t>(n, [](std::size_t i) {
    return static_cast<std::uint8_t>(parlib::hash64(i * 31) % 4 == 0);
  });
  auto got = parlib::pack_index<std::uint32_t>(flags);
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < n; ++i)
    if (flags[i]) expected.push_back(static_cast<std::uint32_t>(i));
  EXPECT_EQ(got, expected);
}

TEST_P(SequenceOpsSizes, CountIfMatchesFilterSize) {
  const std::size_t n = GetParam();
  auto s = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i); });
  auto pred = [](std::uint64_t v) { return v % 7 < 2; };
  EXPECT_EQ(parlib::count_if(s, pred), parlib::filter(s, pred).size());
}

TEST(SequenceOps, MapAppliesFunction) {
  auto s = parlib::iota<std::uint32_t>(1000);
  auto doubled = parlib::map(s, [](std::uint32_t v) { return v * 2; });
  for (std::size_t i = 0; i < s.size(); ++i) ASSERT_EQ(doubled[i], 2 * i);
}

TEST(SequenceOps, MapMaybeDropsEmpties) {
  auto s = parlib::iota<std::uint32_t>(10000);
  auto got = parlib::map_maybe(s, [](std::uint32_t v) -> std::optional<std::uint32_t> {
    if (v % 5 == 0) return v * 10;
    return std::nullopt;
  });
  ASSERT_EQ(got.size(), 2000u);
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], i * 50);
}

TEST(SequenceOps, PackBlocksEmitsSeveralPerElementInOrder) {
  // Element i emits i % 3 copies of itself, across many blocks.
  const std::size_t n = 3 * parlib::kSeqBlockSize + 17;
  sequence<std::uint32_t> out;
  const std::size_t total = parlib::pack_blocks(
      n,
      [](std::size_t i, const auto& emit) {
        for (std::size_t c = 0; c < i % 3; ++c) {
          emit(static_cast<std::uint32_t>(i));
        }
      },
      out);
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < i % 3; ++c) {
      expected.push_back(static_cast<std::uint32_t>(i));
    }
  }
  EXPECT_EQ(total, expected.size());
  EXPECT_EQ(out, expected);
}

TEST(SequenceOps, PackBlocksAppendsAtBaseAndReusesScratch) {
  sequence<std::size_t> scratch;
  sequence<std::uint32_t> out;
  out.reserve(20000);
  std::size_t expected_size = 0;
  // Shrinking inputs, as in rounds that reuse one block-count buffer.
  for (std::size_t n : {9000u, 5000u, 100u, 0u}) {
    const std::size_t base = out.size();
    const std::size_t total = parlib::pack_blocks(
        n,
        [](std::size_t i, const auto& emit) {
          if (i % 2 == 0) emit(static_cast<std::uint32_t>(i));
        },
        out, base, &scratch);
    ASSERT_EQ(total, (n + 1) / 2);
    expected_size += total;
    ASSERT_EQ(out.size(), expected_size);
    for (std::size_t k = 0; k < total; ++k) ASSERT_EQ(out[base + k], 2 * k);
  }
}

TEST(SequenceOps, ScanWithMaxMonoid) {
  sequence<int> s = {3, 1, 4, 1, 5, 9, 2, 6};
  auto [out, total] = parlib::scan(s, parlib::max_monoid<int>());
  // Exclusive max-prefix.
  std::vector<int> expected = {std::numeric_limits<int>::lowest(), 3, 3, 4,
                               4, 5, 9, 9};
  EXPECT_EQ(out, expected);
  EXPECT_EQ(total, 9);
}

TEST(SequenceOps, ScanIntoAliasedLargeInput) {
  const std::size_t n = 1 << 18;
  auto s = parlib::tabulate<std::uint64_t>(n, [](std::size_t) { return 1; });
  const auto total = parlib::scan_inplace(s);
  EXPECT_EQ(total, n);
  EXPECT_EQ(s[n - 1], n - 1);
  EXPECT_EQ(s[0], 0u);
}

}  // namespace

// Tests for the Julienne bucketing structure: traversal order, lazy
// deletion, window overflow and redistribution, both directions.
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bucketing.h"
#include "parlib/sequence_ops.h"

namespace {

using gbbs::bucket_id;
using gbbs::bucket_order;
using gbbs::kNullBucket;
using gbbs::vertex_id;

TEST(Bucketing, IncreasingTraversalVisitsAllInOrder) {
  // d(v) = v % 10; all identifiers must come out grouped by bucket,
  // buckets in increasing order.
  const vertex_id n = 1000;
  std::vector<bucket_id> d(n);
  for (vertex_id v = 0; v < n; ++v) d[v] = v % 10;
  auto b = gbbs::make_buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing);
  bucket_id last = 0;
  std::size_t seen = 0;
  bool first = true;
  while (true) {
    auto [bkt, ids] = b.next_bucket();
    if (bkt == kNullBucket) break;
    if (!first) {
      EXPECT_GT(bkt, last);
    }
    first = false;
    last = bkt;
    for (vertex_id v : ids) {
      ASSERT_EQ(d[v], bkt);
      d[v] = kNullBucket;  // finished
      ++seen;
    }
  }
  EXPECT_EQ(seen, n);
}

TEST(Bucketing, DecreasingTraversal) {
  const vertex_id n = 500;
  std::vector<bucket_id> d(n);
  for (vertex_id v = 0; v < n; ++v) d[v] = v % 7;
  auto b = gbbs::make_buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::decreasing);
  bucket_id last = 0;
  bool first = true;
  std::size_t seen = 0;
  while (true) {
    auto [bkt, ids] = b.next_bucket();
    if (bkt == kNullBucket) break;
    if (!first) {
      EXPECT_LT(bkt, last);
    }
    first = false;
    last = bkt;
    for (vertex_id v : ids) {
      ASSERT_EQ(d[v], bkt);
      d[v] = kNullBucket;
      ++seen;
    }
  }
  EXPECT_EQ(seen, n);
}

TEST(Bucketing, UpdateMovesToLaterBucket) {
  const vertex_id n = 10;
  std::vector<bucket_id> d(n, 2);
  auto b = gbbs::make_buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing);
  // Move vertex 5 to bucket 4 before popping anything.
  d[5] = 4;
  b.update_buckets({{5, 4}});
  auto [bkt, ids] = b.next_bucket();
  ASSERT_EQ(bkt, 2u);
  EXPECT_EQ(ids.size(), n - 1);  // 5's stale copy filtered out
  for (vertex_id v : ids) {
    EXPECT_NE(v, 5u);
    d[v] = kNullBucket;
  }
  auto [bkt2, ids2] = b.next_bucket();
  ASSERT_EQ(bkt2, 4u);
  ASSERT_EQ(ids2.size(), 1u);
  EXPECT_EQ(ids2[0], 5u);
  d[5] = kNullBucket;
  EXPECT_EQ(b.next_bucket().first, kNullBucket);
}

TEST(Bucketing, StaleFinishedEntriesAreDropped) {
  const vertex_id n = 20;
  std::vector<bucket_id> d(n, 3);
  auto b = gbbs::make_buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing);
  // Finish half the identifiers outside the structure.
  for (vertex_id v = 0; v < n; v += 2) d[v] = kNullBucket;
  auto [bkt, ids] = b.next_bucket();
  ASSERT_EQ(bkt, 3u);
  EXPECT_EQ(ids.size(), n / 2);
  for (vertex_id v : ids) EXPECT_EQ(v % 2, 1u);
}

TEST(Bucketing, OverflowRedistributes) {
  // Buckets far beyond the open window (window = 4) force the overflow
  // path, including re-seeding the window several times.
  const vertex_id n = 300;
  std::vector<bucket_id> d(n);
  for (vertex_id v = 0; v < n; ++v) d[v] = (v * 37) % 1000;
  auto b = gbbs::buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing, 4);
  bucket_id last = 0;
  bool first = true;
  std::size_t seen = 0;
  while (true) {
    auto [bkt, ids] = b.next_bucket();
    if (bkt == kNullBucket) break;
    if (!first) {
      EXPECT_GT(bkt, last);
    }
    first = false;
    last = bkt;
    for (vertex_id v : ids) {
      ASSERT_EQ(d[v], bkt);
      d[v] = kNullBucket;
      ++seen;
    }
  }
  EXPECT_EQ(seen, n);
}

TEST(Bucketing, DynamicUpdatesDuringTraversal) {
  // wBFS-like usage: popping a bucket may move other identifiers to larger
  // buckets (distance improvements).
  const vertex_id n = 50;
  std::vector<bucket_id> d(n);
  for (vertex_id v = 0; v < n; ++v) d[v] = 100;  // all start far away
  d[0] = 0;
  auto b = gbbs::make_buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing);
  std::size_t processed = 0;
  while (true) {
    auto [bkt, ids] = b.next_bucket();
    if (bkt == kNullBucket) break;
    std::vector<std::pair<vertex_id, bucket_id>> updates;
    for (vertex_id v : ids) {
      ++processed;
      // "Relax": v settles; v+1 moves to bucket bkt+1 if still at 100.
      if (v + 1 < n && d[v + 1] == 100) {
        d[v + 1] = bkt + 1;
        updates.push_back({v + 1, bkt + 1});
      }
      d[v] = kNullBucket;
    }
    b.update_buckets(updates);
  }
  EXPECT_EQ(processed, n);  // chain fully relaxed: everyone got processed
}

TEST(Bucketing, GetBucketFiltersUnchanged) {
  EXPECT_EQ(gbbs::buckets<bucket_id (*)(vertex_id)>::get_bucket(5, 5),
            kNullBucket);
  EXPECT_EQ(gbbs::buckets<bucket_id (*)(vertex_id)>::get_bucket(5, 7), 7u);
}

TEST(Bucketing, EmptyStructure) {
  auto b = gbbs::make_buckets(
      0, [](vertex_id) { return kNullBucket; }, bucket_order::increasing);
  EXPECT_EQ(b.next_bucket().first, kNullBucket);
}

TEST(Bucketing, AllNullIdentifiers) {
  auto b = gbbs::make_buckets(
      100, [](vertex_id) { return kNullBucket; }, bucket_order::increasing);
  EXPECT_EQ(b.next_bucket().first, kNullBucket);
}

TEST(Bucketing, OverflowDeduplicatesRepeatedInserts) {
  // Regression: an identifier updated several times while its target bucket
  // lies beyond the open window accumulates copies in the overflow; after
  // redistribution it must still be popped exactly once.
  const vertex_id n = 8;
  std::vector<bucket_id> d(n, 0);
  d[3] = 1000;  // far beyond a 4-bucket window
  auto b = gbbs::buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing, 4);
  // Move vertex 3 around within overflow territory several times.
  for (bucket_id target : {900u, 800u, 700u, 600u}) {
    d[3] = target;
    b.update_buckets({{3, target}});
  }
  std::size_t pops_of_3 = 0;
  while (true) {
    auto [bkt, ids] = b.next_bucket();
    if (bkt == kNullBucket) break;
    for (vertex_id v : ids) {
      if (v == 3) ++pops_of_3;
      ASSERT_EQ(d[v], bkt);
      d[v] = kNullBucket;
    }
  }
  EXPECT_EQ(pops_of_3, 1u);
}

TEST(Bucketing, RoundsCounterTracksPops) {
  const vertex_id n = 30;
  std::vector<bucket_id> d(n);
  for (vertex_id v = 0; v < n; ++v) d[v] = v % 3;
  auto b = gbbs::make_buckets(
      n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing);
  std::size_t pops = 0;
  while (true) {
    auto [bkt, ids] = b.next_bucket();
    if (bkt == kNullBucket) break;
    ++pops;
    for (vertex_id v : ids) d[v] = kNullBucket;
  }
  EXPECT_EQ(pops, 3u);
  EXPECT_EQ(b.num_rounds(), 3u);
}

TEST(Bucketing, SmallAndLargeBatchesPopIdentically) {
  // The same updates pushed as one batch above the direct-append cutoff
  // (counting sort) and as a batch exactly at the cutoff plus one more
  // (direct appends) must pop the same buckets in the same order. The
  // destinations arrive scrambled and span the window and the overflow.
  const std::size_t cut = parlib::kSeqBlockSize;
  const vertex_id n = static_cast<vertex_id>(cut + 1);
  std::vector<std::pair<vertex_id, bucket_id>> ups(n);
  for (vertex_id i = 0; i < n; ++i) {
    const vertex_id v = static_cast<vertex_id>((std::uint64_t{i} * 7919) % n);
    ups[i] = {v, static_cast<bucket_id>((v * 37) % 300)};
  }
  auto pops = [&](bool split) {
    std::vector<bucket_id> d(n, kNullBucket);
    auto b = gbbs::make_buckets(
        n, [&](vertex_id v) { return d[v]; }, bucket_order::increasing);
    for (const auto& [v, bkt] : ups) d[v] = bkt;
    if (split) {
      b.update_buckets({ups.begin(), ups.begin() + cut});
      b.update_buckets({ups.begin() + cut, ups.end()});
    } else {
      b.update_buckets(ups);
    }
    std::vector<std::pair<bucket_id, std::vector<vertex_id>>> out;
    while (true) {
      auto [bkt, ids] = b.next_bucket();
      if (bkt == kNullBucket) break;
      for (vertex_id v : ids) d[v] = kNullBucket;
      out.emplace_back(bkt, std::move(ids));
    }
    return out;
  };
  const auto whole = pops(false);
  EXPECT_EQ(whole.size(), 300u);
  EXPECT_EQ(pops(true), whole);
}

}  // namespace

// Tests for CSR construction: sorting, dedup, self-loop removal,
// symmetrization, in-CSR transposition, pack_out, filter_graph, and the
// shared layout routine (layout_csr). Both edge-list builders are checked
// against the sequential reference seq::build_csr on seeded random inputs
// (duplicates with different weights, self-loops, ids >= n up to
// UINT32_MAX, n of 0 and 1), and layout_csr must reproduce the CSR of
// every graph_view model that has one: the static graph (both shapes),
// the compressed graph, a dynamic graph with pending inserts and erases
// (both sides), and transposed_view.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.h"
#include "graph/compression/compressed_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_view.h"
#include "parlib/atomics.h"
#include "parlib/random.h"
#include "seq/reference.h"

namespace {

using gbbs::edge;
using gbbs::empty_weight;
using gbbs::vertex_id;

TEST(GraphBuild, TinyDirected) {
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {0, 2, {}}, {1, 2, {}}, {2, 0, {}}};
  auto g = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_FALSE(g.symmetric());
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(2), 1u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.in_degree(2), 2u);
  auto n0 = g.out_neighbors(0);
  EXPECT_EQ(std::vector<vertex_id>(n0.begin(), n0.end()),
            (std::vector<vertex_id>{1, 2}));
}

TEST(GraphBuild, RemovesSelfLoopsAndDuplicates) {
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {0, 1, {}}, {1, 1, {}}, {1, 0, {}}, {2, 2, {}}};
  auto g = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);  // (0,1) and (1,0)
  EXPECT_EQ(g.out_degree(2), 0u);
}

TEST(GraphBuild, SymmetrizeAddsReverseEdges) {
  std::vector<edge<empty_weight>> edges = {{0, 1, {}}, {1, 2, {}}};
  auto g = gbbs::build_symmetric_graph<empty_weight>(3, edges);
  EXPECT_TRUE(g.symmetric());
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(1), 2u);
  EXPECT_EQ(g.in_degree(1), 2u);  // aliases out
}

TEST(GraphBuild, AdjacencyIsSorted) {
  auto g = gbbs::rmat_symmetric(10, 8000, 42);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    auto nghs = g.out_neighbors(v);
    for (std::size_t j = 1; j < nghs.size(); ++j) {
      ASSERT_LT(nghs[j - 1], nghs[j]) << "vertex " << v;
    }
  }
}

TEST(GraphBuild, SymmetricGraphHasMatchingReverseEdges) {
  auto g = gbbs::rmat_symmetric(9, 4000, 7);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      auto nghs = g.out_neighbors(u);
      ASSERT_TRUE(std::binary_search(nghs.begin(), nghs.end(), v))
          << "missing reverse of (" << v << "," << u << ")";
    }
  }
}

TEST(GraphBuild, InCsrIsTransposeOfOutCsr) {
  auto g = gbbs::rmat_directed(9, 4000, 11);
  std::set<std::pair<vertex_id, vertex_id>> out_edges, in_edges;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) out_edges.insert({v, u});
    for (vertex_id u : g.in_neighbors(v)) in_edges.insert({u, v});
  }
  EXPECT_EQ(out_edges, in_edges);
}

TEST(GraphBuild, WeightsFollowEdgesThroughBuild) {
  std::vector<edge<std::uint32_t>> edges = {
      {0, 1, 10}, {1, 2, 20}, {0, 2, 30}};
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(3, edges);
  // Edge (1,0) must carry weight 10, (2,0) weight 30, (2,1) weight 20.
  bool found = false;
  g.map_out_neighbors_early_exit(2, [&](vertex_id, vertex_id ngh, std::uint32_t w) {
    if (ngh == 0) {
      EXPECT_EQ(w, 30u);
      found = true;
    }
    if (ngh == 1) {
      EXPECT_EQ(w, 20u);
    }
    return true;
  });
  EXPECT_TRUE(found);
}

TEST(GraphBuild, EdgesRoundTrip) {
  auto g = gbbs::rmat_directed(8, 2000, 3);
  auto edges = g.edges();
  ASSERT_EQ(edges.size(), g.num_edges());
  auto g2 = gbbs::build_asymmetric_graph<empty_weight>(g.num_vertices(),
                                                       std::move(edges));
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    auto a = g.out_neighbors(v);
    auto b = g2.out_neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(GraphBuild, PackOutShrinksLiveDegree) {
  auto g = gbbs::rmat_symmetric(8, 2000, 5);
  const vertex_id v = 1;
  const auto before = g.out_degree(v);
  g.pack_out(v, [](vertex_id, vertex_id ngh, empty_weight) {
    return ngh % 2 == 0;
  });
  const auto after = g.out_degree(v);
  EXPECT_LE(after, before);
  for (vertex_id u : g.out_neighbors(v)) ASSERT_EQ(u % 2, 0u);
  // Still sorted.
  auto nghs = g.out_neighbors(v);
  EXPECT_TRUE(std::is_sorted(nghs.begin(), nghs.end()));
}

TEST(GraphBuild, FilterGraphKeepsExactlyPredicateEdges) {
  auto g = gbbs::rmat_symmetric(9, 4000, 13);
  auto filtered = gbbs::filter_graph(
      g, [](vertex_id u, vertex_id v, empty_weight) { return u < v; });
  EXPECT_EQ(filtered.num_edges(), g.num_edges() / 2);
  std::uint64_t checked = 0;
  for (vertex_id v = 0; v < filtered.num_vertices(); ++v) {
    for (vertex_id u : filtered.out_neighbors(v)) {
      ASSERT_LT(v, u);
      ++checked;
    }
  }
  EXPECT_EQ(checked, filtered.num_edges());
}

TEST(GraphBuild, MapAndReduceOutAgree) {
  auto g = gbbs::rmat_symmetric(8, 3000, 17);
  for (vertex_id v = 0; v < g.num_vertices(); v += 37) {
    std::uint64_t sum_map = 0;
    g.map_out_neighbors(v, [&](vertex_id, vertex_id ngh, empty_weight) {
      parlib::fetch_and_add<std::uint64_t>(&sum_map, ngh);
    });
    const auto sum_red = g.reduce_out(
        v,
        [](vertex_id, vertex_id ngh, empty_weight) {
          return static_cast<std::uint64_t>(ngh);
        },
        parlib::plus_monoid<std::uint64_t>());
    ASSERT_EQ(sum_map, sum_red) << v;
  }
}

TEST(GraphBuild, IntersectOutCountsCommonNeighbors) {
  // Triangle 0-1-2 plus pendant 3 attached to 0.
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {0, 2, {}}, {0, 3, {}}};
  auto g = gbbs::build_symmetric_graph<empty_weight>(4, edges);
  EXPECT_EQ(g.intersect_out(0, 1), 1u);  // common neighbor: 2
  EXPECT_EQ(g.intersect_out(1, 2), 1u);  // common neighbor: 0
  EXPECT_EQ(g.intersect_out(0, 3), 0u);
}

TEST(GraphBuild, MapOutRangeSubsetsAdjacency) {
  auto g = gbbs::rmat_symmetric(8, 3000, 19);
  vertex_id v = 0;
  for (vertex_id u = 0; u < g.num_vertices(); ++u) {
    if (g.out_degree(u) >= 5) {
      v = u;
      break;
    }
  }
  std::vector<vertex_id> got;
  g.map_out_neighbors_range(v, 1, 4, [&](vertex_id, vertex_id ngh, empty_weight) {
    got.push_back(ngh);
  });
  auto nghs = g.out_neighbors(v);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], nghs[1]);
  EXPECT_EQ(got[2], nghs[3]);
}

TEST(GraphBuild, EmptyGraph) {
  auto g = gbbs::build_symmetric_graph<empty_weight>(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (vertex_id v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 0u);
}

TEST(GraphBuild, ZeroVertexGraph) {
  auto g = gbbs::build_symmetric_graph<empty_weight>(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  auto d = gbbs::build_asymmetric_graph<empty_weight>(0, {});
  EXPECT_EQ(d.num_edges(), 0u);
}

TEST(GraphBuild, OutOfRangeEndpointsAreDropped) {
  // Edges touching ids >= n must not corrupt the CSR (n-growing inputs
  // belong to the dynamic subsystem; the static builder drops them).
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {1, 9, {}}, {12, 0, {}}, {1, 2, {}}};
  auto g = gbbs::build_symmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // (0,1) and (1,2), both directions
  auto d = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(d.num_edges(), 2u);
  EXPECT_EQ(d.out_degree(0), 1u);
  EXPECT_EQ(d.out_degree(1), 1u);
}

// ---- builders vs. the sequential reference, layout_csr vs. each model ----

// One side of g (the in-side if `in`) as plain arrays, read row by row.
template <typename W>
gbbs::seq::csr<W> side_of(const gbbs::graph<W>& g, bool in) {
  gbbs::seq::csr<W> c;
  c.offsets.push_back(0);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    const auto row = in ? g.in_neighbors(v) : g.out_neighbors(v);
    for (std::size_t j = 0; j < row.size(); ++j) {
      c.nghs.push_back(row[j]);
      if constexpr (!std::is_same_v<W, empty_weight>) {
        c.wghs.push_back(in ? g.in_weight(v, j) : g.out_weight(v, j));
      }
    }
    c.offsets.push_back(c.nghs.size());
  }
  return c;
}

template <typename A, typename B>
void expect_same_arrays(const A& got, const B& want) {
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.nghs, want.nghs);
  EXPECT_EQ(got.wghs, want.wghs);
}

template <typename W>
std::vector<edge<W>> reversed(std::vector<edge<W>> edges) {
  for (auto& e : edges) std::swap(e.u, e.v);
  return edges;
}

// Seeded edge list over n vertices: a small id range forces duplicates
// (with different weights when weighted) and self-loops; a few ids fall
// at or past n, some at the top of the 32-bit range.
template <typename W>
std::vector<edge<W>> random_edges(vertex_id n, std::size_t m,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const vertex_id top = std::numeric_limits<vertex_id>::max();
  auto id = [&]() -> vertex_id {
    const auto r = rng() % 100;
    if (r < 2) return top - static_cast<vertex_id>(rng() % 2);
    if (r < 5) return n + static_cast<vertex_id>(rng() % 3);
    return n == 0 ? 0 : static_cast<vertex_id>(rng() % n);
  };
  std::vector<edge<W>> edges;
  for (std::size_t i = 0; i < m; ++i) {
    W w{};
    if constexpr (!std::is_same_v<W, empty_weight>) {
      w = static_cast<W>(rng() % 1000);
    }
    const vertex_id u = id();
    const vertex_id v = rng() % 10 == 0 ? u : id();
    edges.push_back({u, v, w});
  }
  return edges;
}

template <typename W>
void check_builders_against_reference() {
  const std::vector<vertex_id> sizes = {0, 1, 2, 7, 64, 300};
  std::uint64_t seed = 1;
  for (const vertex_id n : sizes) {
    for (const std::size_t m : {std::size_t{0}, std::size_t{1},
                                std::size_t{50}, std::size_t{4000}}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " m=" << m);
      const auto edges = random_edges<W>(n, m, seed++);
      auto doubled = edges;
      const auto rev = reversed(edges);
      doubled.insert(doubled.end(), rev.begin(), rev.end());
      const auto sym = gbbs::build_symmetric_graph<W>(n, edges);
      const auto want_sym = gbbs::seq::build_csr<W>(n, doubled);
      expect_same_arrays(side_of(sym, false), want_sym);
      EXPECT_EQ(sym.num_edges(), want_sym.nghs.size());

      const auto dir = gbbs::build_asymmetric_graph<W>(n, edges);
      const auto want_out = gbbs::seq::build_csr<W>(n, edges);
      expect_same_arrays(side_of(dir, false), want_out);
      expect_same_arrays(side_of(dir, true),
                         gbbs::seq::build_csr<W>(n, rev));
      EXPECT_EQ(dir.num_edges(), want_out.nghs.size());
    }
  }
}

TEST(GraphBuild, BuildersMatchSequentialReference) {
  check_builders_against_reference<empty_weight>();
}

TEST(GraphBuild, WeightedBuildersMatchSequentialReference) {
  check_builders_against_reference<std::uint32_t>();
}

TEST(GraphBuild, LayoutReproducesStaticGraphs) {
  using W = std::uint32_t;
  const auto edges = random_edges<W>(200, 3000, 77);
  const auto sym = gbbs::build_symmetric_graph<W>(200, edges);
  expect_same_arrays(gbbs::layout_csr(sym), side_of(sym, false));
  const auto dir = gbbs::build_asymmetric_graph<W>(200, edges);
  expect_same_arrays(gbbs::layout_csr(dir), side_of(dir, false));
  // transposed_view's out-side is the in-CSR.
  expect_same_arrays(gbbs::layout_csr(gbbs::transposed_view(dir)),
                     side_of(dir, true));
  expect_same_arrays(gbbs::layout_csr(gbbs::transposed_view(sym)),
                     side_of(sym, false));
}

TEST(GraphBuild, LayoutReproducesCompressedGraphs) {
  using W = std::uint32_t;
  // Rows longer than one 128-neighbor compression block.
  const auto edges = random_edges<W>(150, 20000, 78);
  for (const bool symmetric : {true, false}) {
    const auto g = symmetric ? gbbs::build_symmetric_graph<W>(150, edges)
                             : gbbs::build_asymmetric_graph<W>(150, edges);
    const auto cg = gbbs::compressed_graph<W>::compress(g);
    expect_same_arrays(gbbs::layout_csr(cg), side_of(g, false));
    expect_same_arrays(gbbs::layout_csr(gbbs::transposed_view(cg)),
                       side_of(g, !symmetric));
    // decompress() is those two layouts.
    const auto back = cg.decompress();
    expect_same_arrays(side_of(back, false), side_of(g, false));
    expect_same_arrays(side_of(back, true), side_of(g, true));
  }
}

TEST(GraphBuild, LayoutReproducesDynamicGraphWithPendingUpdates) {
  using W = std::uint32_t;
  using gbbs::dynamic::update;
  using gbbs::dynamic::update_op;
  const vertex_id n = 120;
  const auto seed_edges = gbbs::seq::build_csr<W>(
      n, random_edges<W>(n, 1500, 79));
  std::vector<edge<W>> base_edges;
  std::map<std::pair<vertex_id, vertex_id>, W> live;
  for (vertex_id u = 0; u < n; ++u) {
    for (auto e = seed_edges.offsets[u]; e < seed_edges.offsets[u + 1];
         ++e) {
      base_edges.push_back({u, seed_edges.nghs[e], seed_edges.wghs[e]});
      live[{u, seed_edges.nghs[e]}] = seed_edges.wghs[e];
    }
  }
  gbbs::dynamic::dynamic_graph<W> dg(
      gbbs::build_asymmetric_graph<W>(n, base_edges));
  // Inserts (some overwrite a base weight, some grow the vertex set) and
  // erases of base and fresh edges, never compacted: every row is base ⊕
  // overlay.
  std::mt19937_64 rng(80);
  for (int b = 0; b < 4; ++b) {
    std::vector<update<W>> batch;
    for (int i = 0; i < 300; ++i) {
      const auto u = static_cast<vertex_id>(rng() % (n + 4));
      const auto v = static_cast<vertex_id>(rng() % (n + 4));
      const auto w = static_cast<W>(rng() % 1000);
      const auto op = rng() % 3 == 0 ? update_op::erase : update_op::insert;
      batch.push_back({u, v, w, op});
      if (u == v) continue;
      if (op == update_op::insert) {
        live[{u, v}] = w;
      } else {
        live.erase({u, v});
      }
    }
    dg.apply(std::move(batch));
  }
  ASSERT_GT(dg.delta_size(), 0u);
  std::vector<edge<W>> want;
  for (const auto& [uv, w] : live) want.push_back({uv.first, uv.second, w});
  const vertex_id nn = dg.num_vertices();
  expect_same_arrays(gbbs::layout_csr(dg), gbbs::seq::build_csr<W>(nn, want));
  expect_same_arrays(gbbs::layout_csr(gbbs::transposed_view(dg)),
                     gbbs::seq::build_csr<W>(nn, reversed(want)));
  // snapshot() is those two layouts.
  const auto snap = dg.snapshot();
  expect_same_arrays(side_of(snap, false), gbbs::seq::build_csr<W>(nn, want));
  expect_same_arrays(side_of(snap, true),
                     gbbs::seq::build_csr<W>(nn, reversed(want)));
}

TEST(GraphBuild, LayoutUnderPredicateIsFilterGraph) {
  const auto g = gbbs::rmat_symmetric(9, 4000, 81);
  auto keep = [](vertex_id u, vertex_id v, empty_weight) {
    return (u + v) % 3 != 0;
  };
  std::vector<edge<empty_weight>> kept;
  for (const auto& e : g.edges()) {
    if (keep(e.u, e.v, e.w)) kept.push_back(e);
  }
  const auto want = gbbs::seq::build_csr<empty_weight>(g.num_vertices(), kept);
  expect_same_arrays(gbbs::layout_csr(g, keep), want);
  expect_same_arrays(side_of(gbbs::filter_graph(g, keep), false), want);
}

}  // namespace

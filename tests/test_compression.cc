// Tests for byte codes and the parallel-byte compressed graph: round trips,
// neighborhood primitive equivalence with the uncompressed graph, block
// boundary handling, intersection, filtering, and the compression-ratio
// property (Ligra+ / Section B).
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/compression/byte_codes.h"
#include "graph/compression/compressed_graph.h"
#include "graph/generators.h"

namespace {

using gbbs::compressed_graph;
using gbbs::empty_weight;
using gbbs::vertex_id;

TEST(ByteCodes, VarintRoundTrip) {
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 255, 300, 16383,
                                       16384, 1u << 20, 0xFFFFFFFFull,
                                       0xFFFFFFFFFFFFull};
  std::vector<std::uint8_t> buf;
  for (auto v : values) gbbs::bytecode::encode(buf, v);
  std::size_t pos = 0;
  for (auto v : values) {
    EXPECT_EQ(gbbs::bytecode::decode(buf.data(), pos), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(ByteCodes, EncodedSizeMatchesEncode) {
  for (std::uint64_t v :
       {0ull, 127ull, 128ull, 16383ull, 16384ull, (1ull << 35)}) {
    std::vector<std::uint8_t> buf;
    gbbs::bytecode::encode(buf, v);
    EXPECT_EQ(buf.size(), gbbs::bytecode::encoded_size(v)) << v;
  }
}

TEST(ByteCodes, ZigZagRoundTrip) {
  for (std::int64_t v : {0ll, 1ll, -1ll, 63ll, -64ll, 1000000ll, -1000000ll,
                         (1ll << 40), -(1ll << 40)}) {
    EXPECT_EQ(gbbs::bytecode::zigzag_decode(gbbs::bytecode::zigzag_encode(v)),
              v);
  }
}

TEST(ByteCodes, ZigZagSmallMagnitudesStaySmall) {
  EXPECT_LT(gbbs::bytecode::zigzag_encode(-3), 8u);
  EXPECT_LT(gbbs::bytecode::zigzag_encode(3), 8u);
}

template <typename G1, typename G2>
void expect_same_neighborhoods(const G1& a, const G2& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (vertex_id v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.out_degree(v), b.out_degree(v)) << v;
    std::vector<vertex_id> na, nb;
    std::vector<std::uint64_t> wa, wb;
    a.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id ngh, auto w) {
      na.push_back(ngh);
      if constexpr (!std::is_same_v<decltype(w), empty_weight>) {
        wa.push_back(w);
      }
      return true;
    });
    b.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id ngh, auto w) {
      nb.push_back(ngh);
      if constexpr (!std::is_same_v<decltype(w), empty_weight>) {
        wb.push_back(w);
      }
      return true;
    });
    ASSERT_EQ(na, nb) << v;
    ASSERT_EQ(wa, wb) << v;
  }
}

class CompressionGraphs : public ::testing::TestWithParam<int> {
 protected:
  gbbs::graph<empty_weight> make() const {
    switch (GetParam()) {
      case 0:
        return gbbs::rmat_symmetric(10, 16000, 3);  // skewed: multi-block
      case 1:
        return gbbs::torus3d_symmetric(8);
      case 2:
        return gbbs::build_symmetric_graph<empty_weight>(
            600, gbbs::star_edges(600));  // one 599-degree vertex
      case 3:
        return gbbs::build_symmetric_graph<empty_weight>(
            5, gbbs::path_edges(5));
      default:
        return gbbs::build_symmetric_graph<empty_weight>(4, {});
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Shapes, CompressionGraphs,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST_P(CompressionGraphs, RoundTripPreservesNeighborhoods) {
  auto g = make();
  auto cg = compressed_graph<empty_weight>::compress(g);
  expect_same_neighborhoods(g, cg);
}

TEST_P(CompressionGraphs, DecompressRoundTrip) {
  auto g = make();
  auto cg = compressed_graph<empty_weight>::compress(g);
  auto g2 = cg.decompress();
  expect_same_neighborhoods(g, g2);
}

TEST_P(CompressionGraphs, MapOutRangeMatchesUncompressed) {
  auto g = make();
  auto cg = compressed_graph<empty_weight>::compress(g);
  for (vertex_id v = 0; v < g.num_vertices(); v += 13) {
    const auto deg = g.out_degree(v);
    if (deg < 3) continue;
    const std::size_t lo = deg / 3, hi = 2 * deg / 3 + 1;
    std::vector<vertex_id> a, b;
    g.map_out_neighbors_range(v, lo, hi, [&](vertex_id, vertex_id ngh, empty_weight) {
      a.push_back(ngh);
    });
    cg.map_out_neighbors_range(v, lo, hi, [&](vertex_id, vertex_id ngh, empty_weight) {
      b.push_back(ngh);
    });
    ASSERT_EQ(a, b) << v;
  }
}

TEST_P(CompressionGraphs, IntersectMatchesUncompressed) {
  auto g = make();
  auto cg = compressed_graph<empty_weight>::compress(g);
  for (vertex_id v = 0; v + 1 < g.num_vertices(); v += 17) {
    ASSERT_EQ(g.intersect_out(v, v + 1), cg.intersect_out(v, v + 1)) << v;
  }
}

TEST(Compression, WeightedRoundTrip) {
  auto g = gbbs::rmat_symmetric_weighted(10, 16000, 5);
  auto cg = compressed_graph<std::uint32_t>::compress(g);
  expect_same_neighborhoods(g, cg);
}

TEST(Compression, DirectedGraphKeepsBothSides) {
  auto g = gbbs::rmat_directed(9, 8000, 7);
  auto cg = compressed_graph<empty_weight>::compress(g);
  ASSERT_FALSE(cg.symmetric());
  for (vertex_id v = 0; v < g.num_vertices(); v += 11) {
    ASSERT_EQ(g.in_degree(v), cg.in_degree(v));
    std::vector<vertex_id> a, b;
    g.map_in_neighbors_early_exit(v, [&](vertex_id, vertex_id ngh, empty_weight) {
      a.push_back(ngh);
      return true;
    });
    cg.map_in_neighbors_early_exit(v, [&](vertex_id, vertex_id ngh, empty_weight) {
      b.push_back(ngh);
      return true;
    });
    ASSERT_EQ(a, b) << v;
  }
}

TEST(Compression, MultiBlockVertexDecodesAcrossBoundaries) {
  // A vertex with degree well above kCompressedBlockSize.
  const vertex_id n = 2000;
  auto g = gbbs::build_symmetric_graph<empty_weight>(n, gbbs::star_edges(n));
  auto cg = compressed_graph<empty_weight>::compress(g);
  ASSERT_GT(g.out_degree(0), gbbs::kCompressedBlockSize);
  std::vector<vertex_id> got;
  cg.map_out_neighbors_early_exit(0, [&](vertex_id, vertex_id ngh, empty_weight) {
    got.push_back(ngh);
    return true;
  });
  ASSERT_EQ(got.size(), n - 1);
  for (vertex_id i = 0; i < n - 1; ++i) ASSERT_EQ(got[i], i + 1);
}

TEST(Compression, EarlyExitStopsDecoding) {
  const vertex_id n = 1000;
  auto g = gbbs::build_symmetric_graph<empty_weight>(n, gbbs::star_edges(n));
  auto cg = compressed_graph<empty_weight>::compress(g);
  std::size_t steps = 0;
  cg.map_out_neighbors_early_exit(0, [&](vertex_id, vertex_id, empty_weight) {
    return ++steps < 10;
  });
  EXPECT_EQ(steps, 10u);
}

TEST(Compression, CompressionRatioBeatsCsrOnLocalGraphs) {
  // The torus has consecutive-ish neighbor ids: compressed size must be
  // well under the CSR's 4 bytes/edge (paper: <1.5 bytes/edge on crawls).
  auto g = gbbs::torus3d_symmetric(16);
  auto cg = compressed_graph<empty_weight>::compress(g);
  const double bytes_per_edge =
      static_cast<double>(cg.size_in_bytes()) / g.num_edges();
  const double csr_bytes_per_edge =
      static_cast<double>(g.size_in_bytes()) / g.num_edges();
  EXPECT_LT(bytes_per_edge, csr_bytes_per_edge);
}

TEST(Compression, FilterKeepsPredicateEdges) {
  auto g = gbbs::rmat_symmetric(9, 8000, 9);
  auto cg = compressed_graph<empty_weight>::compress(g);
  auto fg = gbbs::filter_graph(
      cg, [](vertex_id u, vertex_id v, empty_weight) { return u < v; });
  EXPECT_EQ(fg.num_edges(), g.num_edges() / 2);
  for (vertex_id v = 0; v < fg.num_vertices(); v += 7) {
    fg.map_out_neighbors_early_exit(v, [&](vertex_id src, vertex_id ngh, empty_weight) {
      EXPECT_LT(src, ngh);
      return true;
    });
  }
}

// compressed_graph::filter encodes the kept edges straight from the
// decoded rows; it must give exactly the CSR filter, weights included, also
// where rows span several blocks.
template <typename Codec>
void expect_filter_matches_csr_filter() {
  auto g = gbbs::rmat_symmetric_weighted(10, 16000, 5);
  auto pred = [](vertex_id u, vertex_id v, std::uint32_t w) {
    return (u + v + w) % 3 != 0;
  };
  auto want = gbbs::filter_graph(g, pred);
  vertex_id max_degree = 0;
  for (vertex_id v = 0; v < want.num_vertices(); ++v) {
    max_degree = std::max(max_degree, want.out_degree(v));
  }
  ASSERT_GT(max_degree, gbbs::kCompressedBlockSize);
  auto got = compressed_graph<std::uint32_t, Codec>::compress(g)
                 .filter(pred)
                 .decompress();
  EXPECT_TRUE(got.symmetric());
  expect_same_neighborhoods(got, want);
}

TEST(Compression, FilterMatchesCsrFilterAcrossBlocks) {
  expect_filter_matches_csr_filter<gbbs::bytecode::byte_codec>();
  expect_filter_matches_csr_filter<gbbs::bytecode::nibble_codec>();
}

// ---- nibble codec -------------------------------------------------------

TEST(NibbleCodec, UnitRoundTrip) {
  std::vector<std::uint8_t> buf(64, 0);
  std::size_t upos = 0;
  const std::vector<std::uint64_t> values = {0, 1, 7, 8, 63, 64, 1000,
                                             1u << 20, 0xFFFFFFFFull};
  for (auto v : values) {
    gbbs::bytecode::nibble_codec::encode_at(buf.data(), upos, v);
  }
  std::size_t rpos = 0;
  for (auto v : values) {
    EXPECT_EQ(gbbs::bytecode::nibble_codec::decode(buf.data(), rpos), v);
  }
  EXPECT_EQ(rpos, upos);
}

TEST(NibbleCodec, EncodedUnitsMatchesEncode) {
  for (std::uint64_t v : {0ull, 7ull, 8ull, 63ull, 64ull, 511ull, 512ull}) {
    std::vector<std::uint8_t> buf(32, 0);
    std::size_t upos = 0;
    gbbs::bytecode::nibble_codec::encode_at(buf.data(), upos, v);
    EXPECT_EQ(upos, gbbs::bytecode::nibble_codec::encoded_units(v)) << v;
  }
}

TEST_P(CompressionGraphs, NibbleRoundTripPreservesNeighborhoods) {
  auto g = make();
  auto cg = gbbs::nibble_compressed_graph<empty_weight>::compress(g);
  expect_same_neighborhoods(g, cg);
}

TEST(NibbleCompression, WeightedRoundTrip) {
  auto g = gbbs::rmat_symmetric_weighted(10, 16000, 5);
  auto cg = gbbs::nibble_compressed_graph<std::uint32_t>::compress(g);
  expect_same_neighborhoods(g, cg);
}

TEST(NibbleCompression, DenserThanByteOnLocalGraphs) {
  // Torus deltas are tiny: 3-bit nibble groups beat 7-bit byte groups.
  auto g = gbbs::torus3d_symmetric(16);
  auto byte_g = compressed_graph<empty_weight>::compress(g);
  auto nib_g = gbbs::nibble_compressed_graph<empty_weight>::compress(g);
  EXPECT_LT(nib_g.size_in_bytes(), byte_g.size_in_bytes());
}

TEST(NibbleCompression, AlgorithmsRunOnNibbleGraphs) {
  auto g = gbbs::rmat_symmetric(9, 8000, 13);
  auto cg = gbbs::nibble_compressed_graph<empty_weight>::compress(g);
  // Spot-check a couple of neighborhood primitives end to end.
  for (vertex_id v = 0; v + 1 < g.num_vertices(); v += 31) {
    ASSERT_EQ(g.intersect_out(v, v + 1), cg.intersect_out(v, v + 1)) << v;
  }
  auto fg = gbbs::filter_graph(
      cg, [](vertex_id u, vertex_id v, empty_weight) { return u < v; });
  EXPECT_EQ(fg.num_edges(), g.num_edges() / 2);
}

TEST(Compression, EdgesEnumerationMatches) {
  auto g = gbbs::rmat_symmetric(8, 4000, 11);
  auto cg = compressed_graph<empty_weight>::compress(g);
  auto ea = g.edges();
  auto eb = cg.edges();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].u, eb[i].u);
    ASSERT_EQ(ea[i].v, eb[i].v);
  }
}

}  // namespace

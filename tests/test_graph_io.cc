// Round-trip tests for the AdjacencyGraph text format and binary format,
// and rejection of malformed files: bad offsets, array sizes that do not
// match n or m, vertex counts past 32-bit ids and lengths longer than the
// file must throw std::runtime_error before anything is written out of
// bounds or allocated.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_io.h"

namespace {

using gbbs::vertex_id;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

template <typename G>
void expect_same_graph(const G& a, const G& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (vertex_id v = 0; v < a.num_vertices(); ++v) {
    auto na = a.out_neighbors(v);
    auto nb = b.out_neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << v;
    for (std::size_t j = 0; j < na.size(); ++j) {
      ASSERT_EQ(na[j], nb[j]) << v << " " << j;
      ASSERT_EQ(a.out_weight(v, j), b.out_weight(v, j)) << v << " " << j;
    }
  }
}

TEST(GraphIo, AdjacencyTextRoundTripSymmetric) {
  auto g = gbbs::rmat_symmetric(8, 2000, 1);
  const auto path = temp_path("adj_sym.txt");
  gbbs::write_adjacency_graph(path, g);
  auto g2 = gbbs::read_adjacency_graph(path, /*symmetric=*/true);
  expect_same_graph(g, g2);
  std::remove(path.c_str());
}

TEST(GraphIo, AdjacencyTextRoundTripDirected) {
  auto g = gbbs::rmat_directed(8, 2000, 2);
  const auto path = temp_path("adj_dir.txt");
  gbbs::write_adjacency_graph(path, g);
  auto g2 = gbbs::read_adjacency_graph(path, /*symmetric=*/false);
  expect_same_graph(g, g2);
  // In-degrees must survive the round trip too.
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.in_degree(v), g2.in_degree(v));
  }
  std::remove(path.c_str());
}

TEST(GraphIo, WeightedAdjacencyTextRoundTrip) {
  auto g = gbbs::rmat_symmetric_weighted(8, 2000, 3);
  const auto path = temp_path("adj_w.txt");
  gbbs::write_adjacency_graph(path, g);
  auto g2 = gbbs::read_weighted_adjacency_graph(path, /*symmetric=*/true);
  expect_same_graph(g, g2);
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRoundTripSymmetric) {
  auto g = gbbs::rmat_symmetric(9, 4000, 4);
  const auto path = temp_path("bin_sym.graph");
  gbbs::write_binary_graph(path, g);
  auto g2 = gbbs::read_binary_graph(path, /*symmetric=*/true);
  expect_same_graph(g, g2);
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRoundTripWeighted) {
  auto g = gbbs::rmat_symmetric_weighted(9, 4000, 5);
  const auto path = temp_path("bin_w.graph");
  gbbs::write_binary_graph(path, g);
  auto g2 = gbbs::read_weighted_binary_graph(path, /*symmetric=*/true);
  expect_same_graph(g, g2);
  std::remove(path.c_str());
}

TEST(GraphIo, WeightedAdjacencyTextRoundTripDirected) {
  auto g = gbbs::build_asymmetric_graph<std::uint32_t>(
      256, gbbs::with_random_weights(gbbs::erdos_renyi_edges(256, 1500, 7),
                                     31, 8));
  const auto path = temp_path("adj_w_dir.txt");
  gbbs::write_adjacency_graph(path, g);
  auto g2 = gbbs::read_weighted_adjacency_graph(path, /*symmetric=*/false);
  expect_same_graph(g, g2);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.in_degree(v), g2.in_degree(v));
  }
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRoundTripDirected) {
  auto g = gbbs::rmat_directed(9, 4000, 9);
  const auto path = temp_path("bin_dir.graph");
  gbbs::write_binary_graph(path, g);
  auto g2 = gbbs::read_binary_graph(path, /*symmetric=*/false);
  expect_same_graph(g, g2);
  // The in-CSR is rebuilt on read; it must transpose the same out-CSR.
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.in_degree(v), g2.in_degree(v)) << v;
    auto na = g.in_neighbors(v);
    auto nb = g2.in_neighbors(v);
    for (std::size_t j = 0; j < na.size(); ++j) ASSERT_EQ(na[j], nb[j]);
  }
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRoundTripWeightedDirected) {
  auto g = gbbs::build_asymmetric_graph<std::uint32_t>(
      512, gbbs::with_random_weights(gbbs::erdos_renyi_edges(512, 3000, 11),
                                     63, 12));
  const auto path = temp_path("bin_w_dir.graph");
  gbbs::write_binary_graph(path, g);
  auto g2 = gbbs::read_weighted_binary_graph(path, /*symmetric=*/false);
  expect_same_graph(g, g2);
  std::remove(path.c_str());
}

TEST(GraphIo, EmptyGraphRoundTrips) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(16, {});
  const auto text = temp_path("empty.txt");
  gbbs::write_adjacency_graph(text, g);
  auto g2 = gbbs::read_adjacency_graph(text, /*symmetric=*/true);
  expect_same_graph(g, g2);
  std::remove(text.c_str());
  const auto bin = temp_path("empty.graph");
  gbbs::write_binary_graph(bin, g);
  auto g3 = gbbs::read_binary_graph(bin, /*symmetric=*/true);
  expect_same_graph(g, g3);
  std::remove(bin.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(gbbs::read_adjacency_graph("/nonexistent/nowhere.txt", true),
               std::runtime_error);
  EXPECT_THROW(gbbs::read_binary_graph("/nonexistent/nowhere.bin", true),
               std::runtime_error);
}

TEST(GraphIo, WrongHeaderThrows) {
  const auto path = temp_path("bad_header.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("NotAGraph\n3\n0\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(gbbs::read_adjacency_graph(path, true), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GraphIo, WeightednessMismatchThrows) {
  auto g = gbbs::rmat_symmetric(7, 500, 6);
  const auto path = temp_path("bin_mismatch.graph");
  gbbs::write_binary_graph(path, g);
  EXPECT_THROW(gbbs::read_weighted_binary_graph(path, true),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---- malformed files ----------------------------------------------------

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

// Text files: AdjacencyGraph, then n, m, n offsets and m neighbors (plus m
// weights for WeightedAdjacencyGraph), one value a line.
void expect_text_rejected(const std::string& name, const std::string& body,
                          bool weighted = false) {
  const auto path = temp_path(name);
  write_file(path,
             (weighted ? "WeightedAdjacencyGraph\n" : "AdjacencyGraph\n") +
                 body);
  if (weighted) {
    EXPECT_THROW(gbbs::read_weighted_adjacency_graph(path, true),
                 std::runtime_error);
  } else {
    EXPECT_THROW(gbbs::read_adjacency_graph(path, true), std::runtime_error);
    EXPECT_THROW(gbbs::read_adjacency_graph(path, false), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(GraphIo, TextOffsetPastMThrows) {
  // n = 2, m = 1, offsets 0 5: vertex 0's row would cover edges[0..4].
  expect_text_rejected("t_past_m.txt", "2\n1\n0\n5\n1\n");
}

TEST(GraphIo, TextFirstOffsetNotZeroThrows) {
  expect_text_rejected("t_first.txt", "2\n2\n1\n2\n1\n0\n");
}

TEST(GraphIo, TextDecreasingOffsetsThrow) {
  expect_text_rejected("t_decr.txt", "3\n2\n0\n2\n1\n1\n0\n");
}

TEST(GraphIo, TextTooFewNeighborsThrows) {
  expect_text_rejected("t_short.txt", "2\n3\n0\n1\n1\n0\n");
  expect_text_rejected("t_short_w.txt", "2\n2\n0\n1\n1\n0\n7\n", true);
}

TEST(GraphIo, TextVertexCountPast32BitsThrows) {
  expect_text_rejected("t_big_n.txt", "4294967296\n0\n");
}

TEST(GraphIo, TextCountLargerThanFileThrows) {
  expect_text_rejected("t_big_m.txt", "2\n1000000000000\n0\n0\n");
}

// Binary files: magic, n, m, weighted flag, then each array as a 64-bit
// length followed by its elements.
struct binary_file {
  std::uint64_t n = 2;
  std::uint64_t m = 1;
  bool weighted = false;
  std::vector<std::uint64_t> offsets = {0, 1, 1};
  std::vector<std::uint32_t> nghs = {1};
  std::vector<std::uint32_t> wghs = {};
};

template <typename T>
void append(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void append_vec(std::string& out, const std::vector<T>& v) {
  append<std::uint64_t>(out, v.size());
  for (const T& x : v) append(out, x);
}

std::string encode(const binary_file& f) {
  std::string out;
  append<std::uint64_t>(out, 0x4742425347524150ULL);  // "GBBSGRAP"
  append(out, f.n);
  append(out, f.m);
  append<std::uint8_t>(out, f.weighted ? 1 : 0);
  append_vec(out, f.offsets);
  append_vec(out, f.nghs);
  if (f.weighted) append_vec(out, f.wghs);
  return out;
}

void expect_binary_rejected(const std::string& name, const binary_file& f) {
  const auto path = temp_path(name);
  write_file(path, encode(f));
  if (f.weighted) {
    EXPECT_THROW(gbbs::read_weighted_binary_graph(path, true),
                 std::runtime_error);
  } else {
    EXPECT_THROW(gbbs::read_binary_graph(path, true), std::runtime_error);
    EXPECT_THROW(gbbs::read_binary_graph(path, false), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryWellFormedFileReads) {
  // The base case every malformed file below departs from.
  const auto path = temp_path("b_ok.graph");
  write_file(path, encode(binary_file{}));
  const auto g = gbbs::read_binary_graph(path, false);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryOffsetPastMThrows) {
  binary_file f;
  f.offsets = {0, 5, 5};
  expect_binary_rejected("b_past_m.graph", f);
}

TEST(GraphIo, BinaryFirstOffsetNotZeroThrows) {
  binary_file f;
  f.offsets = {1, 1, 1};
  expect_binary_rejected("b_first.graph", f);
}

TEST(GraphIo, BinaryDecreasingOffsetsThrow) {
  binary_file f;
  f.m = 2;
  f.nghs = {1, 0};
  f.offsets = {0, 2, 1};
  expect_binary_rejected("b_decr.graph", f);
}

TEST(GraphIo, BinaryLastOffsetBelowMThrows) {
  binary_file f;
  f.offsets = {0, 0, 0};
  expect_binary_rejected("b_last.graph", f);
}

TEST(GraphIo, BinaryOffsetsSizeMismatchThrows) {
  binary_file f;
  f.offsets = {0, 1};
  expect_binary_rejected("b_offsets_size.graph", f);
}

TEST(GraphIo, BinaryNeighborsSizeMismatchThrows) {
  binary_file f;
  f.nghs = {1, 0, 1};
  expect_binary_rejected("b_nghs_size.graph", f);
}

TEST(GraphIo, BinaryWeightsSizeMismatchThrows) {
  binary_file f;
  f.weighted = true;
  f.wghs = {};
  expect_binary_rejected("b_wghs_size.graph", f);
}

TEST(GraphIo, BinaryVertexCountPast32BitsThrows) {
  binary_file f;
  f.n = std::uint64_t{1} << 32;
  expect_binary_rejected("b_big_n.graph", f);
}

TEST(GraphIo, BinaryLengthLargerThanFileThrows) {
  // A neighbor array that claims 2^40 entries and holds one.
  auto bytes = encode(binary_file{});
  const std::size_t len_at = bytes.size() - sizeof(std::uint32_t) -
                             sizeof(std::uint64_t);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  bytes.replace(len_at, sizeof(huge), reinterpret_cast<const char*>(&huge),
                sizeof(huge));
  const auto path = temp_path("b_big_len.graph");
  write_file(path, bytes);
  EXPECT_THROW(gbbs::read_binary_graph(path, true), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace

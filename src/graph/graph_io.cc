#include "graph/graph_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/graph_builder.h"

namespace gbbs {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x4742425347524150ULL;  // "GBBSGRAP"

template <typename W>
void write_adjacency_impl(const std::string& path, const graph<W>& g,
                          const char* header) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << header << "\n" << g.num_vertices() << "\n" << g.num_edges() << "\n";
  edge_id off = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    out << off << "\n";
    off += g.out_degree(v);
  }
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_id u : g.out_neighbors(v)) out << u << "\n";
  }
  if constexpr (!std::is_same_v<W, empty_weight>) {
    for (vertex_id v = 0; v < g.num_vertices(); ++v) {
      for (std::size_t j = 0; j < g.out_degree(v); ++j) {
        out << g.out_weight(v, j) << "\n";
      }
    }
  }
}

// Bytes between the read position and the end of the file (0 once the
// stream has failed).
std::uint64_t bytes_left(std::ifstream& in) {
  const auto here = in.tellg();
  if (here < 0) return 0;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

void check_vertex_count(std::uint64_t n, const std::string& path) {
  if (n > kNoVertex) {
    throw std::runtime_error("vertex count exceeds 32-bit ids in " + path);
  }
}

// Validate a file's CSR and rebuild it through the edge-list path, so the
// invariants (sorted, deduped, in-CSR for asymmetric) hold regardless of
// the file's ordering. Offsets must have n + 1 entries, start at 0, never
// decrease and end at m, and every array must hold m entries: anything
// else would index rows outside the neighbor array.
template <typename W>
graph<W> graph_from_file_csr(const std::string& path, bool symmetric,
                             std::uint64_t n, std::uint64_t m,
                             const std::vector<edge_id>& offsets,
                             const std::vector<vertex_id>& nghs,
                             const std::vector<W>& wghs) {
  if (offsets.size() != n + 1 || nghs.size() != m ||
      (!std::is_same_v<W, empty_weight> && wghs.size() != m)) {
    throw std::runtime_error("array sizes do not match n and m in " + path);
  }
  if (offsets[0] != 0 || offsets[n] != m) {
    throw std::runtime_error("offsets do not span [0, m] in " + path);
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      throw std::runtime_error("decreasing offsets in " + path);
    }
  }
  std::vector<edge<W>> edges(m);
  for (std::uint64_t v = 0; v < n; ++v) {
    for (edge_id e = offsets[v]; e < offsets[v + 1]; ++e) {
      if constexpr (std::is_same_v<W, empty_weight>) {
        edges[e] = {static_cast<vertex_id>(v), nghs[e], {}};
      } else {
        edges[e] = {static_cast<vertex_id>(v), nghs[e], wghs[e]};
      }
    }
  }
  if (symmetric) {
    return build_symmetric_graph<W>(static_cast<vertex_id>(n),
                                    std::move(edges));
  }
  return build_asymmetric_graph<W>(static_cast<vertex_id>(n),
                                   std::move(edges));
}

template <typename W>
graph<W> read_adjacency_impl(const std::string& path, bool symmetric,
                             const char* expected_header) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string header;
  in >> header;
  if (header != expected_header) {
    throw std::runtime_error("bad header in " + path + ": " + header);
  }
  std::uint64_t n = 0, m = 0;
  in >> n >> m;
  check_vertex_count(n, path);
  // Every value takes at least one byte: a count the file cannot hold is
  // rejected before it is allocated.
  const std::uint64_t left = bytes_left(in);
  const std::uint64_t arrays = std::is_same_v<W, empty_weight> ? 1 : 2;
  if (!in || m > left || n + arrays * m > left) {
    throw std::runtime_error("truncated graph file " + path);
  }
  std::vector<edge_id> offsets(n + 1);
  for (std::uint64_t v = 0; v < n; ++v) in >> offsets[v];
  offsets[n] = m;
  std::vector<vertex_id> nghs(m);
  for (std::uint64_t e = 0; e < m; ++e) in >> nghs[e];
  std::vector<W> wghs;
  if constexpr (!std::is_same_v<W, empty_weight>) {
    wghs.resize(m);
    for (std::uint64_t e = 0; e < m; ++e) in >> wghs[e];
  }
  if (!in) throw std::runtime_error("truncated graph file " + path);
  return graph_from_file_csr(path, symmetric, n, m, offsets, nghs, wghs);
}

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  const std::uint64_t len = v.size();
  write_pod(out, len);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(len * sizeof(T)));
}

template <typename T>
T read_pod(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

// A length-prefixed array; a length longer than the rest of the file is
// rejected before it is allocated.
template <typename T>
std::vector<T> read_vec(std::ifstream& in, const std::string& path) {
  const auto len = read_pod<std::uint64_t>(in);
  if (!in || len > bytes_left(in) / sizeof(T)) {
    throw std::runtime_error("truncated graph file " + path);
  }
  std::vector<T> v(len);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(len * sizeof(T)));
  return v;
}

template <typename W>
void write_binary_impl(const std::string& path, const graph<W>& g) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  const auto c = layout_csr(g);
  write_pod(out, kBinaryMagic);
  write_pod<std::uint64_t>(out, g.num_vertices());
  write_pod<std::uint64_t>(out, c.nghs.size());
  const bool weighted = !std::is_same_v<W, empty_weight>;
  write_pod<std::uint8_t>(out, weighted ? 1 : 0);
  write_vec(out, c.offsets);
  write_vec(out, c.nghs);
  if constexpr (!std::is_same_v<W, empty_weight>) write_vec(out, c.wghs);
}

template <typename W>
graph<W> read_binary_impl(const std::string& path, bool symmetric) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  if (read_pod<std::uint64_t>(in) != kBinaryMagic) {
    throw std::runtime_error("bad magic in " + path);
  }
  const auto n = read_pod<std::uint64_t>(in);
  const auto m = read_pod<std::uint64_t>(in);
  const auto weighted = read_pod<std::uint8_t>(in);
  if (weighted != (std::is_same_v<W, empty_weight> ? 0 : 1)) {
    throw std::runtime_error("weightedness mismatch in " + path);
  }
  check_vertex_count(n, path);
  auto offsets = read_vec<edge_id>(in, path);
  auto nghs = read_vec<vertex_id>(in, path);
  std::vector<W> wghs;
  if constexpr (!std::is_same_v<W, empty_weight>) wghs = read_vec<W>(in, path);
  if (!in) throw std::runtime_error("truncated graph file " + path);
  return graph_from_file_csr(path, symmetric, n, m, offsets, nghs, wghs);
}

}  // namespace

void write_adjacency_graph(const std::string& path,
                           const graph<empty_weight>& g) {
  write_adjacency_impl(path, g, "AdjacencyGraph");
}

void write_adjacency_graph(const std::string& path,
                           const graph<std::uint32_t>& g) {
  write_adjacency_impl(path, g, "WeightedAdjacencyGraph");
}

graph<empty_weight> read_adjacency_graph(const std::string& path,
                                         bool symmetric) {
  return read_adjacency_impl<empty_weight>(path, symmetric, "AdjacencyGraph");
}

graph<std::uint32_t> read_weighted_adjacency_graph(const std::string& path,
                                                   bool symmetric) {
  return read_adjacency_impl<std::uint32_t>(path, symmetric,
                                            "WeightedAdjacencyGraph");
}

void write_binary_graph(const std::string& path,
                        const graph<empty_weight>& g) {
  write_binary_impl(path, g);
}

void write_binary_graph(const std::string& path,
                        const graph<std::uint32_t>& g) {
  write_binary_impl(path, g);
}

graph<empty_weight> read_binary_graph(const std::string& path,
                                      bool symmetric) {
  return read_binary_impl<empty_weight>(path, symmetric);
}

graph<std::uint32_t> read_weighted_binary_graph(const std::string& path,
                                                bool symmetric) {
  return read_binary_impl<std::uint32_t>(path, symmetric);
}

}  // namespace gbbs

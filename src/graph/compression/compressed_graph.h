// Parallel-byte / parallel-nibble compressed graphs (Ligra+, Sections 5-6
// and B).
//
// Each neighbor list is difference-encoded in blocks of kBlockSize
// neighbors. The first element of each block is encoded relative to the
// source vertex (signed, zigzag); subsequent elements store the gap to
// their predecessor. Because every block can be decoded independently, the
// neighborhood primitives (map, map_reduce, filter/pack, intersect) achieve
// the work/depth bounds of Section B: parallel across blocks, sequential
// (constant-size) within a block. A per-vertex header stores the code-unit
// offsets of blocks 1.. so a block's data can be located in O(1).
//
// The Codec policy selects the code: bytecode::byte_codec (7+1 bits per
// byte, Ligra+'s default) or bytecode::nibble_codec (3+1 bits per nibble,
// denser on highly local graphs). Vertex regions are byte-aligned, so
// parallel per-vertex encoding never races on shared bytes.
//
// Weighted graphs interleave a weight code after each neighbor code.
//
// The class exposes the same neighborhood interface as gbbs::graph, so every
// algorithm template in src/algorithms runs unchanged on compressed inputs
// (the paper's Table 5 configuration).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/compression/byte_codes.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "parlib/monoid.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

inline constexpr std::size_t kCompressedBlockSize = 128;

namespace compression_internal {

inline void write_u32(std::uint8_t* data, std::size_t pos, std::uint32_t v) {
  std::memcpy(data + pos, &v, sizeof(v));
}

inline std::uint32_t read_u32(const std::uint8_t* data, std::size_t pos) {
  std::uint32_t v;
  std::memcpy(&v, data + pos, sizeof(v));
  return v;
}

template <typename W>
constexpr bool is_weighted() {
  return !std::is_same_v<W, empty_weight>;
}

// Encoded size of one adjacency list: its degree, and its bytes (the
// block-offset header plus the code units of all deltas and weights).
// `row(v, emit)` calls emit(neighbor, weight) on v's list in order.
template <typename W, typename Codec, typename Row>
std::pair<vertex_id, std::size_t> list_encoded_size(vertex_id v,
                                                    const Row& row) {
  vertex_id deg = 0;
  std::size_t units = 0;
  vertex_id prev = 0;
  row(v, [&](vertex_id ngh, W w) {
    if (deg % kCompressedBlockSize == 0) {
      units += Codec::encoded_units(bytecode::zigzag_encode(
          static_cast<std::int64_t>(ngh) - static_cast<std::int64_t>(v)));
    } else {
      units += Codec::encoded_units(ngh - prev);
    }
    if constexpr (is_weighted<W>()) {
      units += Codec::encoded_units(w);
    } else {
      (void)w;
    }
    prev = ngh;
    ++deg;
  });
  if (deg == 0) return {0, 0};
  const std::size_t nb = (deg - 1) / kCompressedBlockSize + 1;
  return {deg, 4 * (nb - 1) + Codec::bytes_for_units(units)};
}

// Encode v's list of `deg` neighbors (as `row` emits it) into data[start..].
// Layout: header of 4*(nb-1) bytes holding the unit offset of blocks
// 1..nb-1 within the data region, followed by the (byte-aligned) data
// region of code units.
template <typename W, typename Codec, typename Row>
void encode_list(std::uint8_t* data, std::size_t start, vertex_id v,
                 vertex_id deg, const Row& row) {
  if (deg == 0) return;
  const std::size_t nb = (deg - 1) / kCompressedBlockSize + 1;
  const std::size_t header_bytes = 4 * (nb - 1);
  std::uint8_t* region = data + start + header_bytes;
  std::size_t upos = 0;
  vertex_id prev = 0;
  vertex_id j = 0;
  row(v, [&](vertex_id ngh, W w) {
    if (j % kCompressedBlockSize == 0) {
      const std::size_t block = j / kCompressedBlockSize;
      if (block > 0) {
        write_u32(data, start + 4 * (block - 1),
                  static_cast<std::uint32_t>(upos));
      }
      Codec::encode_at(region, upos,
                       bytecode::zigzag_encode(
                           static_cast<std::int64_t>(ngh) -
                           static_cast<std::int64_t>(v)));
    } else {
      Codec::encode_at(region, upos, ngh - prev);
    }
    if constexpr (is_weighted<W>()) {
      Codec::encode_at(region, upos, w);
    } else {
      (void)w;
    }
    prev = ngh;
    ++j;
  });
}

// One compressed direction (out or in) of a graph.
template <typename W, typename Codec>
struct compressed_side {
  std::vector<vertex_id> degrees;
  std::vector<std::uint64_t> offsets;  // byte offset per vertex, size n+1
  std::vector<std::uint8_t> bytes;

  vertex_id degree(vertex_id v) const { return degrees[v]; }

  std::size_t num_list_blocks(vertex_id v) const {
    const vertex_id d = degrees[v];
    return d == 0 ? 0 : (d - 1) / kCompressedBlockSize + 1;
  }

  // Decode block b of v, applying f(j, ngh, w) for the in-block index j
  // (absolute position = b * kCompressedBlockSize + j). f returns bool:
  // false stops the block decode.
  template <typename F>
  void decode_block(vertex_id v, std::size_t b, const F& f) const {
    const vertex_id deg = degrees[v];
    const std::size_t nb = num_list_blocks(v);
    const std::size_t start = offsets[v];
    const std::size_t header_bytes = 4 * (nb - 1);
    const std::uint8_t* region = bytes.data() + start + header_bytes;
    std::size_t upos =
        b > 0 ? read_u32(bytes.data(), start + 4 * (b - 1)) : 0;
    const vertex_id j_lo = static_cast<vertex_id>(b * kCompressedBlockSize);
    const vertex_id j_hi = std::min<vertex_id>(
        deg, static_cast<vertex_id>((b + 1) * kCompressedBlockSize));
    vertex_id prev = 0;
    for (vertex_id j = j_lo; j < j_hi; ++j) {
      vertex_id ngh;
      if (j == j_lo) {
        ngh = static_cast<vertex_id>(
            static_cast<std::int64_t>(v) +
            bytecode::zigzag_decode(Codec::decode(region, upos)));
      } else {
        ngh = prev + static_cast<vertex_id>(Codec::decode(region, upos));
      }
      W w{};
      if constexpr (is_weighted<W>()) {
        w = static_cast<W>(Codec::decode(region, upos));
      }
      prev = ngh;
      if (!f(static_cast<std::size_t>(j - j_lo), ngh, w)) return;
    }
  }
};

// Sequential cursor over a compressed neighbor list (for merges).
template <typename W, typename Codec>
class neighbor_cursor {
 public:
  neighbor_cursor(const compressed_side<W, Codec>& side, vertex_id v)
      : side_(&side), v_(v), deg_(side.degree(v)) {
    if (deg_ > 0) load_block(0);
  }

  bool done() const { return j_ >= deg_; }
  vertex_id value() const { return buf_[j_ - block_lo_]; }

  void advance() {
    ++j_;
    if (!done() && j_ - block_lo_ >= block_len_) {
      load_block(j_ / kCompressedBlockSize);
    }
  }

 private:
  void load_block(std::size_t b) {
    block_lo_ = static_cast<vertex_id>(b * kCompressedBlockSize);
    block_len_ = 0;
    side_->decode_block(v_, b, [&](std::size_t j, vertex_id ngh, W) {
      buf_[j] = ngh;
      ++block_len_;
      return true;
    });
  }

  const compressed_side<W, Codec>* side_;
  vertex_id v_;
  vertex_id deg_;
  vertex_id j_ = 0;
  vertex_id block_lo_ = 0;
  std::size_t block_len_ = 0;
  vertex_id buf_[kCompressedBlockSize];
};

}  // namespace compression_internal

template <typename W, typename Codec = bytecode::byte_codec>
class compressed_graph {
 public:
  using weight_type = W;
  using codec_type = Codec;

  compressed_graph() = default;

  vertex_id num_vertices() const { return n_; }
  edge_id num_edges() const { return m_; }
  bool symmetric() const { return symmetric_; }

  vertex_id out_degree(vertex_id v) const { return out_.degree(v); }
  vertex_id in_degree(vertex_id v) const {
    return symmetric_ ? out_.degree(v) : in_.degree(v);
  }

  template <typename F>
  void map_out_neighbors(vertex_id v, const F& f, bool par = true) const {
    map_side(out_, v, f, par);
  }
  template <typename F>
  void map_in_neighbors(vertex_id v, const F& f, bool par = true) const {
    map_side(symmetric_ ? out_ : in_, v, f, par);
  }

  template <typename F>
  void map_out_neighbors_early_exit(vertex_id v, const F& f) const {
    decode_break_side(out_, v, f);
  }
  template <typename F>
  void map_in_neighbors_early_exit(vertex_id v, const F& f) const {
    decode_break_side(symmetric_ ? out_ : in_, v, f);
  }

  template <typename F>
  void map_out_neighbors_range(vertex_id v, std::size_t j_lo, std::size_t j_hi,
                     const F& f) const {
    map_side_range(out_, v, j_lo, j_hi, f);
  }
  template <typename F>
  void map_in_neighbors_range(vertex_id v, std::size_t j_lo, std::size_t j_hi,
                              const F& f) const {
    map_side_range(symmetric_ ? out_ : in_, v, j_lo, j_hi, f);
  }

  template <typename M, typename F>
  typename M::value_type reduce_out(vertex_id v, const F& f,
                                    const M& monoid) const {
    typename M::value_type acc = monoid.identity;
    map_out_neighbors_early_exit(v, [&](vertex_id src, vertex_id ngh, W w) {
      acc = monoid.combine(acc, f(src, ngh, w));
      return true;
    });
    return acc;
  }

  template <typename F>
  std::size_t count_out(vertex_id v, const F& pred) const {
    std::size_t c = 0;
    map_out_neighbors_early_exit(v, [&](vertex_id src, vertex_id ngh, W w) {
      c += pred(src, ngh, w) ? 1 : 0;
      return true;
    });
    return c;
  }

  // Sorted-merge intersection over two compressed lists, decoding each block
  // at most once (Section B's Intersection primitive).
  std::size_t intersect_out(vertex_id u, vertex_id v) const {
    compression_internal::neighbor_cursor<W, Codec> a(out_, u), b(out_, v);
    std::size_t c = 0;
    while (!a.done() && !b.done()) {
      if (a.value() < b.value()) {
        a.advance();
      } else if (a.value() > b.value()) {
        b.advance();
      } else {
        ++c;
        a.advance();
        b.advance();
      }
    }
    return c;
  }

  std::vector<edge<W>> edges() const {
    auto degs = parlib::tabulate<edge_id>(n_, [&](std::size_t v) {
      return out_.degree(static_cast<vertex_id>(v));
    });
    const edge_id total = parlib::scan_inplace(degs);
    std::vector<edge<W>> out(total);
    parlib::parallel_for(0, n_, [&](std::size_t v) {
      std::size_t k = degs[v];
      map_out_neighbors_early_exit(static_cast<vertex_id>(v),
                       [&](vertex_id src, vertex_id ngh, W w) {
                         out[k++] = {src, ngh, w};
                         return true;
                       });
    });
    return out;
  }

  std::size_t size_in_bytes() const {
    auto side_bytes =
        [](const compression_internal::compressed_side<W, Codec>& s) {
          return s.bytes.size() + s.offsets.size() * sizeof(std::uint64_t) +
                 s.degrees.size() * sizeof(vertex_id);
        };
    return side_bytes(out_) + (symmetric_ ? 0 : side_bytes(in_));
  }

  // Build by compressing an uncompressed graph (parallel two-pass).
  static compressed_graph compress(const graph<W>& g) {
    compressed_graph cg;
    cg.n_ = g.num_vertices();
    cg.m_ = g.num_edges();
    cg.symmetric_ = g.symmetric();
    encode_side(cg.out_, cg.n_, [&](vertex_id v, const auto& emit) {
      g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, W w) {
        emit(u, w);
        return true;
      });
    });
    if (!cg.symmetric_) {
      encode_side(cg.in_, cg.n_, [&](vertex_id v, const auto& emit) {
        g.map_in_neighbors_early_exit(v, [&](vertex_id, vertex_id u, W w) {
          emit(u, w);
          return true;
        });
      });
    }
    return cg;
  }

  // Decompress back to CSR (tests round-trip through this).
  graph<W> decompress() const { return copy_csr(*this); }

  // Filtered copy: keep out-edges satisfying pred. Weighted lists keep their
  // weights. The result is out-CSR only (symmetric flag set), mirroring
  // filter_graph for uncompressed graphs.
  template <typename F>
  compressed_graph filter(const F& pred) const {
    compressed_graph cg;
    cg.n_ = n_;
    cg.symmetric_ = true;
    encode_side(cg.out_, n_, [&](vertex_id v, const auto& emit) {
      map_out_neighbors_early_exit(v, [&](vertex_id src, vertex_id ngh, W w) {
        if (pred(src, ngh, w)) emit(ngh, w);
        return true;
      });
    });
    auto degs64 = parlib::map(cg.out_.degrees, [](vertex_id d) {
      return static_cast<edge_id>(d);
    });
    cg.m_ = parlib::reduce_add(degs64);
    return cg;
  }

 private:
  // Lays out one side from row visitors (see list_encoded_size): degrees
  // and byte sizes in one parallel pass, a scan into byte offsets, then a
  // parallel encode of every row into its own byte range.
  template <typename Row>
  static void encode_side(
      compression_internal::compressed_side<W, Codec>& side, vertex_id n,
      const Row& row) {
    side.degrees.resize(n);
    side.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    parlib::parallel_for(0, n, [&](std::size_t vi) {
      const auto [deg, bytes] =
          compression_internal::list_encoded_size<W, Codec>(
              static_cast<vertex_id>(vi), row);
      side.degrees[vi] = deg;
      side.offsets[vi] = bytes;
    });
    side.bytes.assign(parlib::scan_inplace(side.offsets), 0);
    parlib::parallel_for(0, n, [&](std::size_t vi) {
      compression_internal::encode_list<W, Codec>(
          side.bytes.data(), side.offsets[vi], static_cast<vertex_id>(vi),
          side.degrees[vi], row);
    });
  }

  template <typename F>
  void map_side(const compression_internal::compressed_side<W, Codec>& side,
                vertex_id v, const F& f, bool par) const {
    const std::size_t nb = side.num_list_blocks(v);
    auto body = [&](std::size_t b) {
      side.decode_block(v, b, [&](std::size_t, vertex_id ngh, W w) {
        f(v, ngh, w);
        return true;
      });
    };
    if (par && nb > 4) {
      parlib::parallel_for(0, nb, body, 1);
    } else {
      for (std::size_t b = 0; b < nb; ++b) body(b);
    }
  }

  // f over positions [j_lo, j_hi) of v's list on `side`, decoding only the
  // blocks that overlap the range.
  template <typename F>
  void map_side_range(
      const compression_internal::compressed_side<W, Codec>& side,
      vertex_id v, std::size_t j_lo, std::size_t j_hi, const F& f) const {
    j_hi = std::min<std::size_t>(j_hi, side.degree(v));
    if (j_lo >= j_hi) return;
    const std::size_t b_lo = j_lo / kCompressedBlockSize;
    const std::size_t b_hi = (j_hi - 1) / kCompressedBlockSize;
    for (std::size_t b = b_lo; b <= b_hi; ++b) {
      const std::size_t base = b * kCompressedBlockSize;
      side.decode_block(v, b, [&](std::size_t j, vertex_id ngh, W w) {
        const std::size_t abs = base + j;
        if (abs >= j_hi) return false;
        if (abs >= j_lo) f(v, ngh, w);
        return true;
      });
    }
  }

  template <typename F>
  void decode_break_side(
      const compression_internal::compressed_side<W, Codec>& side,
      vertex_id v, const F& f) const {
    const std::size_t nb = side.num_list_blocks(v);
    for (std::size_t b = 0; b < nb; ++b) {
      bool keep_going = true;
      side.decode_block(v, b, [&](std::size_t, vertex_id ngh, W w) {
        keep_going = f(v, ngh, w);
        return keep_going;
      });
      if (!keep_going) return;
    }
  }

  vertex_id n_ = 0;
  edge_id m_ = 0;
  bool symmetric_ = true;
  compression_internal::compressed_side<W, Codec> out_;
  compression_internal::compressed_side<W, Codec> in_;
};

template <typename W>
using nibble_compressed_graph = compressed_graph<W, bytecode::nibble_codec>;

// filter_graph overload so algorithm templates work on both graph kinds.
template <typename W, typename Codec, typename F>
compressed_graph<W, Codec> filter_graph(const compressed_graph<W, Codec>& g,
                                        const F& pred) {
  return g.filter(pred);
}

// The compressed CSR models the same traversal concept as the plain one.
static_assert(graph_view<compressed_graph<empty_weight>>);
static_assert(graph_view<compressed_graph<std::uint32_t>>);
static_assert(graph_view<nibble_compressed_graph<empty_weight>>);

}  // namespace gbbs

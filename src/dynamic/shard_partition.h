// Vertex-range sharding for the multi-writer ingest path (Schulz,
// *Scalable Graph Algorithms*: contiguous vertex-range partitions keep a
// shard's rows cache-local and make ownership a shift + modulo, not a
// lookup table).
//
// Ownership is block-cyclic: vertex u belongs to shard
// (u >> block_bits) % num_shards — contiguous blocks of 2^block_bits
// vertices assigned round-robin, so the assignment is stable as the
// vertex set grows (appending ids never reassigns an existing vertex) and
// a growing graph stays balanced without knowing its final size.
//
// The double-booking invariant: a normalized batch is split so every
// directed update (u, v) goes to owner(u). Symmetric batches are already
// mirrored (make_batch emits both (u, v) and (v, u)), so a cross-shard
// edge is double-booked — owner(u) gets the u-row entry, owner(v) the
// v-row entry — and each shard's out/in rows stay locally complete: any
// row a shard owns can be served (point reads) or traversed (analytics
// stitching) without touching another shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dynamic/update_batch.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs::dynamic {

class shard_partition {
 public:
  // Blocks of 256 vertices by default: big enough that a shard's rows
  // cluster (offsets/degree arrays stay cache-friendly per block), small
  // enough that modest test graphs still spread across every shard.
  shard_partition() = default;
  explicit shard_partition(std::size_t num_shards,
                           std::uint32_t block_bits = 8)
      : num_shards_(num_shards == 0 ? 1 : num_shards),
        block_bits_(block_bits) {}

  std::size_t num_shards() const { return num_shards_; }
  std::uint32_t block_bits() const { return block_bits_; }

  std::size_t owner(vertex_id u) const {
    return (static_cast<std::size_t>(u) >> block_bits_) % num_shards_;
  }

 private:
  std::size_t num_shards_ = 1;
  std::uint32_t block_bits_ = 8;
};

// Split a normalized batch into one sub-batch per shard by owner(u).
// Each sub-batch is a filtered subsequence of the (u, v)-sorted input, so
// it stays normalized (sorted, deduped, self-loop-free) and can be fed to
// dynamic_graph::apply_batch directly — no re-normalization per shard.
// Every sub-batch carries the *global* max_vertex so all shards grow
// their vertex sets in lockstep (a composite view needs equal n).
template <typename W>
std::vector<update_batch<W>> split_batch(const update_batch<W>& batch,
                                         const shard_partition& part) {
  std::vector<update_batch<W>> out(part.num_shards());
  if (part.num_shards() == 1) {
    out[0] = batch;
    return out;
  }
  const auto& ups = batch.updates;
  for (std::size_t s = 0; s < part.num_shards(); ++s) {
    auto keep = parlib::tabulate<std::uint8_t>(ups.size(), [&](std::size_t i) {
      return static_cast<std::uint8_t>(part.owner(ups[i].u) == s);
    });
    out[s].updates = parlib::pack(ups, keep);
    out[s].max_vertex = batch.max_vertex;
  }
  return out;
}

// Split a symmetric seed CSR into per-shard CSRs: shard s keeps the full
// vertex id space but only the rows it owns (every other row is empty).
// The union of the shards' rows is exactly the seed — each directed edge
// (u, v) lives in owner(u)'s block only. The pieces are marked symmetric
// (they carry no in-CSR), as the sharded path is.
template <typename W>
std::vector<gbbs::graph<W>> split_seed(const gbbs::graph<W>& seed,
                                       const shard_partition& part) {
  const vertex_id n = seed.num_vertices();
  std::vector<gbbs::graph<W>> out;
  out.reserve(part.num_shards());
  for (std::size_t s = 0; s < part.num_shards(); ++s) {
    out.push_back(graph_from_csr(
        n, /*symmetric=*/true,
        layout_csr(seed, [&](vertex_id u, vertex_id, W) {
          return part.owner(u) == s;
        })));
  }
  return out;
}

}  // namespace gbbs::dynamic

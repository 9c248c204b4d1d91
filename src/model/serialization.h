#ifndef MLQ_MODEL_SERIALIZATION_H_
#define MLQ_MODEL_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/static_histogram.h"
#include "quadtree/memory_limited_quadtree.h"

namespace mlq {

// Catalog persistence for cost models.
//
// An ORDBMS keeps its cost models in the system catalog so they survive
// restarts; MLQ is explicitly designed so its serialized form is what the
// memory budget is charged against. This module provides a compact,
// versioned, byte-oriented encoding of a memory-limited quadtree (current
// format, version 2 — a flat image of the node pool):
//
//   [magic u32][version u16][dims u8][strategy u8]
//   [max_depth i32][alpha f64][gamma f64][beta i64][budget i64]
//   [space lo f64 x dims][space hi f64 x dims]
//   [compressed_once u8]
//   [num_nodes u32]
//   node record x num_nodes, pre-order:
//     [parent_record u32 (0xFFFFFFFF for the root)][quadrant u8]
//     [sum f64][count i64][sum_squares f64]
//
// Records reference their parent by record number, mirroring the 32-bit
// arena indices of the in-memory NodePool; the reader reserves the exact
// node count up front and rebuilds without recursion. Version 1 (recursive
// per-node child counts) is still read for old catalogs; unknown versions
// are an explicit "unsupported version" error. No pointers are stored.
//
// Trees with windowed-summary decay enabled (MlqConfig::decay_half_life
// > 0) serialize as version 3: the header gains
// [decay_half_life f64][decay_epoch u32] after [compressed_once u8] and
// each node record a trailing [decay_epoch u32]. Decay-off trees emit
// byte-identical version-2 images, and v1/v2 snapshots load as no-decay
// (every epoch 0) — see docs/drift.md.

// Serializes the tree (structure + summaries + config) into bytes.
std::vector<uint8_t> SerializeQuadtree(const MemoryLimitedQuadtree& tree);

// Reconstructs a tree from bytes produced by SerializeQuadtree. Returns
// nullptr (and fills *error when non-null) on malformed input: bad magic,
// unsupported version, truncation, or structural violations (child index
// out of range, duplicate children, depth over max_depth).
std::unique_ptr<MemoryLimitedQuadtree> DeserializeQuadtree(
    const std::vector<uint8_t>& bytes, std::string* error = nullptr);

// Same, rebuilding the tree on a shared node arena (fanout must match the
// serialized dimensionality). Records are renumbered to pre-order visit
// order on write, so the byte image is independent of arena layout:
// serialize → deserialize round-trips bit-identically between private and
// shared arenas. The load validates the new tree's own structure but not
// the rest of the arena, so other trees on it may keep serving meanwhile.
std::unique_ptr<MemoryLimitedQuadtree> DeserializeQuadtree(
    const std::vector<uint8_t>& bytes, std::shared_ptr<SharedNodeArena> arena,
    std::string* error = nullptr);

// Convenience file I/O. Returns false on filesystem errors.
bool SaveQuadtreeToFile(const MemoryLimitedQuadtree& tree,
                        const std::string& path);
std::unique_ptr<MemoryLimitedQuadtree> LoadQuadtreeFromFile(
    const std::string& path, std::string* error = nullptr);

// The SH baselines persist too (a DBMS catalog stores whatever the cost
// model is). Encoding:
//   [magic u32][version u16][kind u8: 0 = SH-W, 1 = SH-H][dims u8]
//   [budget i64][intervals i32][trained u8]
//   [space lo/hi f64 x dims]
//   per dim: [boundary f64 x (intervals - 1)]
//   [global_avg f64]
//   per bucket: [avg f64][count i64]
// Untrained histograms serialize the header only.
std::vector<uint8_t> SerializeHistogram(const StaticHistogram& histogram);
std::unique_ptr<StaticHistogram> DeserializeHistogram(
    const std::vector<uint8_t>& bytes, std::string* error = nullptr);

}  // namespace mlq

#endif  // MLQ_MODEL_SERIALIZATION_H_

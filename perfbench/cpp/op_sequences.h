#ifndef PERFBENCH_OP_SEQUENCES_H_
#define PERFBENCH_OP_SEQUENCES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/geometry.h"

// Seeded, pre-generated inputs for the workloads. Everything here is a pure
// function of its arguments: the same seed gives the same op sequence.
namespace perfbench {

// A uniformly random permutation of [0, n) (Fisher-Yates over the seeded
// library RNG). catalog_fleet maps Zipf rank r to registration index
// perm[r], so the hot models are scattered through the catalog.
std::vector<uint32_t> SeededPermutation(uint32_t n, uint64_t seed);

// `chunks` back-to-back runs of the paper's Gaussian-sequential workload
// (Section 5.1: 3 centroids, sigma = 5% of each extent, n/3 consecutive
// points per centroid) over a 4-D space, each chunk with its own centroids.
// `layout_seed` places the centroids and `sample_seed` draws the points
// around them. Stored as floats: 16 bytes a point keeps long streams small.
using Point4f = std::array<float, 4>;
std::vector<Point4f> PaperStreamPoints(const mlq::Box& space, int chunks,
                                       int points_per_chunk,
                                       uint64_t layout_seed,
                                       uint64_t sample_seed);

// One catalog_fleet op: which model (registration index), which point of
// the shared point pool, and the pass outcome fed back if the op writes.
struct FleetOp {
  uint32_t model = 0;
  uint32_t point = 0;
  bool passed = false;
};

// `count` fleet ops: models drawn from Zipf(z) over `permutation.size()`
// ranks and mapped through `permutation`, points uniform over
// [0, num_points), pass outcomes Bernoulli(0.3).
std::vector<FleetOp> FleetOps(const std::vector<uint32_t>& permutation,
                              double zipf_z, uint32_t num_points, size_t count,
                              uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_OP_SEQUENCES_H_

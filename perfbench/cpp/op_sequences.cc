#include "op_sequences.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/zipf.h"
#include "harness.h"

namespace perfbench {

std::vector<uint32_t> SeededPermutation(uint32_t n, uint64_t seed) {
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  mlq::Rng rng(seed);
  for (uint32_t i = n; i > 1; --i) {
    const auto j = static_cast<uint32_t>(rng.UniformInt(0, i - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<Point4f> PaperStreamPoints(const mlq::Box& space, int chunks,
                                       int points_per_chunk,
                                       uint64_t layout_seed,
                                       uint64_t sample_seed) {
  constexpr int kCentroids = 3;
  constexpr double kStddevFrac = 0.05;
  std::vector<Point4f> points;
  points.reserve(static_cast<size_t>(chunks) * points_per_chunk);
  for (int c = 0; c < chunks; ++c) {
    mlq::Rng layout(MixSeed(layout_seed, static_cast<uint64_t>(c)));
    mlq::Rng sample(MixSeed(sample_seed, static_cast<uint64_t>(c)));
    Point4f centroids[kCentroids];
    for (Point4f& centroid : centroids) {
      for (int d = 0; d < 4; ++d) {
        centroid[d] = static_cast<float>(
            layout.Uniform(space.lo()[d], space.hi()[d]));
      }
    }
    const int per_centroid = points_per_chunk / kCentroids;
    for (int i = 0; i < points_per_chunk; ++i) {
      const Point4f& centroid = centroids[std::min(i / per_centroid,
                                                   kCentroids - 1)];
      Point4f p;
      for (int d = 0; d < 4; ++d) {
        p[d] = static_cast<float>(std::clamp(
            sample.Gaussian(centroid[d], kStddevFrac * space.Extent(d)),
            space.lo()[d], space.hi()[d]));
      }
      points.push_back(p);
    }
  }
  return points;
}

std::vector<FleetOp> FleetOps(const std::vector<uint32_t>& permutation,
                              double zipf_z, uint32_t num_points, size_t count,
                              uint64_t seed) {
  const mlq::ZipfDistribution zipf(static_cast<int64_t>(permutation.size()),
                                   zipf_z);
  mlq::Rng rng(seed);
  std::vector<FleetOp> ops(count);
  for (FleetOp& op : ops) {
    op.model = permutation[static_cast<size_t>(zipf.Sample(rng) - 1)];
    op.point = static_cast<uint32_t>(rng.UniformInt(0, num_points - 1));
    op.passed = rng.NextBool(0.3);
  }
  return ops;
}

}  // namespace perfbench

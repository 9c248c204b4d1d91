#include "model/static_histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mlq {

StaticHistogram::StaticHistogram(const Box& space, int64_t memory_limit_bytes)
    : space_(space), memory_limit_bytes_(memory_limit_bytes) {
  assert(space.dims() >= 1 && space.dims() <= kMaxDims);
}

int StaticHistogram::MaxIntervalsForBudget() const {
  const int d = space_.dims();
  int best = 1;
  for (int n = 1;; ++n) {
    // n^d buckets at 8 bytes plus the variant's boundary storage.
    double buckets = std::pow(static_cast<double>(n), d);
    if (buckets > 1e15) break;  // Overflow guard; budget will stop us first.
    int64_t bytes = static_cast<int64_t>(buckets) * 8 +
                    static_cast<int64_t>(d) * BoundaryBytesPerDim(n);
    if (bytes > memory_limit_bytes_) break;
    best = n;
  }
  return best;
}

void StaticHistogram::Train(std::span<const Point> points,
                            std::span<const double> costs) {
  assert(points.size() == costs.size());
  const int d = space_.dims();
  intervals_per_dim_ = MaxIntervalsForBudget();

  // Per-dimension sorted training coordinates for boundary selection.
  boundaries_.assign(static_cast<size_t>(d), {});
  std::vector<double> sorted;
  sorted.reserve(points.size());
  for (int dim = 0; dim < d; ++dim) {
    sorted.clear();
    for (const Point& p : points) sorted.push_back(p[dim]);
    std::sort(sorted.begin(), sorted.end());
    boundaries_[static_cast<size_t>(dim)] = ChooseBoundaries(dim, sorted);
    assert(static_cast<int>(boundaries_[static_cast<size_t>(dim)].size()) ==
           intervals_per_dim_ - 1);
  }

  int64_t buckets = 1;
  for (int dim = 0; dim < d; ++dim) buckets *= intervals_per_dim_;
  bucket_avgs_.assign(static_cast<size_t>(buckets), 0.0);
  bucket_counts_.assign(static_cast<size_t>(buckets), 0);

  // Aggregate training executions per bucket.
  std::vector<double> sums(static_cast<size_t>(buckets), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    const int64_t b = BucketIndexOf(points[i]);
    sums[static_cast<size_t>(b)] += costs[i];
    bucket_counts_[static_cast<size_t>(b)] += 1;
    total += costs[i];
  }
  for (size_t b = 0; b < sums.size(); ++b) {
    if (bucket_counts_[b] > 0) {
      bucket_avgs_[b] = sums[b] / static_cast<double>(bucket_counts_[b]);
    }
  }
  global_avg_ = points.empty() ? 0.0 : total / static_cast<double>(points.size());

  charged_bytes_ = buckets * 8;
  for (int dim = 0; dim < d; ++dim) {
    charged_bytes_ += BoundaryBytesPerDim(intervals_per_dim_);
  }
  trained_ = true;
}

int StaticHistogram::IntervalOf(int dim, double coordinate) const {
  const std::vector<double>& bounds = boundaries_[static_cast<size_t>(dim)];
  // Inner boundaries partition [lo, hi] into bounds.size()+1 intervals;
  // interval k covers [bounds[k-1], bounds[k]).
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), coordinate);
  return static_cast<int>(it - bounds.begin());
}

int64_t StaticHistogram::BucketIndexOf(const Point& point) const {
  const int d = space_.dims();
  int64_t index = 0;
  for (int dim = 0; dim < d; ++dim) {
    double c = point[dim];
    // Clamp out-of-range coordinates onto the space, as MLQ does.
    c = std::clamp(c, space_.lo()[dim], space_.hi()[dim]);
    index = index * intervals_per_dim_ + IntervalOf(dim, c);
  }
  return index;
}

Prediction StaticHistogram::PredictDetailed(const Point& point) const {
  Prediction p;
  if (!trained_) return p;
  const auto b = static_cast<size_t>(BucketIndexOf(point));
  p.count = bucket_counts_[b];
  p.reliable = p.count > 0;
  // Empty bucket: fall back to the global training average.
  p.value = p.reliable ? bucket_avgs_[b] : global_avg_;
  return p;
}

EquiWidthHistogram::EquiWidthHistogram(const Box& space,
                                       int64_t memory_limit_bytes)
    : StaticHistogram(space, memory_limit_bytes) {}

std::vector<double> EquiWidthHistogram::ChooseBoundaries(
    int dim, std::span<const double> sorted_coords) const {
  (void)sorted_coords;
  const int n = intervals_per_dim();
  const double lo = space().lo()[dim];
  const double width = space().Extent(dim) / n;
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(n - 1));
  for (int k = 1; k < n; ++k) bounds.push_back(lo + width * k);
  return bounds;
}

InfluenceWeightedHistogram::InfluenceWeightedHistogram(
    const Box& space, int64_t memory_limit_bytes)
    : space_(space), memory_limit_bytes_(memory_limit_bytes) {
  assert(space.dims() >= 1 && space.dims() <= kMaxDims);
}

void InfluenceWeightedHistogram::Train(std::span<const Point> points,
                                       std::span<const double> costs) {
  assert(points.size() == costs.size());
  const int d = space_.dims();

  // 1. Influence per dimension: variance of per-slab mean costs over
  //    kProbeIntervals equi-width slabs (between-group variance).
  influence_.assign(static_cast<size_t>(d), 0.0);
  double total = 0.0;
  for (double c : costs) total += c;
  global_avg_ = points.empty() ? 0.0 : total / static_cast<double>(points.size());
  for (int dim = 0; dim < d; ++dim) {
    double slab_sum[kProbeIntervals] = {0.0};
    int64_t slab_count[kProbeIntervals] = {0};
    const double lo = space_.lo()[dim];
    const double width = space_.Extent(dim) / kProbeIntervals;
    for (size_t i = 0; i < points.size(); ++i) {
      int slab = width > 0.0
                     ? static_cast<int>((points[i][dim] - lo) / width)
                     : 0;
      slab = std::clamp(slab, 0, kProbeIntervals - 1);
      slab_sum[slab] += costs[i];
      ++slab_count[slab];
    }
    double between = 0.0;
    for (int s = 0; s < kProbeIntervals; ++s) {
      if (slab_count[s] == 0) continue;
      const double mean = slab_sum[s] / static_cast<double>(slab_count[s]);
      between += static_cast<double>(slab_count[s]) *
                 (mean - global_avg_) * (mean - global_avg_);
    }
    influence_[static_cast<size_t>(dim)] = between;
  }

  // 2. Greedy interval allocation: double the intervals of the currently
  //    most influential under-resolved dimension while the grid fits.
  //    "Remaining influence" of a dimension shrinks as it gains intervals
  //    (dividing by the interval count approximates the unexplained part).
  intervals_.assign(static_cast<size_t>(d), 1);
  auto grid_bytes = [this, d]() {
    int64_t buckets = 1;
    for (int dim = 0; dim < d; ++dim) buckets *= intervals_[static_cast<size_t>(dim)];
    int64_t boundary_bytes = 0;
    for (int dim = 0; dim < d; ++dim) {
      boundary_bytes += 8 * (intervals_[static_cast<size_t>(dim)] - 1);
    }
    // 8 bytes per bucket average + stored boundaries + one byte per dim for
    // the interval count itself.
    return buckets * 8 + boundary_bytes + d;
  };
  while (true) {
    int best_dim = -1;
    double best_score = 0.0;
    for (int dim = 0; dim < d; ++dim) {
      const double score = influence_[static_cast<size_t>(dim)] /
                           static_cast<double>(intervals_[static_cast<size_t>(dim)]);
      if (score > best_score) {
        best_score = score;
        best_dim = dim;
      }
    }
    if (best_dim < 0) break;  // No dimension has any influence.
    intervals_[static_cast<size_t>(best_dim)] *= 2;
    if (grid_bytes() > memory_limit_bytes_) {
      intervals_[static_cast<size_t>(best_dim)] /= 2;
      break;
    }
  }

  // 3. Aggregate the buckets (equi-width within each dimension).
  int64_t buckets = 1;
  for (int dim = 0; dim < d; ++dim) buckets *= intervals_[static_cast<size_t>(dim)];
  bucket_avgs_.assign(static_cast<size_t>(buckets), 0.0);
  bucket_counts_.assign(static_cast<size_t>(buckets), 0);
  std::vector<double> sums(static_cast<size_t>(buckets), 0.0);
  for (size_t i = 0; i < points.size(); ++i) {
    const int64_t b = BucketIndexOf(points[i]);
    sums[static_cast<size_t>(b)] += costs[i];
    ++bucket_counts_[static_cast<size_t>(b)];
  }
  for (size_t b = 0; b < sums.size(); ++b) {
    if (bucket_counts_[b] > 0) {
      bucket_avgs_[b] = sums[b] / static_cast<double>(bucket_counts_[b]);
    }
  }
  charged_bytes_ = grid_bytes();
  trained_ = true;
}

int64_t InfluenceWeightedHistogram::BucketIndexOf(const Point& point) const {
  const int d = space_.dims();
  int64_t index = 0;
  for (int dim = 0; dim < d; ++dim) {
    const int n = intervals_[static_cast<size_t>(dim)];
    const double lo = space_.lo()[dim];
    const double width = space_.Extent(dim) / n;
    const double c = std::clamp(point[dim], lo, space_.hi()[dim]);
    int interval = width > 0.0 ? static_cast<int>((c - lo) / width) : 0;
    interval = std::clamp(interval, 0, n - 1);
    index = index * n + interval;
  }
  return index;
}

Prediction InfluenceWeightedHistogram::PredictDetailed(
    const Point& point) const {
  Prediction p;
  if (!trained_) return p;
  const auto b = static_cast<size_t>(BucketIndexOf(point));
  p.count = bucket_counts_[b];
  p.reliable = p.count > 0;
  p.value = p.reliable ? bucket_avgs_[b] : global_avg_;
  return p;
}

EquiHeightHistogram::EquiHeightHistogram(const Box& space,
                                         int64_t memory_limit_bytes)
    : StaticHistogram(space, memory_limit_bytes) {}

std::vector<double> EquiHeightHistogram::ChooseBoundaries(
    int dim, std::span<const double> sorted_coords) const {
  const int n = intervals_per_dim();
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(n - 1));
  if (sorted_coords.empty()) {
    // No training data: degenerate to equi-width so the grid stays valid.
    const double lo = space().lo()[dim];
    const double width = space().Extent(dim) / n;
    for (int k = 1; k < n; ++k) bounds.push_back(lo + width * k);
    return bounds;
  }
  const size_t m = sorted_coords.size();
  for (int k = 1; k < n; ++k) {
    // Boundary at the k/n quantile of the training marginal.
    size_t rank = (static_cast<size_t>(k) * m) / static_cast<size_t>(n);
    if (rank >= m) rank = m - 1;
    bounds.push_back(sorted_coords[rank]);
  }
  // Quantiles of highly duplicated marginals can coincide; keep them
  // non-decreasing (zero-width intervals simply never win a lookup).
  for (size_t i = 1; i < bounds.size(); ++i) {
    bounds[i] = std::max(bounds[i], bounds[i - 1]);
  }
  return bounds;
}

}  // namespace mlq

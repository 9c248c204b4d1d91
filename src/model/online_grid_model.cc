#include "model/online_grid_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/timer.h"

namespace mlq {

OnlineGridModel::OnlineGridModel(const Box& space, int64_t memory_limit_bytes)
    : space_(space) {
  assert(space.dims() >= 1 && space.dims() <= kMaxDims);
  // A self-tuning bucket needs its running sum and count (12 bytes charged:
  // 8 + 4), so the grid is a little coarser than a trained-once SH-W at the
  // same budget — the honest price of updatability.
  const int d = space.dims();
  int best = 1;
  for (int n = 1;; ++n) {
    const double buckets = std::pow(static_cast<double>(n), d);
    if (buckets > 1e12 || static_cast<int64_t>(buckets) * 12 > memory_limit_bytes) {
      break;
    }
    best = n;
  }
  intervals_per_dim_ = best;
  int64_t buckets = 1;
  for (int dim = 0; dim < d; ++dim) buckets *= intervals_per_dim_;
  buckets_.assign(static_cast<size_t>(buckets), SummaryTriple{});
  charged_bytes_ = buckets * 12;
}

int64_t OnlineGridModel::BucketIndexOf(const Point& point) const {
  const int d = space_.dims();
  int64_t index = 0;
  for (int dim = 0; dim < d; ++dim) {
    const double lo = space_.lo()[dim];
    const double width = space_.Extent(dim) / intervals_per_dim_;
    const double c = std::clamp(point[dim], lo, space_.hi()[dim]);
    int interval = width > 0.0 ? static_cast<int>((c - lo) / width) : 0;
    interval = std::clamp(interval, 0, intervals_per_dim_ - 1);
    index = index * intervals_per_dim_ + interval;
  }
  return index;
}

Prediction OnlineGridModel::PredictDetailed(const Point& point) const {
  const SummaryTriple& bucket =
      buckets_[static_cast<size_t>(BucketIndexOf(point))];
  Prediction p;
  if (bucket.Empty()) {
    // Global fallback: report the global spread but flag the estimate as
    // locally unsupported.
    p.value = global_.Avg();
    p.stddev = global_.Stddev();
    return p;
  }
  p.value = bucket.Avg();
  p.stddev = bucket.Stddev();
  p.count = bucket.count;
  p.reliable = true;
  return p;
}

void OnlineGridModel::Observe(const Point& point, double actual_cost) {
  if (!std::isfinite(actual_cost)) return;
  WallTimer timer;
  buckets_[static_cast<size_t>(BucketIndexOf(point))].Add(actual_cost);
  global_.Add(actual_cost);
  ++breakdown_.insertions;
  breakdown_.insert_seconds += timer.ElapsedSeconds();
}

}  // namespace mlq

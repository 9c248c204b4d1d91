#ifndef MLQ_MODEL_ONLINE_GRID_MODEL_H_
#define MLQ_MODEL_ONLINE_GRID_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/stats.h"
#include "model/cost_model.h"

namespace mlq {

// STGrid-style baseline: a *flat* self-tuning grid.
//
// The paper positions MLQ against the self-tuning histogram line of work
// (STGrid, STHoles — Section 2.2) but never compares against a flat
// feedback-driven structure. This model fills that gap: a fixed equi-width
// grid sized to the memory budget whose bucket summaries update from the
// same query feedback MLQ consumes. It shares MLQ's self-tuning loop but
// has no multi-resolution hierarchy, no workload-adaptive refinement and no
// compression — so comparing the two isolates what the quadtree machinery
// itself contributes (bench/ablation_baselines).
class OnlineGridModel : public CostModel {
 public:
  OnlineGridModel(const Box& space, int64_t memory_limit_bytes);

  std::string_view name() const override { return "ST-GRID"; }
  // Buckets are summary triples, so the serving bucket's stddev/count are
  // free; an empty bucket answers the global average and spread with
  // count 0 and reliable = false (nothing local known).
  Prediction PredictDetailed(const Point& point) const override;
  void Observe(const Point& point, double actual_cost) override;
  int64_t MemoryBytes() const override { return charged_bytes_; }
  bool IsSelfTuning() const override { return true; }
  ModelUpdateBreakdown update_breakdown() const override { return breakdown_; }

  int intervals_per_dim() const { return intervals_per_dim_; }
  int64_t num_buckets() const { return static_cast<int64_t>(buckets_.size()); }

 private:
  int64_t BucketIndexOf(const Point& point) const;

  Box space_;
  int intervals_per_dim_;
  std::vector<SummaryTriple> buckets_;
  SummaryTriple global_;
  int64_t charged_bytes_;
  ModelUpdateBreakdown breakdown_;
};

}  // namespace mlq

#endif  // MLQ_MODEL_ONLINE_GRID_MODEL_H_

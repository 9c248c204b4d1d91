#ifndef MLQ_MODEL_STATIC_HISTOGRAM_H_
#define MLQ_MODEL_STATIC_HISTOGRAM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/stats.h"
#include "model/cost_model.h"

namespace mlq {

// Base for the static-histogram (SH) UDF cost models of Jihad & Kinji
// (SIGMOD Record 1999), the baseline the paper compares MLQ against
// (Section 2.1 / 5.1). Both variants build a d-dimensional grid of buckets,
// each storing the average observed cost of the training executions that
// fall into it. They are trained once, a-priori, and never updated: Observe
// is a no-op.
//
// Memory accounting (to match MLQ at equal budgets): 8 bytes per bucket for
// the stored average, plus — for the equi-height variant — 8 bytes per
// stored interval boundary per dimension. The per-dimension interval count
// N is chosen as the largest value whose representation fits the budget.
class StaticHistogram : public CostModel {
 public:
  StaticHistogram(const Box& space, int64_t memory_limit_bytes);

  // Trains on parallel arrays of model points and their observed costs.
  // Replaces any previous training. Derived classes first choose the
  // interval boundaries, then the base aggregates bucket contents.
  void Train(std::span<const Point> points, std::span<const double> costs);

  // The serving bucket's average; count is its training population and
  // stddev stays 0 (buckets store averages, not second moments). An empty
  // bucket answers the global training average with reliable = false,
  // flagged like MLQ's root fallback.
  Prediction PredictDetailed(const Point& point) const override;
  void Observe(const Point& point, double actual_cost) override {
    (void)point;
    (void)actual_cost;  // Static: not self-tuning.
  }
  int64_t MemoryBytes() const override { return charged_bytes_; }
  bool IsSelfTuning() const override { return false; }

  int intervals_per_dim() const { return intervals_per_dim_; }
  int64_t num_buckets() const { return static_cast<int64_t>(bucket_avgs_.size()); }
  bool trained() const { return trained_; }
  const Box& space() const { return space_; }

 protected:
  // Catalog persistence reads and restores trained state directly
  // (model/serialization.h).
  friend std::vector<uint8_t> SerializeHistogram(const StaticHistogram&);
  friend std::unique_ptr<StaticHistogram> DeserializeHistogram(
      const std::vector<uint8_t>&, std::string*);

  // Chooses the boundary positions for one dimension, returning the N-1
  // inner boundaries (ascending). `sorted_coords` holds the training
  // coordinates of that dimension in ascending order (may be empty).
  virtual std::vector<double> ChooseBoundaries(
      int dim, std::span<const double> sorted_coords) const = 0;

  // Bytes charged per dimension for boundary storage (0 for equi-width,
  // whose boundaries are implicit).
  virtual int64_t BoundaryBytesPerDim(int intervals) const = 0;

  // Largest per-dimension interval count whose grid fits the budget.
  int MaxIntervalsForBudget() const;

 private:
  int64_t BucketIndexOf(const Point& point) const;
  int IntervalOf(int dim, double coordinate) const;

  Box space_;
  int64_t memory_limit_bytes_;
  int intervals_per_dim_ = 1;
  // boundaries_[dim] holds the N-1 inner boundaries of that dimension.
  std::vector<std::vector<double>> boundaries_;
  std::vector<double> bucket_avgs_;
  std::vector<int64_t> bucket_counts_;
  double global_avg_ = 0.0;
  int64_t charged_bytes_ = 0;
  bool trained_ = false;
};

// SH-W: equal-length intervals in every dimension.
class EquiWidthHistogram : public StaticHistogram {
 public:
  EquiWidthHistogram(const Box& space, int64_t memory_limit_bytes);

  std::string_view name() const override { return "SH-W"; }

 protected:
  std::vector<double> ChooseBoundaries(
      int dim, std::span<const double> sorted_coords) const override;
  int64_t BoundaryBytesPerDim(int intervals) const override {
    (void)intervals;
    return 0;  // Implicit from the space extent.
  }
};

// SH-H: per-dimension equi-height (quantile) intervals, so each interval of
// a dimension holds the same number of training points.
class EquiHeightHistogram : public StaticHistogram {
 public:
  EquiHeightHistogram(const Box& space, int64_t memory_limit_bytes);

  std::string_view name() const override { return "SH-H"; }

 protected:
  std::vector<double> ChooseBoundaries(
      int dim, std::span<const double> sorted_coords) const override;
  int64_t BoundaryBytesPerDim(int intervals) const override {
    return 8 * static_cast<int64_t>(intervals - 1);
  }
};

// SH-V: influence-weighted histogram — the storage-efficiency improvement
// the SH paper sketches but leaves open ("reducing the number of intervals
// assigned to variables that have low influence on the cost. However, they
// do not specify how to find the amount of influence a variable has",
// Section 2.1 of the MLQ paper).
//
// We quantify influence as explained variance: for each dimension,
// partition the training data into kProbeIntervals equi-width slabs and
// measure the variance of the slab means (how much of the cost's variance
// that dimension's position explains). Interval counts are then assigned
// greedily — repeatedly doubling the intervals of the highest-influence
// dimension while the grid still fits the budget — so an irrelevant
// variable gets 1 interval and frees its share of the grid for the
// variables that matter. Buckets use equi-width boundaries within each
// dimension.
class InfluenceWeightedHistogram : public CostModel {
 public:
  static constexpr int kProbeIntervals = 8;

  InfluenceWeightedHistogram(const Box& space, int64_t memory_limit_bytes);

  void Train(std::span<const Point> points, std::span<const double> costs);

  std::string_view name() const override { return "SH-V"; }
  // Same semantics as StaticHistogram::PredictDetailed.
  Prediction PredictDetailed(const Point& point) const override;
  void Observe(const Point& point, double actual_cost) override {
    (void)point;
    (void)actual_cost;  // Static.
  }
  int64_t MemoryBytes() const override { return charged_bytes_; }
  bool IsSelfTuning() const override { return false; }

  bool trained() const { return trained_; }
  // Interval count chosen for each dimension.
  const std::vector<int>& intervals() const { return intervals_; }
  // Influence score (explained variance) measured for each dimension.
  const std::vector<double>& influence() const { return influence_; }
  int64_t num_buckets() const { return static_cast<int64_t>(bucket_avgs_.size()); }
  const Box& space() const { return space_; }

 private:
  int64_t BucketIndexOf(const Point& point) const;

  Box space_;
  int64_t memory_limit_bytes_;
  std::vector<int> intervals_;
  std::vector<double> influence_;
  std::vector<double> bucket_avgs_;
  std::vector<int64_t> bucket_counts_;
  double global_avg_ = 0.0;
  int64_t charged_bytes_ = 0;
  bool trained_ = false;
};

}  // namespace mlq

#endif  // MLQ_MODEL_STATIC_HISTOGRAM_H_

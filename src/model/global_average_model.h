#ifndef MLQ_MODEL_GLOBAL_AVERAGE_MODEL_H_
#define MLQ_MODEL_GLOBAL_AVERAGE_MODEL_H_

#include "common/stats.h"
#include "model/cost_model.h"

namespace mlq {

// Degenerate self-tuning model that predicts the running average of every
// observation it has seen. Equivalent to a one-node MLQ; serves as the
// sanity floor in tests and benchmarks (anything structured must beat it on
// non-constant cost surfaces).
class GlobalAverageModel : public CostModel {
 public:
  std::string_view name() const override { return "GLOBAL-AVG"; }

  // The single summary triple: the model IS a one-node MLQ, so its global
  // stddev/count are the honest uncertainty report.
  Prediction PredictDetailed(const Point& point) const override {
    (void)point;
    Prediction p;
    p.value = summary_.Avg();
    p.stddev = summary_.Stddev();
    p.count = summary_.count;
    p.reliable = summary_.count > 0;
    return p;
  }

  void Observe(const Point& point, double actual_cost) override {
    (void)point;
    summary_.Add(actual_cost);
    ++breakdown_.insertions;
  }

  int64_t MemoryBytes() const override { return 24; }  // One summary triple.
  bool IsSelfTuning() const override { return true; }
  ModelUpdateBreakdown update_breakdown() const override { return breakdown_; }

 private:
  SummaryTriple summary_;
  ModelUpdateBreakdown breakdown_;
};

}  // namespace mlq

#endif  // MLQ_MODEL_GLOBAL_AVERAGE_MODEL_H_

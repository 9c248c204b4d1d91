#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "engine/cost_catalog.h"
#include "harness.h"
#include "spans.h"
#include "udf/costed_udf.h"

namespace perfbench {

// Forwards every call to a UDF it does not own, recording a udf.execute
// span around Execute and summing the realized nominal cost. Used in
// traced and untraced runs alike, so both run the same code. Not
// thread-safe: one client only.
class MeteredUdf final : public mlq::CostedUdf {
 public:
  explicit MeteredUdf(mlq::CostedUdf* inner) : inner_(inner) {}

  std::string_view name() const override { return inner_->name(); }
  mlq::Box model_space() const override { return inner_->model_space(); }
  mlq::Box execution_space() const override {
    return inner_->execution_space();
  }
  mlq::Point ToModelPoint(const mlq::Point& p) const override {
    return inner_->ToModelPoint(p);
  }
  mlq::UdfCost Execute(const mlq::Point& model_point) override {
    SpanScope span(SpanName::kUdfExecute);
    const mlq::UdfCost cost = inner_->Execute(model_point);
    nominal_micros_ += cost.NominalMicros();
    return cost;
  }
  void ResetState() override { inner_->ResetState(); }
  int64_t last_result_count() const override {
    return inner_->last_result_count();
  }

  double nominal_micros() const { return nominal_micros_; }

 private:
  mlq::CostedUdf* inner_;
  double nominal_micros_ = 0.0;
};

// Quadtree work summed over the three models of every listed entry
// (library stats accessors; kSharded models aggregate their shards).
struct QuadtreeTotals {
  int64_t compressions = 0;
  double update_seconds = 0.0;
  int64_t nodes = 0;
};
QuadtreeTotals ReadQuadtreeTotals(const mlq::CostCatalog& catalog,
                                  std::span<const mlq::CostedUdf* const> udfs);

// Sets the quadtree.* layer metrics from the work done between two
// snapshots over `ops` measured ops, plus the catalog's arena state.
void SetQuadtreeMetrics(const mlq::CostCatalog& catalog,
                        const QuadtreeTotals& before,
                        const QuadtreeTotals& after, int64_t ops,
                        MetricSet& per_layer);

// Eq. 10 accumulator: sum |predicted - actual| / sum actual.
struct NaeSum {
  double abs_error = 0.0;
  double actual = 0.0;
  void Add(double predicted, double realized) {
    abs_error += predicted > realized ? predicted - realized
                                      : realized - predicted;
    actual += realized;
  }
  double Value() const { return actual > 0.0 ? abs_error / actual : 0.0; }
};

std::unique_ptr<Workload> MakePaperStream(uint64_t seed);
std::unique_ptr<Workload> MakeCatalogFleet(uint64_t seed);
std::unique_ptr<Workload> MakeQueryLoop(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

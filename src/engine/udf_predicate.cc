#include "engine/udf_predicate.h"

#include <cassert>

namespace mlq {

UdfPredicate::UdfPredicate(std::string name, CostedUdf* udf,
                           std::vector<int> column_of, Point constants,
                           int64_t min_result_count)
    : name_(std::move(name)),
      udf_(udf),
      column_of_(std::move(column_of)),
      constants_(constants),
      min_result_count_(min_result_count) {
  assert(udf_ != nullptr);
  assert(static_cast<int>(column_of_.size()) == udf_->model_space().dims());
  assert(constants_.dims() == udf_->model_space().dims());
}

Point UdfPredicate::ModelPointFor(std::span<const double> row) const {
  Point p(constants_.dims());
  for (int d = 0; d < p.dims(); ++d) {
    const int column = column_of_[static_cast<size_t>(d)];
    if (column >= 0) {
      assert(column < static_cast<int>(row.size()));
      p[d] = row[static_cast<size_t>(column)];
    } else {
      p[d] = constants_[d];
    }
  }
  return p;
}

UdfPredicate::Outcome UdfPredicate::Evaluate(std::span<const double> row) const {
  Outcome outcome;
  outcome.model_point = ModelPointFor(row);
  outcome.cost = udf_->Execute(outcome.model_point);
  outcome.passed = udf_->last_result_count() >= min_result_count_;
  return outcome;
}

}  // namespace mlq

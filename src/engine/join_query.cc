#include "engine/join_query.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace mlq {
namespace {

// Mean (cost, selectivity) estimates for a predicate over a stride sample
// of its table, with the stddev of each mean riding along for risk-aware
// placement.
struct PredicateEstimates {
  double cost_micros = 0.0;
  double selectivity = 0.5;
  double cost_stddev = 0.0;
  double selectivity_stddev = 0.0;
};

PredicateEstimates EstimateOver(const UdfPredicate& predicate,
                                const Table& table, CostCatalog& catalog,
                                int sample_rows) {
  PredicateEstimates out;
  const int64_t n = table.num_rows();
  if (n == 0) return out;
  const int64_t stride = n > sample_rows ? n / sample_rows : 1;
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(n / stride) + 1);
  for (int64_t row = 0; row < n; row += stride) {
    points.push_back(predicate.ModelPointFor(table.Row(row)));
  }
  // .value matches the scalar predictors bit for bit; the stddevs carry
  // the per-point uncertainty.
  std::vector<Prediction> costs(points.size());
  std::vector<Prediction> selectivities(points.size());
  catalog.PredictCostBatch(predicate.udf(), points, costs);
  catalog.PredictSelectivityBatch(predicate.udf(), points, selectivities);
  double cost = 0.0;
  double selectivity = 0.0;
  double cost_var = 0.0;
  double selectivity_var = 0.0;
  for (size_t s = 0; s < points.size(); ++s) {
    cost += costs[s].value;
    selectivity += selectivities[s].value;
    cost_var += costs[s].stddev * costs[s].stddev;
    selectivity_var += selectivities[s].stddev * selectivities[s].stddev;
  }
  const double samples = static_cast<double>(points.size());
  out.cost_micros = cost / samples;
  out.selectivity = selectivity / samples;
  out.cost_stddev = std::sqrt(cost_var) / samples;
  out.selectivity_stddev = std::sqrt(selectivity_var) / samples;
  return out;
}

// Combined selectivity uncertainty of one side's estimates (root sum of
// squares): > 0 means any selectivity product over that side is uncertain.
double SelectivityUncertainty(const std::vector<PredicateEstimates>& v) {
  double var = 0.0;
  for (const PredicateEstimates& e : v) {
    var += e.selectivity_stddev * e.selectivity_stddev;
  }
  return std::sqrt(var);
}

}  // namespace

double ExpectedJoinRows(const JoinQuery& query) {
  assert(query.left != nullptr && query.right != nullptr);
  std::unordered_map<double, int64_t> right_keys;
  for (int64_t row = 0; row < query.right->num_rows(); ++row) {
    ++right_keys[query.right->Row(row)[static_cast<size_t>(
        query.right_join_column)]];
  }
  double join_rows = 0.0;
  for (int64_t row = 0; row < query.left->num_rows(); ++row) {
    const auto it = right_keys.find(
        query.left->Row(row)[static_cast<size_t>(query.left_join_column)]);
    if (it != right_keys.end()) join_rows += static_cast<double>(it->second);
  }
  return join_rows;
}

JoinPlan PlanJoinQuery(const JoinQuery& query, CostCatalog& catalog,
                       int sample_rows, double risk_k) {
  JoinPlan plan;
  plan.risk_k = risk_k > 0.0 ? risk_k : 0.0;
  plan.estimated_join_rows = ExpectedJoinRows(query);

  std::vector<PredicateEstimates> left_estimates;
  std::vector<PredicateEstimates> right_estimates;
  for (const UdfPredicate* p : query.left_predicates) {
    left_estimates.push_back(EstimateOver(*p, *query.left, catalog, sample_rows));
  }
  for (const UdfPredicate* p : query.right_predicates) {
    right_estimates.push_back(
        EstimateOver(*p, *query.right, catalog, sample_rows));
  }

  // Selectivity products for "every other predicate already applied".
  auto product_excluding = [](const std::vector<PredicateEstimates>& v,
                              int skip) {
    double product = 1.0;
    for (size_t i = 0; i < v.size(); ++i) {
      if (static_cast<int>(i) != skip) product *= v[i].selectivity;
    }
    return product;
  };
  const double all_left = product_excluding(left_estimates, -1);
  const double all_right = product_excluding(right_estimates, -1);

  // Independent last-in-chain comparison for each predicate: evaluations if
  // placed below the join (its side's rows, filtered by the other same-side
  // predicates) vs above it (join rows, filtered by everything else).
  //
  // With risk_k > 0, near-ties (counts within 10%) break toward "below"
  // whenever the other side's selectivities are uncertain: the below count
  // rests on exact base cardinality and same-side estimates only, while the
  // above count additionally multiplies in the other side's (uncertain)
  // selectivity product. Decisive comparisons are never overridden.
  auto decide = [&](const std::vector<PredicateEstimates>& side_estimates,
                    int index, double side_rows, double other_side_product,
                    double other_side_uncertainty) {
    const double below =
        side_rows * product_excluding(side_estimates, index);
    const double above = plan.estimated_join_rows *
                         product_excluding(side_estimates, index) *
                         other_side_product;
    if (plan.risk_k > 0.0 && other_side_uncertainty > 0.0) {
      const double near_tie = 0.1 * std::max(below, above);
      if (std::abs(below - above) <= near_tie) return true;
    }
    return below <= above;  // Fewer (or equal) evaluations below: push down.
  };
  const double left_uncertainty = SelectivityUncertainty(left_estimates);
  const double right_uncertainty = SelectivityUncertainty(right_estimates);
  for (size_t i = 0; i < left_estimates.size(); ++i) {
    plan.left_before.push_back(
        decide(left_estimates, static_cast<int>(i),
               static_cast<double>(query.left->num_rows()), all_right,
               right_uncertainty));
  }
  for (size_t i = 0; i < right_estimates.size(); ++i) {
    plan.right_before.push_back(
        decide(right_estimates, static_cast<int>(i),
               static_cast<double>(query.right->num_rows()), all_left,
               left_uncertainty));
  }

  // Expected cost of the chosen plan (independence assumptions throughout):
  // below-join chains see their side's rows; the join output shrinks by the
  // pushed predicates' selectivities; above-join predicates see that.
  double cost = 0.0;
  double left_rows = static_cast<double>(query.left->num_rows());
  double right_rows = static_cast<double>(query.right->num_rows());
  double pushed_product = 1.0;
  for (size_t i = 0; i < left_estimates.size(); ++i) {
    if (!plan.left_before[i]) continue;
    cost += left_rows * left_estimates[i].cost_micros;
    left_rows *= left_estimates[i].selectivity;
    pushed_product *= left_estimates[i].selectivity;
  }
  for (size_t i = 0; i < right_estimates.size(); ++i) {
    if (!plan.right_before[i]) continue;
    cost += right_rows * right_estimates[i].cost_micros;
    right_rows *= right_estimates[i].selectivity;
    pushed_product *= right_estimates[i].selectivity;
  }
  double above_rows = plan.estimated_join_rows * pushed_product;
  for (size_t i = 0; i < left_estimates.size(); ++i) {
    if (plan.left_before[i]) continue;
    cost += above_rows * left_estimates[i].cost_micros;
    above_rows *= left_estimates[i].selectivity;
  }
  for (size_t i = 0; i < right_estimates.size(); ++i) {
    if (plan.right_before[i]) continue;
    cost += above_rows * right_estimates[i].cost_micros;
    above_rows *= right_estimates[i].selectivity;
  }
  plan.expected_cost_micros = cost;
  return plan;
}

std::string JoinPlan::Explain(const JoinQuery& query) const {
  char buf[160];
  std::string out;
  if (risk_k > 0.0) {
    std::snprintf(
        buf, sizeof(buf),
        "join plan (estimated join rows %.0f, expected cost %.0f us, "
        "risk k=%.2f):\n",
        estimated_join_rows, expected_cost_micros, risk_k);
  } else {
    std::snprintf(
        buf, sizeof(buf),
        "join plan (estimated join rows %.0f, expected cost %.0f us):\n",
        estimated_join_rows, expected_cost_micros);
  }
  out += buf;
  for (size_t i = 0; i < query.left_predicates.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "  %-14s [left]  %s join\n",
                  query.left_predicates[i]->name().c_str(),
                  left_before[i] ? "below" : "above");
    out += buf;
  }
  for (size_t i = 0; i < query.right_predicates.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "  %-14s [right] %s join\n",
                  query.right_predicates[i]->name().c_str(),
                  right_before[i] ? "below" : "above");
    out += buf;
  }
  return out;
}

ExecutionStats ExecuteJoinQuery(const JoinQuery& query, const JoinPlan& plan,
                                CostCatalog* catalog) {
  assert(plan.left_before.size() == query.left_predicates.size());
  assert(plan.right_before.size() == query.right_predicates.size());

  ExecutionStats stats;
  stats.rows_in = query.left->num_rows() + query.right->num_rows();
  stats.evaluations_per_predicate.assign(
      query.left_predicates.size() + query.right_predicates.size(), 0);

  auto evaluate = [&](const UdfPredicate* predicate, size_t stat_index,
                      std::span<const double> row) {
    const UdfPredicate::Outcome outcome = predicate->Evaluate(row);
    ++stats.evaluations_per_predicate[stat_index];
    stats.actual_cost_micros += outcome.cost.NominalMicros();
    if (catalog != nullptr) {
      catalog->RecordExecution(predicate->udf(), outcome.model_point,
                               outcome.cost, outcome.passed);
    }
    return outcome.passed;
  };

  // Build side: right rows surviving their below-join predicates.
  std::unordered_map<double, std::vector<int64_t>> hash_table;
  for (int64_t row = 0; row < query.right->num_rows(); ++row) {
    bool passes = true;
    for (size_t i = 0; i < query.right_predicates.size(); ++i) {
      if (!plan.right_before[i]) continue;
      if (!evaluate(query.right_predicates[i],
                    query.left_predicates.size() + i, query.right->Row(row))) {
        passes = false;
        break;
      }
    }
    if (passes) {
      hash_table[query.right->Row(row)[static_cast<size_t>(
                     query.right_join_column)]]
          .push_back(row);
    }
  }

  // Probe side.
  for (int64_t row = 0; row < query.left->num_rows(); ++row) {
    bool passes = true;
    for (size_t i = 0; i < query.left_predicates.size(); ++i) {
      if (!plan.left_before[i]) continue;
      if (!evaluate(query.left_predicates[i], i, query.left->Row(row))) {
        passes = false;
        break;
      }
    }
    if (!passes) continue;
    const auto it = hash_table.find(
        query.left->Row(row)[static_cast<size_t>(query.left_join_column)]);
    if (it == hash_table.end()) continue;
    for (int64_t right_row : it->second) {
      // Above-join predicates run once per joined pair — exactly the cost
      // behaviour that makes placement matter. (No per-row memoization,
      // like the paper's setting.)
      bool pair_passes = true;
      for (size_t i = 0; i < query.left_predicates.size() && pair_passes; ++i) {
        if (plan.left_before[i]) continue;
        pair_passes = evaluate(query.left_predicates[i], i, query.left->Row(row));
      }
      for (size_t i = 0; i < query.right_predicates.size() && pair_passes; ++i) {
        if (plan.right_before[i]) continue;
        pair_passes = evaluate(query.right_predicates[i],
                               query.left_predicates.size() + i,
                               query.right->Row(right_row));
      }
      if (pair_passes) ++stats.rows_out;
    }
  }
  return stats;
}

}  // namespace mlq

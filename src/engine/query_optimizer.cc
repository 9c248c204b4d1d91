#include "engine/query_optimizer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "obs/obs.h"
#include "optimizer/predicate_ordering.h"

namespace mlq {

std::string Plan::Explain() const {
  std::string out = "plan (expected cost/row = ";
  char buf[160];
  if (risk_k > 0.0) {
    std::snprintf(buf, sizeof(buf), "%.2f us, risk(k=%.2f)/row = %.2f us):\n",
                  expected_cost_per_row_micros, risk_k,
                  risk_cost_per_row_micros);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f us):\n",
                  expected_cost_per_row_micros);
  }
  out += buf;
  for (size_t i = 0; i < order.size(); ++i) {
    const PlannedPredicate& p = estimates[static_cast<size_t>(order[i])];
    // The +/- terms are ~95% confidence half-widths around the sample-mean
    // estimates; n is the weakest model support behind the samples.
    std::snprintf(buf, sizeof(buf),
                  "  %zu. %-12s cost=%9.2f +/-%.2f us  sel=%.3f +/-%.3f  "
                  "n=%lld\n",
                  i + 1, p.predicate->name().c_str(), p.estimated_cost_micros,
                  p.CostConfidenceHalfWidthMicros(), p.estimated_selectivity,
                  1.96 * p.estimated_selectivity_stddev,
                  static_cast<long long>(p.support));
    out += buf;
  }
  return out;
}

Plan PlanQuery(const Query& query, CostCatalog& catalog, int sample_rows,
               int planner_threads, double risk_k) {
  assert(query.table != nullptr);
  obs::ScopedLatency latency(obs::Core().plan_ns, obs::Core().plans,
                             obs::TraceEventType::kPlan);
  Plan plan;
  plan.risk_k = risk_k > 0.0 ? risk_k : 0.0;

  // Deterministic stride sample of the table's rows; per-row model points
  // differ, so estimates are sample averages.
  const int64_t n = query.table->num_rows();
  const int64_t stride =
      n > sample_rows ? n / sample_rows : 1;

  const size_t num_predicates = query.predicates.size();
  plan.estimates.assign(num_predicates, PlannedPredicate{});

  const auto estimate_one = [&query, &catalog, &plan, n, stride](size_t i) {
    const UdfPredicate* predicate = query.predicates[i];
    // Materialize the sample's model points, then cost them in one batched
    // catalog call per estimator: the models amortize locking and dispatch
    // over the whole sample instead of paying them per row.
    std::vector<Point> points;
    points.reserve(static_cast<size_t>(n / stride) + 1);
    for (int64_t row = 0; row < n; row += stride) {
      points.push_back(predicate->ModelPointFor(query.table->Row(row)));
    }
    PlannedPredicate& planned = plan.estimates[i];
    planned.predicate = predicate;
    if (points.empty()) {
      planned.estimated_selectivity = 0.5;
      return;
    }
    // .value is bit-identical to the scalar predictors; the stddev/count
    // ride along from the same probes.
    std::vector<Prediction> costs(points.size());
    std::vector<Prediction> selectivities(points.size());
    catalog.PredictCostBatch(predicate->udf(), points, costs);
    catalog.PredictSelectivityBatch(predicate->udf(), points, selectivities);
    double cost_sum = 0.0;
    double selectivity_sum = 0.0;
    double cost_var_sum = 0.0;
    double selectivity_var_sum = 0.0;
    int64_t support = std::numeric_limits<int64_t>::max();
    for (size_t s = 0; s < points.size(); ++s) {
      cost_sum += costs[s].value;
      selectivity_sum += selectivities[s].value;
      cost_var_sum += costs[s].stddev * costs[s].stddev;
      selectivity_var_sum +=
          selectivities[s].stddev * selectivities[s].stddev;
      support = std::min(support, costs[s].count);
    }
    const double samples = static_cast<double>(points.size());
    planned.estimated_cost_micros = cost_sum / samples;
    planned.estimated_selectivity = selectivity_sum / samples;
    // Stddev of the sample MEAN: independent per-point estimates combine
    // as sqrt(sum of variances) / n.
    planned.estimated_cost_stddev = std::sqrt(cost_var_sum) / samples;
    planned.estimated_selectivity_stddev =
        std::sqrt(selectivity_var_sum) / samples;
    planned.support = support;
  };

  // Concurrency-mode switch: predicates are estimated in parallel only
  // when the catalog's models can take concurrent probes. Estimates are
  // written to disjoint slots, so the plan is identical either way.
  const bool parallel_planning =
      planner_threads > 1 && num_predicates > 1 &&
      catalog.concurrency() != CatalogConcurrency::kSingleThread;
  if (parallel_planning) {
    assert(catalog.concurrency() != CatalogConcurrency::kSingleThread);
    std::vector<std::thread> workers;
    const size_t workers_wanted = std::min<size_t>(
        static_cast<size_t>(planner_threads), num_predicates);
    std::atomic<size_t> next{0};
    workers.reserve(workers_wanted);
    for (size_t w = 0; w < workers_wanted; ++w) {
      workers.emplace_back([&estimate_one, &next, num_predicates]() {
        for (size_t i = next.fetch_add(1); i < num_predicates;
             i = next.fetch_add(1)) {
          estimate_one(i);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  } else {
    for (size_t i = 0; i < num_predicates; ++i) estimate_one(i);
  }

  std::vector<PredicateEstimate> estimates;
  estimates.reserve(num_predicates);
  for (const PlannedPredicate& planned : plan.estimates) {
    estimates.push_back(PredicateEstimate{
        planned.predicate->name(), planned.estimated_cost_micros,
        planned.estimated_selectivity, planned.estimated_cost_stddev,
        planned.support});
  }

  RiskPolicy policy;
  policy.k = plan.risk_k;
  const OrderingResult ordering = OrderPredicatesRisk(estimates, policy);
  plan.order = ordering.order;
  plan.expected_cost_per_row_micros = ordering.expected_cost_per_tuple;
  plan.risk_cost_per_row_micros = ordering.risk_cost_per_tuple;
  if (plan.risk_k > 0.0 && obs::Enabled()) {
    obs::Core().risk_plans.Inc();
    // Did the variance signal actually change a decision? Only worth the
    // second (classical) sort when someone is watching the counter.
    const OrderingResult classical = OrderPredicates(estimates);
    if (classical.order != plan.order) obs::Core().risk_reorders.Inc();
  }
  latency.set_args(static_cast<double>(num_predicates),
                   plan.expected_cost_per_row_micros);
  return plan;
}

}  // namespace mlq

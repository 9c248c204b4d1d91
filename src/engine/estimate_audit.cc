#include "engine/estimate_audit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/obs.h"

namespace mlq {
namespace {

double Drift(double before, double after) {
  // Zero-cost estimates are legitimate (a predicate whose model has seen no
  // feedback yet, or a selectivity of exactly 0): when both sides are ~0 the
  // estimate and the post-hoc measurement agree, so the drift is 1.0, not a
  // division blow-up. The epsilon also absorbs denormal noise from averaged
  // samples. NaN on either side means a garbled measurement — surface it as
  // infinite drift rather than letting NaN poison max-aggregation downstream
  // (NaN comparisons are always false, so std::max would silently drop it).
  constexpr double kZeroEps = 1e-9;
  if (std::isnan(before) || std::isnan(after)) {
    return std::numeric_limits<double>::infinity();
  }
  if (std::abs(before) <= kZeroEps && std::abs(after) <= kZeroEps) return 1.0;
  if (before <= 0.0 || after <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(before / after, after / before);
}

}  // namespace

double PredicateAudit::CostDrift() const {
  return Drift(estimated_cost_micros, post_cost_micros);
}

double PredicateAudit::SelectivityDrift() const {
  return Drift(estimated_selectivity, post_selectivity);
}

double PredicateAudit::WindowedCostDrift() const {
  return Drift(estimated_cost_micros, windowed_cost_micros);
}

double PredicateAudit::WindowedSelectivityDrift() const {
  return Drift(estimated_selectivity, windowed_selectivity);
}

double PredicateAudit::EffectiveCostDrift() const {
  return windowed_observations > 0 ? WindowedCostDrift() : CostDrift();
}

double PredicateAudit::EffectiveSelectivityDrift() const {
  return windowed_observations > 0 ? WindowedSelectivityDrift()
                                   : SelectivityDrift();
}

bool PredicateAudit::WindowedWithinConfidence() const {
  if (windowed_observations <= 0) return false;
  // A degenerate interval (zero stddev) still tolerates epsilon-level
  // numeric noise between the estimate and the windowed EWMA.
  constexpr double kSlack = 1e-9;
  const double half_width = 1.96 * estimated_cost_stddev + kSlack;
  return std::abs(windowed_cost_micros - estimated_cost_micros) <= half_width;
}

std::string PlanAudit::ToString() const {
  std::string out = "estimate audit:\n";
  char buf[200];
  for (const PredicateAudit& p : predicates) {
    std::snprintf(buf, sizeof(buf),
                  "  %-14s cost %9.2f -> %9.2f us (x%.2f)   sel %.3f -> %.3f "
                  "(x%.2f)\n",
                  p.predicate_name.c_str(), p.estimated_cost_micros,
                  p.post_cost_micros, p.CostDrift(), p.estimated_selectivity,
                  p.post_selectivity, p.SelectivityDrift());
    out += buf;
    if (p.windowed_observations > 0) {
      std::snprintf(buf, sizeof(buf),
                    "  %-14s   windowed actuals %9.2f us (x%.2f)   sel %.3f "
                    "(x%.2f) over %lld obs\n",
                    "", p.windowed_cost_micros, p.WindowedCostDrift(),
                    p.windowed_selectivity, p.WindowedSelectivityDrift(),
                    static_cast<long long>(p.windowed_observations));
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "  max cost drift: x%.2f\n", max_cost_drift);
  out += buf;
  if (confidence_coverage >= 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "  confidence coverage: %.0f%% of windowed actuals inside "
                  "the plan's 95%% CI\n",
                  confidence_coverage * 100.0);
    out += buf;
  }
  return out;
}

PlanAudit AuditPlan(const Query& query, const Plan& plan,
                    CostCatalog& catalog, int sample_rows) {
  assert(query.table != nullptr);
  assert(plan.estimates.size() == query.predicates.size());
  PlanAudit audit;

  const int64_t n = query.table->num_rows();
  const int64_t stride = n > sample_rows ? n / sample_rows : 1;

  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const UdfPredicate* predicate = query.predicates[i];
    PredicateAudit entry;
    entry.predicate_name = predicate->name();
    entry.estimated_cost_micros = plan.estimates[i].estimated_cost_micros;
    entry.estimated_selectivity = plan.estimates[i].estimated_selectivity;
    entry.estimated_cost_stddev = plan.estimates[i].estimated_cost_stddev;
    entry.support = plan.estimates[i].support;

    std::vector<Point> points;
    points.reserve(static_cast<size_t>(n / stride) + 1);
    for (int64_t row = 0; row < n; row += stride) {
      points.push_back(predicate->ModelPointFor(query.table->Row(row)));
    }
    if (!points.empty()) {
      std::vector<Prediction> costs(points.size());
      std::vector<Prediction> selectivities(points.size());
      catalog.PredictCostBatch(predicate->udf(), points, costs);
      catalog.PredictSelectivityBatch(predicate->udf(), points,
                                      selectivities);
      double cost_sum = 0.0;
      double selectivity_sum = 0.0;
      for (size_t s = 0; s < points.size(); ++s) {
        cost_sum += costs[s].value;
        selectivity_sum += selectivities[s].value;
      }
      const double samples = static_cast<double>(points.size());
      entry.post_cost_micros = cost_sum / samples;
      entry.post_selectivity = selectivity_sum / samples;
    }
    const CostCatalog::WindowedActuals windowed =
        catalog.ReadWindowedActuals(predicate->udf());
    entry.windowed_observations = windowed.observations;
    if (windowed.observations > 0) {
      entry.windowed_cost_micros = windowed.fast_cost_micros;
      entry.windowed_selectivity = windowed.fast_selectivity;
    }
    audit.max_cost_drift =
        std::max(audit.max_cost_drift, entry.EffectiveCostDrift());
    audit.predicates.push_back(std::move(entry));
  }
  int with_window = 0;
  int covered = 0;
  for (const PredicateAudit& p : audit.predicates) {
    if (p.windowed_observations <= 0) continue;
    ++with_window;
    if (p.WindowedWithinConfidence()) ++covered;
  }
  if (with_window > 0) {
    audit.confidence_coverage =
        static_cast<double>(covered) / static_cast<double>(with_window);
  }
  if (obs::Enabled()) {
    obs::CoreMetrics& core = obs::Core();
    core.plan_audits.Inc();
    double max_sel_drift = 0.0;
    for (const PredicateAudit& p : audit.predicates) {
      max_sel_drift = std::max(max_sel_drift, p.EffectiveSelectivityDrift());
    }
    // The drift gauges are the model-health signal, judged against windowed
    // observed actuals once feedback exists (a converged model's own
    // re-estimate would track the plan forever and mask real workload
    // drift): x1.0 means recent executions match the plan's estimates;
    // large values mean the workload has moved since planning.
    core.max_cost_drift.Set(audit.max_cost_drift);
    core.max_selectivity_drift.Set(max_sel_drift);
    MLQ_TRACE_EVENT(obs::TraceEventType::kPlanAudit, obs::NowNs(), 0,
                    audit.max_cost_drift, max_sel_drift);
  }
  return audit;
}

}  // namespace mlq

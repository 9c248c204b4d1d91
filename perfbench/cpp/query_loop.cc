// query_loop: whole queries through the optimizer and executor. The kFull
// real suite's PROX (text), WIN and KNN (spatial) UDFs run over their
// buffer-pooled substrates; a single-threaded catalog at 1.8 KB per model
// learns their costs and selectivities. Each op plans and executes (with
// feedback) one conjunctive query over a fresh seeded 64-row table, its
// three predicates listed worst-first as in examples/mini_ordbms.cpp.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "engine/cost_catalog.h"
#include "engine/executor.h"
#include "engine/query_optimizer.h"
#include "engine/table.h"
#include "engine/udf_predicate.h"
#include "eval/experiment_setup.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Enough tables that the warm-up and every scored query get their own.
constexpr int kTables = 16384;
constexpr int kRows = 64;
constexpr int64_t kWarmupOps = 64;
constexpr int64_t kScoredOps = 16000;
constexpr int kCheckedOps = 32;

class QueryLoop final : public Workload {
 public:
  explicit QueryLoop(uint64_t seed)
      : suite_(mlq::MakeRealUdfSuite(mlq::SubstrateScale::kFull)),
        prox_(suite_.Find("PROX")),
        win_(suite_.Find("WIN")),
        knn_(suite_.Find("KNN")),
        contains_("Contains", &prox_, {0, 1, -1}, mlq::Point{0.0, 0.0, 20.0},
                  1),
        in_urban_("InUrbanArea", &win_, {2, 3, -1, -1},
                  mlq::Point{0.0, 0.0, 120.0, 120.0}, 5),
        near_poi_("NearPOI", &knn_, {2, 3, -1}, mlq::Point{0.0, 0.0, 10.0}, 1),
        catalog_(mlq::kPaperMemoryBytes,
                 mlq::CatalogConcurrency::kSingleThread) {
    const auto vocab =
        static_cast<double>(suite_.text_engine->index().vocab_size());
    mlq::Rng rng(MixSeed(seed, 1));
    for (int t = 0; t < kTables; ++t) {
      tables_.push_back(std::make_unique<mlq::Table>(
          "docs", std::vector<std::string>{"kw1", "kw2", "x", "y"}));
      for (int r = 0; r < kRows; ++r) {
        const double row[] = {std::floor(rng.Uniform(1.0, vocab)),
                              std::floor(rng.Uniform(1.0, vocab)),
                              rng.Uniform(0.0, 1000.0),
                              rng.Uniform(0.0, 1000.0)};
        tables_.back()->AddRow(row);
      }
    }
    mlq::Rng pick(MixSeed(seed, 2));
    for (int k = 0; k < kCheckedOps; ++k) {
      checked_.push_back({pick.UniformInt(0, kScoredOps - 1), {}, -1});
    }
    std::sort(checked_.begin(), checked_.end(),
              [](const Checked& a, const Checked& b) { return a.op < b.op; });
    for (int64_t k = 0; k < kWarmupOps; ++k) {
      const mlq::Query query = QueryAt(k);
      mlq::ExecuteQuery(query, mlq::PlanQuery(query, catalog_), &catalog_);
    }
  }

  int clients() const override { return 1; }
  int64_t scored_ops() const override { return kScoredOps; }
  int64_t trace_every() const override { return 2; }

  void BeginMeasured() override {
    before_ = Totals();
    suite_.text_engine->pool().ResetStats();
    suite_.spatial_engine->pool().ResetStats();
  }

  bool RunOp(int /*client*/, int64_t i) override {
    const mlq::Query query = QueryAt(kWarmupOps + i);
    mlq::Plan plan;
    {
      SpanScope span(SpanName::kOptimizerPlan);
      plan = mlq::PlanQuery(query, catalog_);
    }
    MeteredUdf* metered[] = {&knn_, &prox_, &win_};  // Query order.
    double cost_before[3];
    for (int p = 0; p < 3; ++p) cost_before[p] = metered[p]->nominal_micros();
    mlq::ExecutionStats stats;
    {
      SpanScope span(SpanName::kExecutorExecute);
      stats = mlq::ExecuteQuery(query, plan, &catalog_);
    }

    bool ok = stats.rows_in == kRows && stats.rows_out >= 0 &&
              stats.rows_out <= stats.rows_in &&
              stats.evaluations_per_predicate.size() == 3 &&
              plan.estimates.size() == 3;
    double realized = 0.0;
    for (int p = 0; ok && p < 3; ++p) {
      const double actual = metered[p]->nominal_micros() - cost_before[p];
      const auto evaluations =
          static_cast<double>(stats.evaluations_per_predicate[p]);
      const double predicted =
          plan.estimates[p].estimated_cost_micros * evaluations;
      ok = std::isfinite(predicted) && predicted >= 0.0;
      realized += actual;
      if (i < kScoredOps) {
        nae_.Add(predicted, actual);
        evaluations_ += stats.evaluations_per_predicate[p];
      }
    }
    // The executor's own cost total must match what the UDFs reported.
    ok = ok && std::abs(realized - stats.actual_cost_micros) <=
                   1e-9 * std::max(1.0, stats.actual_cost_micros);
    if (i < kScoredOps) {
      rows_in_ += stats.rows_in;
      cost_micros_ += stats.actual_cost_micros;
      for (Checked& c : checked_) {
        if (c.op == i) c = {i, plan, stats.rows_out};
      }
    }
    return ok;
  }

  // Re-runs a seeded sample of the scored queries without feedback: pass
  // outcomes depend only on the row, so rows_out must repeat.
  bool FinalCheck() override {
    for (const Checked& c : checked_) {
      const mlq::Query query = QueryAt(kWarmupOps + c.op);
      if (c.rows_out < 0 ||
          mlq::ExecuteQuery(query, c.plan, nullptr).rows_out != c.rows_out) {
        return false;
      }
    }
    return true;
  }

  void Collect(int64_t ops, MetricSet& e2e, MetricSet& layer) override {
    e2e.Set("nae", nae_.Value());
    e2e.Set("udf_cost_us_per_row",
            cost_micros_ / static_cast<double>(rows_in_));
    SetQuadtreeMetrics(catalog_, before_, Totals(), ops, layer);
    layer.Set("executor.evals_per_row",
              static_cast<double>(evaluations_) / static_cast<double>(rows_in_));
    const mlq::BufferPool& text = suite_.text_engine->pool();
    const mlq::BufferPool& spatial = suite_.spatial_engine->pool();
    const int64_t hits = text.hits() + spatial.hits();
    const int64_t reads = hits + text.misses() + spatial.misses();
    layer.Set("storage.buffer_hit_rate",
              reads > 0 ? static_cast<double>(hits) / reads : 0.0);
  }

 private:
  struct Checked {
    int64_t op;
    mlq::Plan plan;
    int64_t rows_out;
  };

  mlq::Query QueryAt(int64_t k) const {
    mlq::Query query;
    query.table = tables_[static_cast<size_t>(k) % tables_.size()].get();
    query.predicates = {&near_poi_, &contains_, &in_urban_};  // Worst-first.
    return query;
  }

  QuadtreeTotals Totals() const {
    const mlq::CostedUdf* udfs[] = {&knn_, &prox_, &win_};
    return ReadQuadtreeTotals(catalog_, udfs);
  }

  mlq::RealUdfSuite suite_;
  MeteredUdf prox_;
  MeteredUdf win_;
  MeteredUdf knn_;
  mlq::UdfPredicate contains_;
  mlq::UdfPredicate in_urban_;
  mlq::UdfPredicate near_poi_;
  mlq::CostCatalog catalog_;
  std::vector<std::unique_ptr<mlq::Table>> tables_;
  std::vector<Checked> checked_;
  NaeSum nae_;
  int64_t rows_in_ = 0;
  int64_t evaluations_ = 0;
  double cost_micros_ = 0.0;
  QuadtreeTotals before_;
};

}  // namespace

std::unique_ptr<Workload> MakeQueryLoop(uint64_t seed) {
  return std::make_unique<QueryLoop>(seed);
}

}  // namespace perfbench

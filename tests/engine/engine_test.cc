// Tests for the mini relational engine that integrates the cost models
// into an optimizer/executor feedback loop.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/cost_catalog.h"
#include "engine/estimate_audit.h"
#include "engine/executor.h"
#include "engine/query_optimizer.h"
#include "engine/table.h"
#include "engine/udf_predicate.h"
#include "eval/experiment_setup.h"

namespace mlq {
namespace {

// ---------------------------------------------------------------------------
// Table

TEST(TableTest, SchemaAndRows) {
  Table t("docs", {"kw1", "kw2", "x"});
  EXPECT_EQ(t.name(), "docs");
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.num_rows(), 0);
  EXPECT_EQ(t.ColumnIndex("kw2"), 1);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);

  t.AddRow(std::vector<double>{1.0, 2.0, 3.0});
  t.AddRow(std::vector<double>{4.0, 5.0, 6.0});
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_DOUBLE_EQ(t.Row(0)[2], 3.0);
  EXPECT_DOUBLE_EQ(t.Row(1)[0], 4.0);
}

// ---------------------------------------------------------------------------
// Fixture with real UDFs and a table of plausible argument rows.

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : suite_(MakeRealUdfSuite(SubstrateScale::kSmall)),
        table_("docs_and_places", {"kw1", "kw2", "x", "y"}) {
    Rng rng(7);
    const auto vocab =
        static_cast<double>(suite_.text_engine->index().vocab_size());
    for (int i = 0; i < 300; ++i) {
      table_.AddRow(std::vector<double>{
          std::floor(rng.Uniform(1.0, vocab)),
          std::floor(rng.Uniform(1.0, vocab)),
          rng.Uniform(0.0, 1000.0),
          rng.Uniform(0.0, 1000.0),
      });
    }
  }

  // PROX(kw1, kw2, window=30) finds >= 1 co-occurrence.
  std::unique_ptr<UdfPredicate> MakeProxPredicate() {
    return std::make_unique<UdfPredicate>(
        "Contains", suite_.Find("PROX"),
        std::vector<int>{table_.ColumnIndex("kw1"), table_.ColumnIndex("kw2"),
                         -1},
        Point{0.0, 0.0, 30.0}, /*min_result_count=*/1);
  }

  // WIN(x, y, 120x120) finds >= 5 urban rectangles.
  std::unique_ptr<UdfPredicate> MakeWinPredicate() {
    return std::make_unique<UdfPredicate>(
        "InUrbanArea", suite_.Find("WIN"),
        std::vector<int>{table_.ColumnIndex("x"), table_.ColumnIndex("y"), -1,
                         -1},
        Point{0.0, 0.0, 120.0, 120.0}, /*min_result_count=*/5);
  }

  // KNN(x, y, k=10): always exactly 10 results -> always passes with
  // min_result_count 1; useful as an expensive always-true predicate.
  std::unique_ptr<UdfPredicate> MakeKnnPredicate() {
    return std::make_unique<UdfPredicate>(
        "NearSomething", suite_.Find("KNN"),
        std::vector<int>{table_.ColumnIndex("x"), table_.ColumnIndex("y"), -1},
        Point{0.0, 0.0, 10.0}, /*min_result_count=*/1);
  }

  RealUdfSuite suite_;
  Table table_;
};

TEST_F(EngineTest, PredicateBindingBuildsModelPoints) {
  auto prox = MakeProxPredicate();
  const auto row = table_.Row(0);
  const Point p = prox->ModelPointFor(row);
  ASSERT_EQ(p.dims(), 3);
  EXPECT_DOUBLE_EQ(p[0], row[0]);
  EXPECT_DOUBLE_EQ(p[1], row[1]);
  EXPECT_DOUBLE_EQ(p[2], 30.0);  // Constant.
}

TEST_F(EngineTest, PredicateEvaluationMatchesUdfDirectly) {
  auto win = MakeWinPredicate();
  const auto row = table_.Row(3);
  const UdfPredicate::Outcome outcome = win->Evaluate(row);
  // Re-run the UDF directly at the same point.
  CostedUdf* udf = suite_.Find("WIN");
  udf->Execute(win->ModelPointFor(row));
  EXPECT_EQ(outcome.passed, udf->last_result_count() >= 5);
}

TEST_F(EngineTest, CatalogCreatesThreeModelsPerUdf) {
  CostCatalog catalog(1800);
  CostedUdf* win = suite_.Find("WIN");
  CostCatalog::Entry& entry = catalog.For(win);
  EXPECT_EQ(entry.udf, win);
  EXPECT_EQ(catalog.size(), 1);
  catalog.For(win);  // Idempotent.
  EXPECT_EQ(catalog.size(), 1);
  EXPECT_EQ(catalog.Find(suite_.Find("KNN")), nullptr);
}

TEST_F(EngineTest, CatalogSelectivityDefaultsToHalf) {
  CostCatalog catalog(1800);
  CostedUdf* win = suite_.Find("WIN");
  EXPECT_DOUBLE_EQ(catalog.PredictSelectivity(win, Point{1, 1, 10, 10}), 0.5);
}

TEST_F(EngineTest, CatalogLearnsSelectivity) {
  CostCatalog catalog(1800);
  CostedUdf* win = suite_.Find("WIN");
  // 3 of 4 executions in this region pass.
  const Point p{500.0, 500.0, 120.0, 120.0};
  UdfCost cost;
  cost.cpu_work = 100;
  catalog.RecordExecution(win, p, cost, true);
  catalog.RecordExecution(win, p, cost, true);
  catalog.RecordExecution(win, p, cost, true);
  catalog.RecordExecution(win, p, cost, false);
  EXPECT_NEAR(catalog.PredictSelectivity(win, p), 0.75, 1e-9);
}

TEST_F(EngineTest, CatalogCostCombinesCpuAndIo) {
  CostCatalog catalog(1800);
  CostedUdf* win = suite_.Find("WIN");
  const Point p{500.0, 500.0, 120.0, 120.0};
  UdfCost cost;
  cost.cpu_work = 1000.0;
  cost.io_pages = 2.0;
  catalog.RecordExecution(win, p, cost, true);
  EXPECT_NEAR(catalog.PredictCostMicros(win, p),
              1000.0 * kMicrosPerWorkUnit + 2.0 * kMicrosPerPageMiss, 1e-6);
}

TEST_F(EngineTest, ExecutorMatchesBruteForceSemantics) {
  // Whatever order the plan picks, the result set must equal evaluating
  // every predicate on every row.
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {prox.get(), win.get()};

  CostCatalog catalog(1800);
  const PlannedExecution first = PlanAndExecute(query, catalog);

  // Brute force (no short-circuit, fixed order).
  int64_t expected_out = 0;
  for (int64_t row = 0; row < table_.num_rows(); ++row) {
    const bool a = prox->Evaluate(table_.Row(row)).passed;
    const bool b = win->Evaluate(table_.Row(row)).passed;
    if (a && b) ++expected_out;
  }
  EXPECT_EQ(first.stats.rows_out, expected_out);
  EXPECT_EQ(first.stats.rows_in, table_.num_rows());
}

TEST_F(EngineTest, ShortCircuitSkipsLaterPredicates) {
  auto win = MakeWinPredicate();    // Selective on clustered data.
  auto knn = MakeKnnPredicate();    // Always true, expensive.
  Query query;
  query.table = &table_;
  query.predicates = {win.get(), knn.get()};

  Plan plan;
  plan.order = {0, 1};  // WIN first.
  plan.estimates.resize(2);
  const ExecutionStats stats = ExecuteQuery(query, plan, nullptr);
  // WIN evaluated on every row; KNN only on rows WIN passed.
  EXPECT_EQ(stats.evaluations_per_predicate[0], table_.num_rows());
  EXPECT_EQ(stats.evaluations_per_predicate[1], stats.rows_out);
  EXPECT_LT(stats.rows_out, table_.num_rows());
}

TEST_F(EngineTest, FeedbackImprovesPlans) {
  // Episode loop: the same query shape over fresh rows. After feedback,
  // the optimizer should put the selective-and-cheap predicate before the
  // always-true expensive one, and actual execution cost should not grow.
  auto win = MakeWinPredicate();
  auto knn = MakeKnnPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {knn.get(), win.get()};  // Listed worst-first.

  CostCatalog catalog(1800);
  ExecutionStats first;
  ExecutionStats last;
  Plan last_plan;
  for (int episode = 0; episode < 4; ++episode) {
    const PlannedExecution run = PlanAndExecute(query, catalog);
    if (episode == 0) first = run.stats;
    last = run.stats;
    last_plan = run.plan;
  }
  // Learned plan: WIN (selective) before KNN (always passes).
  ASSERT_EQ(last_plan.order.size(), 2u);
  EXPECT_EQ(last_plan.order[0], 1) << last_plan.Explain();
  // The learned selectivity of KNN is ~1, of WIN well below 1.
  EXPECT_GT(last_plan.estimates[0].estimated_selectivity, 0.9);
  EXPECT_LT(last_plan.estimates[1].estimated_selectivity, 0.8);
  // And the learned plan is no more expensive than the first one.
  EXPECT_LE(last.actual_cost_micros, first.actual_cost_micros * 1.05);
}

TEST_F(EngineTest, PlanExplainListsPredicatesInOrder) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {prox.get(), win.get()};
  CostCatalog catalog(1800);
  const Plan plan = PlanQuery(query, catalog);
  const std::string text = plan.Explain();
  EXPECT_NE(text.find("Contains"), std::string::npos);
  EXPECT_NE(text.find("InUrbanArea"), std::string::npos);
  EXPECT_NE(text.find("cost"), std::string::npos);
}

TEST_F(EngineTest, EmptyTableExecutesCleanly) {
  Table empty("empty", {"kw1", "kw2", "x", "y"});
  auto prox = MakeProxPredicate();
  Query query;
  query.table = &empty;
  query.predicates = {prox.get()};
  CostCatalog catalog(1800);
  const PlannedExecution run = PlanAndExecute(query, catalog);
  EXPECT_EQ(run.stats.rows_in, 0);
  EXPECT_EQ(run.stats.rows_out, 0);
  EXPECT_DOUBLE_EQ(run.stats.actual_cost_micros, 0.0);
}

TEST_F(EngineTest, AdaptiveExecutionMatchesResultSet) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {prox.get(), win.get()};

  // Warm the catalog, then compare adaptive execution's result set against
  // the brute-force semantics.
  CostCatalog catalog(1800);
  PlanAndExecute(query, catalog);
  const ExecutionStats adaptive = ExecuteQueryAdaptive(query, catalog);

  int64_t expected_out = 0;
  for (int64_t row = 0; row < table_.num_rows(); ++row) {
    const bool a = prox->Evaluate(table_.Row(row)).passed;
    const bool b = win->Evaluate(table_.Row(row)).passed;
    if (a && b) ++expected_out;
  }
  EXPECT_EQ(adaptive.rows_out, expected_out);
  EXPECT_EQ(adaptive.rows_in, table_.num_rows());
}

TEST_F(EngineTest, BatchedAdaptiveExecutionMatchesAdaptiveResultSet) {
  // The block-batched adaptive executor must produce the same result set as
  // the per-row adaptive executor: pass/fail depends only on the row, so
  // rows_in/rows_out are invariant to how the model probes are batched.
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {prox.get(), win.get()};

  // Separate catalogs so each executor trains from the same blank state.
  CostCatalog catalog_a(1800);
  PlanAndExecute(query, catalog_a);
  const ExecutionStats adaptive = ExecuteQueryAdaptive(query, catalog_a);

  CostCatalog catalog_b(1800);
  PlanAndExecute(query, catalog_b);
  const ExecutionStats batched =
      ExecuteQueryAdaptiveBatched(query, catalog_b, /*block_rows=*/64);

  EXPECT_EQ(batched.rows_in, adaptive.rows_in);
  EXPECT_EQ(batched.rows_out, adaptive.rows_out);
  // Every row must be evaluated by at least one predicate in both modes.
  int64_t adaptive_evals = 0;
  int64_t batched_evals = 0;
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    adaptive_evals += adaptive.evaluations_per_predicate[i];
    batched_evals += batched.evaluations_per_predicate[i];
  }
  EXPECT_GE(adaptive_evals, adaptive.rows_in);
  EXPECT_GE(batched_evals, batched.rows_in);
}

TEST_F(EngineTest, BatchedAdaptiveHandlesOddBlockSizes) {
  // 300 rows with block_rows=7 exercises the final partial block.
  auto win = MakeWinPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {win.get()};
  CostCatalog catalog(1800);
  const ExecutionStats batched =
      ExecuteQueryAdaptiveBatched(query, catalog, /*block_rows=*/7);
  int64_t expected_out = 0;
  for (int64_t row = 0; row < table_.num_rows(); ++row) {
    if (win->Evaluate(table_.Row(row)).passed) ++expected_out;
  }
  EXPECT_EQ(batched.rows_out, expected_out);
  EXPECT_EQ(batched.evaluations_per_predicate[0], table_.num_rows());
}

TEST_F(EngineTest, CatalogBatchPredictionsMatchScalarCalls) {
  // The batched catalog predictors must be element-wise identical to the
  // scalar entry points on a trained catalog.
  auto win = MakeWinPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {win.get()};
  CostCatalog catalog(1800);
  PlanAndExecute(query, catalog);

  std::vector<Point> points;
  for (int64_t row = 0; row < 50; ++row) {
    points.push_back(win->ModelPointFor(table_.Row(row)));
  }
  std::vector<Prediction> batch_cost(points.size());
  std::vector<Prediction> batch_sel(points.size());
  catalog.PredictCostBatch(win->udf(), points, batch_cost);
  catalog.PredictSelectivityBatch(win->udf(), points, batch_sel);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch_cost[i].value,
                     catalog.PredictCostMicros(win->udf(), points[i]))
        << "row " << i;
    EXPECT_DOUBLE_EQ(batch_sel[i].value,
                     catalog.PredictSelectivity(win->udf(), points[i]))
        << "row " << i;
  }
}

TEST_F(EngineTest, AdaptiveExecutionNoWorseThanStaticOnTrainedCatalog) {
  // Per-row ordering uses per-row predictions; on a workload where PROX's
  // cost varies by orders of magnitude across rows (Zipf term ranks) it
  // should not lose to the single static order, once models are warm.
  auto prox = MakeProxPredicate();
  auto knn = MakeKnnPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {prox.get(), knn.get()};

  CostCatalog catalog(1800);
  for (int warmup = 0; warmup < 2; ++warmup) PlanAndExecute(query, catalog);

  const PlannedExecution fixed = PlanAndExecute(query, catalog);
  const ExecutionStats adaptive = ExecuteQueryAdaptive(query, catalog);
  EXPECT_LE(adaptive.actual_cost_micros, fixed.stats.actual_cost_micros * 1.10);
  EXPECT_EQ(adaptive.rows_out, fixed.stats.rows_out);
}

TEST_F(EngineTest, AuditShowsBlindFirstPlanAndConvergedSecond) {
  // LEO-style audit: the first (blind) plan's estimates drift enormously
  // once execution feedback lands; a replanned query's estimates are
  // nearly self-consistent.
  auto win = MakeWinPredicate();
  auto prox = MakeProxPredicate();
  Query query;
  query.table = &table_;
  query.predicates = {win.get(), prox.get()};

  CostCatalog catalog(1800);
  const Plan blind_plan = PlanQuery(query, catalog);
  ExecuteQuery(query, blind_plan, &catalog);
  const PlanAudit blind_audit = AuditPlan(query, blind_plan, catalog);
  // Blind estimates were 0 cost / 0.5 selectivity: cost drift is infinite.
  EXPECT_TRUE(std::isinf(blind_audit.max_cost_drift))
      << blind_audit.ToString();

  const Plan warm_plan = PlanQuery(query, catalog);
  ExecuteQuery(query, warm_plan, &catalog);
  const PlanAudit warm_audit = AuditPlan(query, warm_plan, catalog);
  EXPECT_LT(warm_audit.max_cost_drift, 3.0) << warm_audit.ToString();
  ASSERT_EQ(warm_audit.predicates.size(), 2u);
  for (const PredicateAudit& p : warm_audit.predicates) {
    EXPECT_GE(p.CostDrift(), 1.0);
    EXPECT_GE(p.SelectivityDrift(), 1.0);
  }
  const std::string text = warm_audit.ToString();
  EXPECT_NE(text.find("InUrbanArea"), std::string::npos);
  EXPECT_NE(text.find("max cost drift"), std::string::npos);
}

TEST_F(EngineTest, AuditDriftOfIdenticalEstimatesIsOne) {
  PredicateAudit audit;
  audit.estimated_cost_micros = 5.0;
  audit.post_cost_micros = 5.0;
  audit.estimated_selectivity = 0.0;
  audit.post_selectivity = 0.0;
  EXPECT_DOUBLE_EQ(audit.CostDrift(), 1.0);
  EXPECT_DOUBLE_EQ(audit.SelectivityDrift(), 1.0);
  audit.post_cost_micros = 10.0;
  EXPECT_DOUBLE_EQ(audit.CostDrift(), 2.0);
  audit.post_cost_micros = 2.5;
  EXPECT_DOUBLE_EQ(audit.CostDrift(), 2.0);
}

TEST_F(EngineTest, QueryWithNoPredicatesPassesEverything) {
  Query query;
  query.table = &table_;
  CostCatalog catalog(1800);
  const PlannedExecution run = PlanAndExecute(query, catalog);
  EXPECT_EQ(run.stats.rows_out, table_.num_rows());
}

}  // namespace
}  // namespace mlq

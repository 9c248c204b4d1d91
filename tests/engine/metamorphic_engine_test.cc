// Metamorphic tests for the adaptive executors: transformations that cannot
// change a conjunctive query's answer must leave its result rows unchanged.
// Pass/fail of a UDF predicate depends only on the row, so the result set
// is invariant to
//   * the order the predicates are listed in,
//   * adding an always-true predicate,
//   * how ExecuteQueryAdaptiveBatched chunks the table into probe blocks,
//   * the risk knob that re-ranks predicates per row,
// while each of those changes the per-row evaluation order, the model
// probes and the feedback the catalog learns from. Every relation is
// checked in all three CatalogConcurrency modes. The row identities (not
// just the count) are pinned by re-running on the oracle's result rows and
// on their complement: the first must pass every row, the second none.
// One relation is stronger than result rows: with one-row blocks the
// batched executor must be indistinguishable from the per-row one, down to
// the serialized trees, even when two predicates share a UDF.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/cost_catalog.h"
#include "engine/executor.h"
#include "engine/query_optimizer.h"
#include "engine/table.h"
#include "engine/udf_predicate.h"
#include "model/mlq_model.h"
#include "model/serialization.h"

namespace mlq {
namespace {

// Deterministic UDF over [0, 1000]^2: the result count and both costs are
// pure functions of the model point, with cost surfaces steep enough that
// the adaptive executors rank the predicates differently from row to row.
class GridUdf : public CostedUdf {
 public:
  GridUdf(std::string name, int64_t modulus, double cpu_slope,
          double io_slope)
      : name_(std::move(name)),
        modulus_(modulus),
        cpu_slope_(cpu_slope),
        io_slope_(io_slope) {}

  std::string_view name() const override { return name_; }
  Box model_space() const override { return Box::Cube(2, 0.0, 1000.0); }
  UdfCost Execute(const Point& p) override {
    const auto x = static_cast<int64_t>(p[0]);
    const auto y = static_cast<int64_t>(p[1]);
    result_count_ = (7 * x + 3 * y) % modulus_;
    return UdfCost{10.0 + cpu_slope_ * p[0], io_slope_ * p[1]};
  }
  int64_t last_result_count() const override { return result_count_; }

 private:
  std::string name_;
  int64_t modulus_;
  double cpu_slope_;
  double io_slope_;
  int64_t result_count_ = 0;
};

const CatalogConcurrency kModes[] = {CatalogConcurrency::kSingleThread,
                                     CatalogConcurrency::kGlobalMutex,
                                     CatalogConcurrency::kSharded};

// One way of running a query end to end on a fresh catalog.
struct Executor {
  std::string name;
  bool batched = false;
  int block_rows = 0;  // 0 = one block holding every row.
  double risk_k = 0.0;
};

class MetamorphicEngineTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 233;

  MetamorphicEngineTest()
      : cheap_("CHEAP", 3, 0.05, 0.0),
        steep_x_("STEEP_X", 4, 2.0, 0.0),
        steep_y_("STEEP_Y", 5, 0.1, 0.02),
        yes_("YES", 1, 1.0, 0.01),
        table_("points", {"x", "y", "u", "v"}) {
    Rng rng(29);
    for (int64_t i = 0; i < kRows; ++i) {
      table_.AddRow(std::vector<double>{
          std::floor(rng.Uniform(0.0, 1000.0)),
          std::floor(rng.Uniform(0.0, 1000.0)),
          std::floor(rng.Uniform(0.0, 1000.0)),
          std::floor(rng.Uniform(0.0, 1000.0))});
    }
    a_ = Bind("A", &cheap_, "x", "y", 1);
    b_ = Bind("B", &steep_x_, "u", "y", 1);
    c_ = Bind("C", &steep_y_, "x", "v", 2);
    // min_result_count 0: passes on every row, yet has a cost to model.
    always_ = Bind("TRUE", &yes_, "v", "u", 0);
  }

  std::unique_ptr<UdfPredicate> Bind(std::string name, CostedUdf* udf,
                                     std::string_view col0,
                                     std::string_view col1,
                                     int64_t min_result_count) {
    return std::make_unique<UdfPredicate>(
        std::move(name), udf,
        std::vector<int>{table_.ColumnIndex(col0), table_.ColumnIndex(col1)},
        Point{0.0, 0.0}, min_result_count);
  }

  std::vector<const UdfPredicate*> Base() const {
    return {a_.get(), b_.get(), c_.get()};
  }

  // Oracle: evaluate every predicate on every row, no short-circuit.
  std::vector<bool> OracleResult() const {
    std::vector<bool> passes(static_cast<size_t>(kRows), true);
    for (int64_t row = 0; row < kRows; ++row) {
      for (const UdfPredicate* p : Base()) {
        if (!p->Evaluate(table_.Row(row)).passed) {
          passes[static_cast<size_t>(row)] = false;
        }
      }
    }
    return passes;
  }

  static std::vector<Executor> Executors() {
    std::vector<Executor> out{{"adaptive", false, 0, 0.0}};
    for (double risk_k : {0.0, 1.5}) {
      for (int block_rows : {1, 7, 64, 0}) {
        out.push_back({"batched(block=" + std::to_string(block_rows) +
                           ",risk_k=" + std::to_string(risk_k) + ")",
                       true, block_rows, risk_k});
      }
    }
    return out;
  }

  // Runs `predicates` over `table` twice on a fresh catalog (cold models,
  // then models trained by the first run's feedback) and returns both
  // executions.
  static std::vector<ExecutionStats> Run(
      const Table& table, std::vector<const UdfPredicate*> predicates,
      CatalogConcurrency mode, const Executor& executor) {
    CostCatalog catalog(1800, mode);
    Query query;
    query.table = &table;
    query.predicates = std::move(predicates);
    std::vector<ExecutionStats> runs;
    for (int round = 0; round < 2; ++round) {
      if (executor.batched) {
        const int block_rows =
            executor.block_rows > 0
                ? executor.block_rows
                : static_cast<int>(std::max<int64_t>(1, table.num_rows()));
        runs.push_back(ExecuteQueryAdaptiveBatched(query, catalog, block_rows,
                                                   executor.risk_k));
      } else {
        runs.push_back(ExecuteQueryAdaptive(query, catalog));
      }
      catalog.FlushFeedback();
    }
    return runs;
  }

  GridUdf cheap_;
  GridUdf steep_x_;
  GridUdf steep_y_;
  GridUdf yes_;
  Table table_;
  std::unique_ptr<UdfPredicate> a_;
  std::unique_ptr<UdfPredicate> b_;
  std::unique_ptr<UdfPredicate> c_;
  std::unique_ptr<UdfPredicate> always_;
};

TEST_F(MetamorphicEngineTest, OracleIsNeitherEmptyNorEverything) {
  // A degenerate result (no rows or all rows) would make every relation
  // below vacuous.
  const std::vector<bool> oracle = OracleResult();
  const auto out = std::count(oracle.begin(), oracle.end(), true);
  EXPECT_GT(out, 5);
  EXPECT_LT(out, kRows - 5);
}

TEST_F(MetamorphicEngineTest, PermutingPredicatesKeepsResultRows) {
  const std::vector<bool> oracle = OracleResult();
  const int64_t expected = std::count(oracle.begin(), oracle.end(), true);
  for (CatalogConcurrency mode : kModes) {
    for (const Executor& executor : Executors()) {
      std::vector<const UdfPredicate*> order = Base();
      std::sort(order.begin(), order.end());
      do {
        for (const ExecutionStats& s : Run(table_, order, mode, executor)) {
          EXPECT_EQ(s.rows_in, kRows);
          EXPECT_EQ(s.rows_out, expected)
              << executor.name << " mode " << static_cast<int>(mode)
              << " order " << order[0]->name() << order[1]->name()
              << order[2]->name();
          // Every result row is evaluated by every predicate.
          for (int64_t evaluations : s.evaluations_per_predicate) {
            EXPECT_GE(evaluations, expected);
            EXPECT_LE(evaluations, kRows);
          }
        }
      } while (std::next_permutation(order.begin(), order.end()));
    }
  }
}

TEST_F(MetamorphicEngineTest, AddingAlwaysTruePredicateKeepsResultRows) {
  const std::vector<bool> oracle = OracleResult();
  const int64_t expected = std::count(oracle.begin(), oracle.end(), true);
  for (CatalogConcurrency mode : kModes) {
    for (const Executor& executor : Executors()) {
      for (size_t at = 0; at <= Base().size(); ++at) {
        std::vector<const UdfPredicate*> predicates = Base();
        predicates.insert(predicates.begin() + static_cast<ptrdiff_t>(at),
                          always_.get());
        for (const ExecutionStats& s :
             Run(table_, predicates, mode, executor)) {
          EXPECT_EQ(s.rows_out, expected)
              << executor.name << " mode " << static_cast<int>(mode)
              << " TRUE at " << at;
          // The always-true predicate never cuts a row short, so it runs
          // on at least every row that reaches the end of its chain.
          EXPECT_GE(s.evaluations_per_predicate[at], expected);
        }
      }
    }
  }
}

TEST_F(MetamorphicEngineTest, ResultRowsAreTheOracleRows) {
  // Split the table into the oracle's result rows and the rest: every
  // executor must pass all of the first and none of the second, so the
  // count equality above is an identity of rows, not a coincidence.
  const std::vector<bool> oracle = OracleResult();
  Table passing("passing", table_.column_names());
  Table failing("failing", table_.column_names());
  for (int64_t row = 0; row < kRows; ++row) {
    (oracle[static_cast<size_t>(row)] ? passing : failing)
        .AddRow(table_.Row(row));
  }
  for (CatalogConcurrency mode : kModes) {
    for (const Executor& executor : Executors()) {
      for (const ExecutionStats& s : Run(passing, Base(), mode, executor)) {
        EXPECT_EQ(s.rows_out, passing.num_rows()) << executor.name;
      }
      for (const ExecutionStats& s : Run(failing, Base(), mode, executor)) {
        EXPECT_EQ(s.rows_out, 0) << executor.name;
      }
    }
  }
}

TEST_F(MetamorphicEngineTest, OneRowBlocksMatchAdaptiveWithSharedUdf) {
  // B and B2 run the same UDF on different columns, so per row either may
  // rank first; C runs a UDF of its own. With one-row blocks the batched
  // executor probes exactly what ExecuteQueryAdaptive probes, so if its
  // deferred feedback reaches each model in evaluation order, two passes
  // on fresh catalogs agree on every stat and on every serialized tree.
  const std::unique_ptr<UdfPredicate> b2 = Bind("B2", &steep_x_, "x", "v", 2);
  Query query;
  query.table = &table_;
  query.predicates = {b_.get(), b2.get(), c_.get()};
  struct Outcome {
    std::vector<ExecutionStats> runs;
    std::vector<std::vector<uint8_t>> trees;
  };
  const auto run = [&query](bool batched) {
    CostCatalog catalog(1800, CatalogConcurrency::kSingleThread);
    Outcome out;
    for (int round = 0; round < 2; ++round) {
      out.runs.push_back(batched ? ExecuteQueryAdaptiveBatched(
                                       query, catalog, /*block_rows=*/1)
                                 : ExecuteQueryAdaptive(query, catalog));
    }
    for (const CostedUdf* udf : {query.predicates[0]->udf(),
                                 query.predicates[2]->udf()}) {
      const CostCatalog::Entry* entry = catalog.Find(udf);
      for (const CostModel* model :
           {entry->cpu_model.get(), entry->io_model.get(),
            entry->selectivity_model.get()}) {
        // kSingleThread catalog models are bare MlqModels.
        out.trees.push_back(
            SerializeQuadtree(dynamic_cast<const MlqModel&>(*model).tree()));
      }
    }
    return out;
  };
  const Outcome adaptive = run(false);
  const Outcome batched = run(true);
  for (size_t round = 0; round < 2; ++round) {
    const ExecutionStats& a = adaptive.runs[round];
    const ExecutionStats& b = batched.runs[round];
    EXPECT_EQ(b.rows_out, a.rows_out) << "pass " << round;
    EXPECT_EQ(b.evaluations_per_predicate, a.evaluations_per_predicate)
        << "pass " << round;
    EXPECT_EQ(b.actual_cost_micros, a.actual_cost_micros) << "pass " << round;
  }
  ASSERT_EQ(batched.trees.size(), adaptive.trees.size());
  for (size_t t = 0; t < adaptive.trees.size(); ++t) {
    EXPECT_EQ(batched.trees[t], adaptive.trees[t]) << "tree " << t;
  }
}

}  // namespace
}  // namespace mlq

// Differential validation of the prediction currency: every model answers
// in Prediction, through two virtuals (PredictDetailed, PredictBatch), and
// the value-only Predict shim must be a pure projection of them. For every
// model and every concurrency decoration:
//   * Predict(p) == PredictDetailed(p).value, BIT FOR BIT;
//   * PredictBatch(points)[i] equals PredictDetailed(points[i]) field-wise.
// The static baselines merged their value and uncertainty bodies into one
// PredictDetailed, so they are inputs here alongside MLQ.
//
// Also regression-tests the stddev NaN fix: sqrt(SSE/C) on an empty
// summary used to be sqrt(0/0) = NaN, and cancellation residue in SSE
// could produce sqrt(negative). SummaryTriple::Stddev() is the single
// robust spelling; these tests pin its edge cases.

#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "model/concurrent_model.h"
#include "model/global_average_model.h"
#include "model/mlq_model.h"
#include "model/neural_model.h"
#include "model/online_grid_model.h"
#include "model/sharded_model.h"
#include "model/static_histogram.h"

namespace mlq {
namespace {

// A smooth deterministic 2-d cost surface with enough structure that node
// summaries carry non-trivial variance.
double Surface(const Point& p) {
  const double x = p[0] / 1000.0;
  const double y = p[1] / 1000.0;
  return 1000.0 * (1.0 + std::sin(3.0 * x) * std::cos(2.0 * y)) +
         500.0 * x * y;
}

MlqConfig DiffConfig(InsertionStrategy strategy, int64_t budget) {
  MlqConfig config;
  config.strategy = strategy;
  config.max_depth = 6;
  config.beta = 1;
  config.memory_limit_bytes = budget;
  return config;
}

std::vector<Point> TrainingPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.push_back(Point{rng.Uniform(0.0, 1000.0),
                           rng.Uniform(0.0, 1000.0)});
  }
  return points;
}

// Checks the value-shim identity on a trained model over a probe set:
// value bit-identical, stddev finite and non-negative, count and depth
// non-negative.
void CheckValueIdentity(const CostModel& model,
                        const std::vector<Point>& probes) {
  for (const Point& p : probes) {
    const double scalar = model.Predict(p);
    const Prediction detailed = model.PredictDetailed(p);
    EXPECT_EQ(scalar, detailed.value);  // Bitwise: == on identical doubles.
    EXPECT_FALSE(std::isnan(detailed.stddev));
    EXPECT_GE(detailed.stddev, 0.0);
    EXPECT_GE(detailed.count, 0);
    EXPECT_GE(detailed.depth, 0);
  }
}

// Checks that the batched path is element-wise identical to the scalar
// PredictDetailed, field for field.
void CheckBatchIdentity(const CostModel& model,
                        const std::vector<Point>& probes) {
  std::vector<Prediction> batch(probes.size());
  model.PredictBatch(probes, batch);
  for (size_t i = 0; i < probes.size(); ++i) {
    const Prediction scalar = model.PredictDetailed(probes[i]);
    EXPECT_EQ(batch[i].value, scalar.value) << "probe " << i;
    EXPECT_EQ(batch[i].stddev, scalar.stddev) << "probe " << i;
    EXPECT_EQ(batch[i].depth, scalar.depth) << "probe " << i;
    EXPECT_EQ(batch[i].count, scalar.count) << "probe " << i;
    EXPECT_EQ(batch[i].reliable, scalar.reliable) << "probe " << i;
  }
}

TEST(VarianceStatsTest, BareMlqValueShimAgreesBitwise) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const auto train = TrainingPoints(2000, 42);
  const auto probes = TrainingPoints(500, 777);
  for (const InsertionStrategy strategy :
       {InsertionStrategy::kEager, InsertionStrategy::kLazy}) {
    MlqModel model(space, DiffConfig(strategy, 1800));
    for (const Point& p : train) model.Observe(p, Surface(p));
    CheckValueIdentity(model, probes);
    CheckBatchIdentity(model, probes);
  }
}

TEST(VarianceStatsTest, ConcurrentDecorationPreservesIdentity) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ConcurrentCostModel model(std::make_unique<MlqModel>(
      space, DiffConfig(InsertionStrategy::kEager, 1800)));
  for (const Point& p : TrainingPoints(2000, 42)) {
    model.Observe(p, Surface(p));
  }
  const auto probes = TrainingPoints(500, 777);
  CheckValueIdentity(model, probes);
  CheckBatchIdentity(model, probes);
}

TEST(VarianceStatsTest, ShardedDecorationPreservesIdentity) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ShardedModelOptions options;
  options.num_shards = 4;
  options.drain_on_predict = true;
  options.queue_capacity = 4096;
  ShardedCostModel model(space, DiffConfig(InsertionStrategy::kLazy, 7200),
                         options);
  for (const Point& p : TrainingPoints(2000, 42)) {
    model.Observe(p, Surface(p));
  }
  model.Flush();
  const auto probes = TrainingPoints(500, 777);
  CheckValueIdentity(model, probes);
  CheckBatchIdentity(model, probes);
}

TEST(VarianceStatsTest, ValueShimTracksDetailedUnderInterleaving) {
  // Mirrors the sharded differential harness: a mixed Observe/Predict
  // stream, checking the identity continuously as the tree reshapes
  // (splits, compressions) rather than only at the end.
  const Box space = Box::Cube(2, 0.0, 1000.0);
  MlqModel model(space, DiffConfig(InsertionStrategy::kEager, 1800));
  Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    const Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    if (rng.NextDouble() < 0.6) {
      model.Observe(p, Surface(p));
    } else {
      EXPECT_EQ(model.Predict(p), model.PredictDetailed(p).value);
    }
  }
}

// ---------------------------------------------------------------------------
// NaN regression: the centralized SummaryTriple::Stddev().

TEST(VarianceStatsTest, EmptySummaryStddevIsZeroNotNan) {
  SummaryTriple t;
  EXPECT_EQ(t.count, 0);
  EXPECT_DOUBLE_EQ(t.Stddev(), 0.0);  // Was sqrt(0/0) = NaN before the fix.
  EXPECT_FALSE(std::isnan(t.Stddev()));
}

TEST(VarianceStatsTest, ConstantValuesHaveExactlyZeroStddev) {
  SummaryTriple t;
  for (int i = 0; i < 3; ++i) t.Add(5.0);
  EXPECT_DOUBLE_EQ(t.Stddev(), 0.0);
}

TEST(VarianceStatsTest, CancellationResidueNeverGoesNegative) {
  // Large near-constant values: SS - C*AVG^2 can land epsilon below zero
  // in floating point. The Sse() clamp must keep Stddev() at 0, never
  // sqrt(negative) = NaN.
  SummaryTriple t;
  t.sum = 3e8;
  t.count = 3;
  t.sum_squares = 3e16 - 3.0;  // Exact SSE would be -3: pure residue.
  EXPECT_DOUBLE_EQ(t.Sse(), 0.0);
  EXPECT_DOUBLE_EQ(t.Stddev(), 0.0);
  EXPECT_FALSE(std::isnan(t.Stddev()));

  SummaryTriple big;
  for (int i = 0; i < 1000; ++i) big.Add(1e8 + (i % 2 == 0 ? 1e-4 : -1e-4));
  EXPECT_FALSE(std::isnan(big.Stddev()));
  EXPECT_GE(big.Stddev(), 0.0);
}

TEST(VarianceStatsTest, EmptyTreePredictionHasZeroStddev) {
  // beta <= 0 admits the empty root as an answer; its summary has count
  // 0, which used to surface NaN stddev through the prediction path.
  const Box space = Box::Cube(2, 0.0, 1000.0);
  MlqConfig config = DiffConfig(InsertionStrategy::kEager, 1800);
  config.beta = 0;
  MlqModel model(space, config);
  const Prediction p = model.PredictDetailed(Point{500.0, 500.0});
  EXPECT_FALSE(std::isnan(p.stddev));
  EXPECT_DOUBLE_EQ(p.stddev, 0.0);
}

// ---------------------------------------------------------------------------
// Baseline models: the currency is honest where native, a safe default
// elsewhere.

TEST(VarianceStatsTest, GlobalAverageReportsNativeStats) {
  GlobalAverageModel model;
  const Point p{1.0, 2.0};
  const Prediction empty = model.PredictDetailed(p);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);
  EXPECT_EQ(empty.count, 0);
  EXPECT_FALSE(empty.reliable);

  model.Observe(p, 10.0);
  model.Observe(p, 20.0);
  const Prediction stats = model.PredictDetailed(p);
  EXPECT_EQ(stats.value, model.Predict(p));
  EXPECT_DOUBLE_EQ(stats.value, 15.0);
  EXPECT_DOUBLE_EQ(stats.stddev, 5.0);  // Population stddev of {10, 20}.
  EXPECT_EQ(stats.count, 2);
  EXPECT_TRUE(stats.reliable);
  CheckBatchIdentity(model, TrainingPoints(20, 5));
}

TEST(VarianceStatsTest, TrainedBaselinesKeepValueIdentity) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const auto train = TrainingPoints(500, 9);
  std::vector<double> costs;
  costs.reserve(train.size());
  for (const Point& p : train) costs.push_back(Surface(p));

  EquiWidthHistogram equi_width(space, 1800);
  equi_width.Train(train, costs);
  EquiHeightHistogram equi_height(space, 1800);
  equi_height.Train(train, costs);
  InfluenceWeightedHistogram influence(space, 1800);
  influence.Train(train, costs);
  OnlineGridModel grid(space, 1800);
  NeuralCostModel neural(space, 1800);
  for (size_t i = 0; i < train.size(); ++i) {
    grid.Observe(train[i], costs[i]);
    neural.Observe(train[i], costs[i]);
  }

  const auto probes = TrainingPoints(200, 321);
  for (const CostModel* model : std::initializer_list<const CostModel*>{
           &equi_width, &equi_height, &influence, &grid, &neural}) {
    SCOPED_TRACE(std::string(model->name()));
    CheckValueIdentity(*model, probes);
    CheckBatchIdentity(*model, probes);
  }
}

TEST(VarianceStatsTest, BaselinesFlagFallbacksAsUnsupported) {
  // Before any training or feedback every baseline answers its default
  // with zero support; once trained, a supported answer is reliable.
  const Box space = Box::Cube(2, 0.0, 1000.0);
  EquiHeightHistogram equi_height(space, 1800);
  InfluenceWeightedHistogram influence(space, 1800);
  NeuralCostModel neural(space, 1800);
  const Point p{500.0, 500.0};
  for (const CostModel* model : std::initializer_list<const CostModel*>{
           &equi_height, &influence, &neural}) {
    SCOPED_TRACE(std::string(model->name()));
    const Prediction cold = model->PredictDetailed(p);
    EXPECT_DOUBLE_EQ(cold.value, 0.0);
    EXPECT_EQ(cold.count, 0);
    EXPECT_FALSE(cold.reliable);
  }
  const auto train = TrainingPoints(500, 9);
  std::vector<double> costs;
  for (const Point& q : train) costs.push_back(Surface(q));
  equi_height.Train(train, costs);
  influence.Train(train, costs);
  for (size_t i = 0; i < train.size(); ++i) neural.Observe(train[i], costs[i]);
  // Probe at training points: their buckets are populated by construction.
  for (const CostModel* model : std::initializer_list<const CostModel*>{
           &equi_height, &influence, &neural}) {
    SCOPED_TRACE(std::string(model->name()));
    const Prediction warm = model->PredictDetailed(train[0]);
    EXPECT_GT(warm.count, 0);
    EXPECT_TRUE(warm.reliable);
  }
  EXPECT_EQ(neural.PredictDetailed(p).count, 500);
  EXPECT_GT(neural.PredictDetailed(p).stddev, 0.0);
}

TEST(VarianceStatsTest, ConfidenceHalfWidthShrinksWithSupport) {
  Prediction none;
  none.value = 10.0;
  none.stddev = 4.0;
  EXPECT_DOUBLE_EQ(none.ConfidenceHalfWidth(), 0.0);
  Prediction one = none;
  one.count = 1;
  EXPECT_DOUBLE_EQ(one.ConfidenceHalfWidth(), 1.96 * 4.0);
  Prediction four = none;
  four.count = 4;
  EXPECT_DOUBLE_EQ(four.ConfidenceHalfWidth(), 1.96 * 2.0);
  EXPECT_LT(four.ConfidenceHalfWidth(), one.ConfidenceHalfWidth());
}

}  // namespace
}  // namespace mlq

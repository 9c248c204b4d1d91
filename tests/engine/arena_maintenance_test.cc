// Catalog-level tests for the shared arena and the batched feedback path:
// RecordExecutionBatch must be indistinguishable from a RecordExecution
// loop, a CompactArenas epoch must reclaim physical slab memory in every
// concurrency mode without moving a single prediction or serialized byte,
// and PartitionedCostModel sub-models built through
// MakeSharedArenaMlqFactory must reuse the catalog slab instead of growing
// private arenas.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/cost_catalog.h"
#include "engine/executor.h"
#include "engine/table.h"
#include "engine/udf_predicate.h"
#include "eval/experiment_setup.h"
#include "model/concurrent_model.h"
#include "model/mlq_model.h"
#include "model/partitioned_model.h"
#include "model/serialization.h"
#include "model/sharded_model.h"

namespace mlq {
namespace {

class ArenaMaintenanceTest : public ::testing::Test {
 protected:
  ArenaMaintenanceTest() : suite_(MakeRealUdfSuite(SubstrateScale::kSmall)) {}

  // A deterministic uniform point inside `box`.
  static Point UniformIn(const Box& box, Rng& rng) {
    Point p(box.dims());
    for (int d = 0; d < box.dims(); ++d) {
      p[d] = rng.Uniform(box.lo()[d], box.hi()[d]);
    }
    return p;
  }

  // A deterministic stream of execution records over `udf`'s model space.
  std::vector<CostCatalog::ExecutionRecord> MakeRecords(const CostedUdf* udf,
                                                        int n, uint64_t seed) {
    Rng rng(seed);
    const Box space = udf->model_space();
    std::vector<CostCatalog::ExecutionRecord> records;
    records.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      CostCatalog::ExecutionRecord r;
      r.model_point = UniformIn(space, rng);
      r.cost.cpu_work = 100.0 + r.model_point[0] * r.model_point[1] / 40.0;
      r.cost.io_pages = std::floor(r.model_point[0] / 50.0);
      r.passed = rng.NextDouble() < 0.3;
      records.push_back(r);
    }
    return records;
  }

  std::vector<Point> ProbePoints(const CostedUdf* udf, int n, uint64_t seed) {
    Rng rng(seed);
    const Box space = udf->model_space();
    std::vector<Point> probes;
    for (int i = 0; i < n; ++i) probes.push_back(UniformIn(space, rng));
    return probes;
  }

  // Serialized images of every tree behind `udf`'s three models, whichever
  // concurrency wrapper the catalog put around them.
  static std::vector<std::vector<uint8_t>> TreeImages(const CostCatalog& catalog,
                                                      const CostedUdf* udf) {
    const CostCatalog::Entry* entry = catalog.Find(udf);
    std::vector<std::vector<uint8_t>> images;
    for (CostModel* model : {entry->cpu_model.get(), entry->io_model.get(),
                             entry->selectivity_model.get()}) {
      if (auto* sharded = dynamic_cast<ShardedCostModel*>(model)) {
        for (int s = 0; s < sharded->num_shards(); ++s) {
          images.push_back(SerializeQuadtree(sharded->shard_model(s).tree()));
        }
        continue;
      }
      if (auto* wrapped = dynamic_cast<ConcurrentCostModel*>(model)) {
        model = &wrapped->inner();
      }
      images.push_back(
          SerializeQuadtree(dynamic_cast<const MlqModel&>(*model).tree()));
    }
    return images;
  }

  RealUdfSuite suite_;
};

// Batch ≡ loop, in every concurrency mode: same cost and selectivity
// predictions at every probe.
TEST_F(ArenaMaintenanceTest, RecordExecutionBatchMatchesLoop) {
  CostedUdf* const win_udf = suite_.Find("WIN");
  const std::vector<CostCatalog::ExecutionRecord> records =
      MakeRecords(win_udf, 3000, 77);
  const std::vector<Point> probes = ProbePoints(win_udf, 300, 5);
  for (const CatalogConcurrency mode :
       {CatalogConcurrency::kSingleThread, CatalogConcurrency::kGlobalMutex,
        CatalogConcurrency::kSharded}) {
    CostCatalog scalar_catalog(1800, mode, /*num_shards=*/1);
    CostCatalog batched_catalog(1800, mode, /*num_shards=*/1);
    CostedUdf* win = suite_.Find("WIN");
    for (const CostCatalog::ExecutionRecord& r : records) {
      scalar_catalog.RecordExecution(win, r.model_point, r.cost, r.passed);
    }
    // Deliver the same stream in uneven chunks.
    for (size_t begin = 0; begin < records.size(); begin += 97) {
      const size_t end = std::min(records.size(), begin + 97);
      batched_catalog.RecordExecutionBatch(
          win, std::span<const CostCatalog::ExecutionRecord>(
                   records.data() + begin, end - begin));
    }
    scalar_catalog.FlushFeedback();
    batched_catalog.FlushFeedback();
    for (const Point& p : probes) {
      ASSERT_EQ(scalar_catalog.PredictCostMicros(win, p),
                batched_catalog.PredictCostMicros(win, p))
          << "mode " << static_cast<int>(mode);
      ASSERT_EQ(scalar_catalog.PredictSelectivity(win, p),
                batched_catalog.PredictSelectivity(win, p))
          << "mode " << static_cast<int>(mode);
    }
  }
}

// The maintenance epoch: churn several UDFs' models (their trees compress
// constantly at the paper's 1.8 KB budget), then CompactArenas in bounded
// steps. Physical slab bytes must drop to the live forest's footprint and
// every prediction and serialized tree must survive the move bit-for-bit.
TEST_F(ArenaMaintenanceTest, CompactArenasReclaimsAndPreservesPredictions) {
  for (const CatalogConcurrency mode :
       {CatalogConcurrency::kSingleThread, CatalogConcurrency::kGlobalMutex,
        CatalogConcurrency::kSharded}) {
    CostCatalog catalog(1800, mode, /*num_shards=*/2);
    CostedUdf* win = suite_.Find("WIN");
    CostedUdf* range = suite_.Find("RANGE");
    for (const CostCatalog::ExecutionRecord& r : MakeRecords(win, 4000, 11)) {
      catalog.RecordExecution(win, r.model_point, r.cost, r.passed);
    }
    for (const CostCatalog::ExecutionRecord& r :
         MakeRecords(range, 4000, 12)) {
      catalog.RecordExecution(range, r.model_point, r.cost, r.passed);
    }
    catalog.FlushFeedback();

    const std::vector<Point> win_probes = ProbePoints(win, 300, 6);
    const std::vector<Point> range_probes = ProbePoints(range, 300, 7);
    std::vector<double> cost_before;
    std::vector<double> sel_before;
    for (const Point& p : win_probes) {
      cost_before.push_back(catalog.PredictCostMicros(win, p));
    }
    for (const Point& p : range_probes) {
      sel_before.push_back(catalog.PredictSelectivity(range, p));
    }

    const std::vector<std::vector<uint8_t>> win_images =
        TreeImages(catalog, win);
    const std::vector<std::vector<uint8_t>> range_images =
        TreeImages(catalog, range);
    const int64_t physical_before = catalog.ArenaPhysicalBytes();
    const CostCatalog::ArenaMaintenanceStats stats =
        catalog.CompactArenas(/*budget_slots=*/256);
    // WIN and RANGE have different dimensionalities, so the catalog holds
    // (and compacts) one arena per fanout.
    EXPECT_EQ(stats.arenas_compacted, 2) << "mode " << static_cast<int>(mode);
    EXPECT_GE(stats.steps, 1);
    EXPECT_EQ(stats.physical_bytes_before, physical_before);
    EXPECT_EQ(stats.physical_bytes_after, catalog.ArenaPhysicalBytes());
    EXPECT_EQ(stats.bytes_reclaimed,
              physical_before - catalog.ArenaPhysicalBytes());
    EXPECT_GT(stats.blocks_moved, 0);
    EXPECT_EQ(catalog.ReadArenaSignals().max_fragmentation, 0.0);
    EXPECT_EQ(TreeImages(catalog, win), win_images);
    EXPECT_EQ(TreeImages(catalog, range), range_images);

    for (size_t i = 0; i < win_probes.size(); ++i) {
      ASSERT_EQ(catalog.PredictCostMicros(win, win_probes[i]), cost_before[i])
          << "mode " << static_cast<int>(mode);
    }
    for (size_t i = 0; i < range_probes.size(); ++i) {
      ASSERT_EQ(catalog.PredictSelectivity(range, range_probes[i]),
                sel_before[i])
          << "mode " << static_cast<int>(mode);
    }
    // The catalog keeps learning after the epoch.
    for (const CostCatalog::ExecutionRecord& r : MakeRecords(win, 500, 13)) {
      catalog.RecordExecution(win, r.model_point, r.cost, r.passed);
    }
    catalog.FlushFeedback();
  }
}

// Compaction reclaims measurable memory after a real inflate-then-shrink
// cycle: models from a big partitioned family are dropped, the slab
// high-water stays, one unbounded CompactStep returns it.
TEST_F(ArenaMaintenanceTest, PartitionedSubModelsReuseCatalogSlab) {
  CostCatalog catalog(1800);
  const Box space = Box::Cube(2, 0.0, 1000.0);
  std::shared_ptr<SharedNodeArena> arena = catalog.ArenaForDims(2);

  MlqConfig base;
  base.strategy = InsertionStrategy::kLazy;
  base.max_depth = 6;
  base.beta = 1;

  Rng rng(31);
  auto feed = [&rng](PartitionedCostModel& model, int keys, int per_key) {
    for (int k = 0; k < keys; ++k) {
      for (int i = 0; i < per_key; ++i) {
        Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
        model.Observe(k, p, 100.0 + p[0] + p[1]);
      }
    }
  };

  // Inflate: a wide partitioned family on the catalog arena.
  {
    PartitionedCostModel wide(
        MakeSharedArenaMlqFactory(space, base, arena),
        /*max_partitions=*/63, /*total_budget_bytes=*/64 * 1800);
    feed(wide, 64, 200);
    EXPECT_EQ(wide.num_partitions(), 63);
    EXPECT_GT(arena->live_count(), 0);
  }
  // The family is gone but its slab high-water is not.
  EXPECT_EQ(arena->live_count(), 0);
  const int64_t inflated = arena->PhysicalCapacityBytes();
  ASSERT_GT(inflated, 0);

  const SharedNodeArena::CompactStepStats stats =
      arena->CompactStep(std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(stats.done);
  EXPECT_EQ(stats.bytes_reclaimed, inflated);
  EXPECT_EQ(arena->PhysicalCapacityBytes(), 0);

  // Physical-slab reuse: a fresh family the same size must not exceed the
  // first one's footprint — every sub-model draws from the shared slabs,
  // none spins up a private arena.
  PartitionedCostModel second(
      MakeSharedArenaMlqFactory(space, base, arena),
      /*max_partitions=*/63, /*total_budget_bytes=*/64 * 1800);
  feed(second, 64, 200);
  EXPECT_LE(arena->PhysicalCapacityBytes(), inflated);
  EXPECT_GT(arena->live_count(), 0);
}

// End-to-end: the batched adaptive executor (probe blocks + block-flushed
// RecordExecutionBatch) must return exactly the per-row adaptive
// executor's results row-for-row when driven on identical fresh catalogs.
TEST_F(ArenaMaintenanceTest, BatchedAdaptiveExecutorMatchesPerRow) {
  Table table("places", {"x", "y"});
  Rng rng(9);
  for (int i = 0; i < 180; ++i) {
    table.AddRow(std::vector<double>{rng.Uniform(0.0, 1000.0),
                                     rng.Uniform(0.0, 1000.0)});
  }
  auto make_query = [&table](RealUdfSuite& suite,
                             std::vector<std::unique_ptr<UdfPredicate>>* keep)
      -> Query {
    keep->push_back(std::make_unique<UdfPredicate>(
        "InUrbanArea", suite.Find("WIN"),
        std::vector<int>{table.ColumnIndex("x"), table.ColumnIndex("y"), -1,
                         -1},
        Point{0.0, 0.0, 120.0, 120.0}, /*min_result_count=*/5));
    keep->push_back(std::make_unique<UdfPredicate>(
        "NearSomething", suite.Find("RANGE"),
        std::vector<int>{table.ColumnIndex("x"), table.ColumnIndex("y"), -1},
        Point{0.0, 0.0, 150.0}, /*min_result_count=*/3));
    Query query;
    query.table = &table;
    query.predicates = {(*keep)[0].get(), (*keep)[1].get()};
    return query;
  };

  std::vector<std::unique_ptr<UdfPredicate>> keep_a;
  RealUdfSuite suite_a = MakeRealUdfSuite(SubstrateScale::kSmall);
  Query query_a = make_query(suite_a, &keep_a);
  CostCatalog catalog_a(1800);
  const ExecutionStats per_row = ExecuteQueryAdaptive(query_a, catalog_a);

  std::vector<std::unique_ptr<UdfPredicate>> keep_b;
  RealUdfSuite suite_b = MakeRealUdfSuite(SubstrateScale::kSmall);
  Query query_b = make_query(suite_b, &keep_b);
  CostCatalog catalog_b(1800);
  const ExecutionStats batched =
      ExecuteQueryAdaptiveBatched(query_b, catalog_b, /*block_rows=*/32);

  EXPECT_EQ(batched.rows_in, per_row.rows_in);
  EXPECT_EQ(batched.rows_out, per_row.rows_out);
}

}  // namespace
}  // namespace mlq

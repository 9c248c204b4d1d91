// MaintenanceScheduler tests: the serving stack must trigger compaction
// epochs autonomously (executor block boundaries and the sharded drain
// hook both reach Tick()), policy triggers must fire and hold back as
// configured, a trigger must quiesce the models only when a whole slab can
// come back (and still flush queued feedback when none can), bounded-step
// epochs must land on the dense layout a single unbounded step reaches,
// and the whole arrangement must stay clean under concurrent serving
// traffic (this binary is a TSan tier-2 target).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/cost_catalog.h"
#include "engine/executor.h"
#include "engine/maintenance_scheduler.h"
#include "engine/table.h"
#include "engine/udf_predicate.h"
#include "eval/experiment_setup.h"
#include "model/mlq_model.h"
#include "model/serialization.h"
#include "model/sharded_model.h"
#include "quadtree/shared_node_arena.h"

namespace mlq {
namespace {

class MaintenanceSchedulerTest : public ::testing::Test {
 protected:
  MaintenanceSchedulerTest() : suite_(MakeRealUdfSuite(SubstrateScale::kSmall)) {}

  static Point UniformIn(const Box& box, Rng& rng) {
    Point p(box.dims());
    for (int d = 0; d < box.dims(); ++d) {
      p[d] = rng.Uniform(box.lo()[d], box.hi()[d]);
    }
    return p;
  }

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

  // Feeds `n` records to WIN in `batch`-sized RecordExecutionBatch calls.
  void Churn(CostCatalog& catalog, CostedUdf* udf, int n, uint64_t seed,
             size_t batch = 128) {
    const std::vector<CostCatalog::ExecutionRecord> records =
        MakeRecords(udf, n, seed);
    for (size_t begin = 0; begin < records.size(); begin += batch) {
      const size_t end = std::min(records.size(), begin + batch);
      catalog.RecordExecutionBatch(
          udf, std::span<const CostCatalog::ExecutionRecord>(
                   records.data() + begin, end - begin));
    }
  }

  // Grows the entry's three trees under a large budget, then shrinks them
  // back to the catalog's default: the compression that follows frees far
  // more than a slab of blocks, so a compaction epoch has whole slabs to
  // return. The catalog's per-model trees alone never span a slab.
  void LeaveReclaimableSlabs(CostCatalog& catalog, CostedUdf* udf,
                             uint64_t seed) {
    catalog.For(udf);
    ASSERT_TRUE(catalog.SetEntryByteBudget(udf, kGrownEntryBytes));
    Churn(catalog, udf, 8000, seed);
    catalog.FlushFeedback();
    ASSERT_TRUE(
        catalog.SetEntryByteBudget(udf, 3 * catalog.memory_limit_bytes()));
  }

  static constexpr int64_t kGrownEntryBytes = 3 * 16 * 1024;

  RealUdfSuite suite_;
};

// The acceptance test for the tentpole wiring: drive the batched adaptive
// executor against a catalog with a registered scheduler and NO explicit
// CompactArenas call anywhere. Once the models have compressed past the
// policy threshold and a whole slab is reclaimable, a block-boundary
// MaintenanceTick must run an epoch on its own.
TEST_F(MaintenanceSchedulerTest, ExecutorTriggersEpochAutonomously) {
  Table table("places", {"x", "y"});
  Rng rng(9);
  for (int i = 0; i < 180; ++i) {
    table.AddRow(std::vector<double>{rng.Uniform(0.0, 1000.0),
                                     rng.Uniform(0.0, 1000.0)});
  }
  std::vector<std::unique_ptr<UdfPredicate>> keep;
  keep.push_back(std::make_unique<UdfPredicate>(
      "InUrbanArea", suite_.Find("WIN"),
      std::vector<int>{table.ColumnIndex("x"), table.ColumnIndex("y"), -1, -1},
      Point{0.0, 0.0, 120.0, 120.0}, /*min_result_count=*/5));
  keep.push_back(std::make_unique<UdfPredicate>(
      "NearSomething", suite_.Find("RANGE"),
      std::vector<int>{table.ColumnIndex("x"), table.ColumnIndex("y"), -1},
      Point{0.0, 0.0, 150.0}, /*min_result_count=*/3));
  Query query;
  query.table = &table;
  query.predicates = {keep[0].get(), keep[1].get()};

  CostCatalog catalog(1800);
  // Fixture: past compressions left whole slabs reclaimable, and both
  // predicates' trees then get room to grow, so the queries below only
  // allocate — the epoch the first tick runs leaves nothing to reclaim.
  for (const auto& predicate : keep) {
    LeaveReclaimableSlabs(catalog, predicate->udf(), 5);
    ASSERT_TRUE(catalog.SetEntryByteBudget(predicate->udf(), kGrownEntryBytes));
  }
  ASSERT_GT(catalog.ReadArenaSignals().reclaimable_bytes, 0);
  MaintenancePolicy policy;
  policy.compression_trigger = 1;
  policy.fragmentation_trigger = 0.0;
  policy.min_ticks_between_epochs = 1;
  policy.step_budget_slots = 1024;
  MaintenanceScheduler scheduler(&catalog, policy);

  // Each run ticks once per 16-row block; rerun until a tick has seen the
  // compressions past the trigger with a slab to reclaim.
  for (int run = 0; run < 20 && scheduler.stats().epochs == 0; ++run) {
    ExecuteQueryAdaptiveBatched(query, catalog, /*block_rows=*/16);
  }
  const MaintenanceSchedulerStats stats = scheduler.stats();
  EXPECT_GT(stats.ticks, 0);
  EXPECT_GE(stats.epochs, 1);
  EXPECT_GE(stats.steps, stats.epochs);
  // The epoch actually compacted: nothing reclaimable is left behind.
  EXPECT_EQ(catalog.ReadArenaSignals().max_fragmentation, 0.0);
}

// Pure feedback traffic in kSharded mode: the sharded model's post-drain
// hook is the only Tick() source, and it must be enough to run an epoch
// (and must not deadlock against the catalog locks it fires under).
TEST_F(MaintenanceSchedulerTest, ShardedDrainHookTriggersEpoch) {
  CostCatalog catalog(1800, CatalogConcurrency::kSharded, /*num_shards=*/2);
  CostedUdf* win = suite_.Find("WIN");
  LeaveReclaimableSlabs(catalog, win, 99);
  ASSERT_GT(catalog.ReadArenaSignals().reclaimable_bytes, 0);
  MaintenancePolicy policy;
  policy.compression_trigger = 1;
  policy.fragmentation_trigger = 0.0;
  policy.min_ticks_between_epochs = 1;
  MaintenanceScheduler scheduler(&catalog, policy);

  for (int round = 0; round < 10 && scheduler.stats().epochs == 0; ++round) {
    Churn(catalog, win, 2000, 100 + static_cast<uint64_t>(round));
  }
  EXPECT_GE(scheduler.stats().epochs, 1);
  // Serving still works after hook-driven epochs.
  for (const Point& p : ProbePoints(win, 50, 4)) {
    const double cost = catalog.PredictCostMicros(win, p);
    EXPECT_TRUE(std::isfinite(cost));
  }
}

// Policy knobs: a quiet catalog with reclaimable space compacts via the
// idle trigger; unreachable thresholds never fire an epoch at all.
TEST_F(MaintenanceSchedulerTest, PolicyTriggersFireAndHoldBack) {
  {
    CostCatalog catalog(1800);
    CostedUdf* win = suite_.Find("WIN");
    LeaveReclaimableSlabs(catalog, win, 20);
    Churn(catalog, win, 6000, 21);
    catalog.FlushFeedback();
    ASSERT_GT(catalog.ReadArenaSignals().max_fragmentation, 0.0)
        << "fixture must leave reclaimable blocks for the idle trigger";
    ASSERT_GT(catalog.ReadArenaSignals().reclaimable_bytes, 0)
        << "fixture must leave a whole slab for the idle trigger";

    MaintenancePolicy idle_policy;
    idle_policy.compression_trigger = 0;
    idle_policy.fragmentation_trigger = 0.0;
    idle_policy.idle_tick_trigger = 3;
    idle_policy.min_ticks_between_epochs = 1;
    MaintenanceScheduler scheduler(&catalog, idle_policy);
    for (int i = 0; i < 10; ++i) catalog.MaintenanceTick();
    EXPECT_GE(scheduler.stats().epochs, 1);
    EXPECT_EQ(catalog.ReadArenaSignals().max_fragmentation, 0.0);
    // With nothing left to reclaim, further idle ticks stay no-ops.
    const int64_t epochs = scheduler.stats().epochs;
    for (int i = 0; i < 10; ++i) catalog.MaintenanceTick();
    EXPECT_EQ(scheduler.stats().epochs, epochs);
  }
  {
    CostCatalog catalog(1800);
    CostedUdf* win = suite_.Find("WIN");
    MaintenancePolicy never;
    never.compression_trigger = 1'000'000'000;
    never.fragmentation_trigger = 0.0;
    never.idle_tick_trigger = 0;
    never.min_ticks_between_epochs = 1;
    MaintenanceScheduler scheduler(&catalog, never);
    Churn(catalog, win, 4000, 22);
    for (int i = 0; i < 50; ++i) catalog.MaintenanceTick();
    EXPECT_GT(scheduler.stats().ticks, 0);
    EXPECT_EQ(scheduler.stats().epochs, 0);
  }
}

// A trigger with no whole slab to return must not quiesce. The tick runs
// while this thread holds every maintenance lock of one entry, which an
// epoch would wait on (the wait is bounded, so the test fails instead of
// hanging); stats().epochs stays put, and the feedback queued on the other
// entry is still applied by the tick.
TEST_F(MaintenanceSchedulerTest, TriggerWithNothingReclaimableSkipsQuiesce) {
  CostCatalog catalog(1800, CatalogConcurrency::kSharded, /*num_shards=*/2);
  CostedUdf* win = suite_.Find("WIN");
  CostedUdf* range = suite_.Find("RANGE");
  Churn(catalog, win, 2000, 61);
  CostCatalog::Entry& held = catalog.For(range);
  catalog.FlushFeedback();
  const CostCatalog::ArenaSignals before = catalog.ReadArenaSignals();
  ASSERT_GT(before.tree_compressions, 0);
  ASSERT_EQ(before.reclaimable_bytes, 0);

  // Scalar feedback stays queued (far below the opportunistic drain batch).
  for (const CostCatalog::ExecutionRecord& r : MakeRecords(win, 16, 62)) {
    catalog.RecordExecution(win, r.model_point, r.cost, r.passed);
  }
  const CostCatalog::Entry* fed = catalog.Find(win);
  const std::vector<const ShardedCostModel*> fed_models = {
      &dynamic_cast<const ShardedCostModel&>(*fed->cpu_model),
      &dynamic_cast<const ShardedCostModel&>(*fed->io_model),
      &dynamic_cast<const ShardedCostModel&>(*fed->selectivity_model)};
  for (const ShardedCostModel* model : fed_models) {
    ASSERT_GT(model->stats().pending, 0);
  }

  MaintenancePolicy policy;
  policy.compression_trigger = 1;
  policy.fragmentation_trigger = 0.0;
  policy.min_ticks_between_epochs = 1;
  MaintenanceScheduler scheduler(&catalog, policy);

  std::vector<std::unique_lock<std::mutex>> locks;
  for (CostModel* model : {held.cpu_model.get(), held.io_model.get(),
                           held.selectivity_model.get()}) {
    for (auto& lock : model->LockForMaintenance()) {
      locks.push_back(std::move(lock));
    }
  }
  auto tick = std::async(std::launch::async,
                         [&catalog] { catalog.MaintenanceTick(); });
  const bool returned =
      tick.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  locks.clear();  // Lets a blocked epoch finish, so the test can fail.
  tick.get();
  EXPECT_TRUE(returned) << "the tick waited on a model lock";
  EXPECT_EQ(scheduler.stats().ticks, 1);
  EXPECT_EQ(scheduler.stats().epochs, 0);
  EXPECT_EQ(scheduler.stats().steps, 0);
  for (const ShardedCostModel* model : fed_models) {
    const ShardedModelStats stats = model->stats();
    EXPECT_EQ(stats.pending, 0);
    EXPECT_EQ(stats.observations_submitted,
              stats.observations_applied + stats.observations_dropped);
  }
  // The trigger was absorbed: the next tick sees no new compressions.
  catalog.MaintenanceTick();
  EXPECT_EQ(scheduler.stats().epochs, 0);
}

// With a whole slab reclaimable, the same trigger runs the epoch, which
// returns exactly the reclaimable bytes and leaves the arenas dense.
TEST_F(MaintenanceSchedulerTest, TriggerWithReclaimableSlabRunsEpoch) {
  CostCatalog catalog(1800, CatalogConcurrency::kSharded, /*num_shards=*/2);
  CostedUdf* win = suite_.Find("WIN");
  LeaveReclaimableSlabs(catalog, win, 71);
  const CostCatalog::ArenaSignals before = catalog.ReadArenaSignals();
  ASSERT_GT(before.tree_compressions, 0);
  ASSERT_GT(before.reclaimable_bytes, 0);
  const int64_t physical_before = catalog.ArenaPhysicalBytes();

  MaintenancePolicy policy;
  policy.compression_trigger = 1;
  policy.fragmentation_trigger = 0.0;
  policy.min_ticks_between_epochs = 1;
  MaintenanceScheduler scheduler(&catalog, policy);
  catalog.MaintenanceTick();

  EXPECT_EQ(scheduler.stats().epochs, 1);
  EXPECT_EQ(scheduler.stats().bytes_reclaimed, before.reclaimable_bytes);
  EXPECT_EQ(catalog.ArenaPhysicalBytes(),
            physical_before - before.reclaimable_bytes);
  const CostCatalog::ArenaSignals after = catalog.ReadArenaSignals();
  EXPECT_EQ(after.max_fragmentation, 0.0);
  EXPECT_EQ(after.reclaimable_bytes, 0);
}

// A bounded-step scheduler epoch must land the catalog on the layout a
// one-step (unbounded) epoch reaches on an identically fed twin: no free
// slot, and physical bytes equal to whole slabs for exactly the blocks the
// trees themselves hold (one root block per tree plus one child block per
// internal node). Trees and predictions are byte- and bit-identical across
// the epoch.
TEST_F(MaintenanceSchedulerTest, BoundedEpochMatchesUnboundedEpoch) {
  CostCatalog bounded_catalog(1800);
  CostCatalog unbounded_catalog(1800);
  CostedUdf* win = suite_.Find("WIN");
  for (CostCatalog* catalog : {&bounded_catalog, &unbounded_catalog}) {
    Churn(*catalog, win, 5000, 55);
    catalog->FlushFeedback();
  }
  // kSingleThread catalog models are bare MlqModels.
  auto trees_of = [win](const CostCatalog& catalog) {
    const CostCatalog::Entry* entry = catalog.Find(win);
    std::vector<const MemoryLimitedQuadtree*> trees;
    for (const CostModel* model :
         {entry->cpu_model.get(), entry->io_model.get(),
          entry->selectivity_model.get()}) {
      trees.push_back(&dynamic_cast<const MlqModel&>(*model).tree());
    }
    return trees;
  };
  auto images_of = [&trees_of](const CostCatalog& catalog) {
    std::vector<std::vector<uint8_t>> images;
    for (const MemoryLimitedQuadtree* tree : trees_of(catalog)) {
      images.push_back(SerializeQuadtree(*tree));
    }
    return images;
  };
  const std::vector<std::vector<uint8_t>> images_before =
      images_of(bounded_catalog);
  ASSERT_EQ(images_of(unbounded_catalog), images_before);
  const std::vector<Point> probes = ProbePoints(win, 300, 8);
  std::vector<double> cost_before;
  std::vector<double> sel_before;
  for (const Point& p : probes) {
    cost_before.push_back(bounded_catalog.PredictCostMicros(win, p));
    sel_before.push_back(bounded_catalog.PredictSelectivity(win, p));
  }
  const int64_t bytes_before = bounded_catalog.ArenaPhysicalBytes();

  MaintenancePolicy bounded_policy;
  bounded_policy.step_budget_slots = 64;
  MaintenanceScheduler bounded_scheduler(&bounded_catalog, bounded_policy);
  MaintenancePolicy unbounded_policy;
  unbounded_policy.step_budget_slots = std::numeric_limits<int64_t>::max();
  MaintenanceScheduler unbounded_scheduler(&unbounded_catalog,
                                           unbounded_policy);
  const CostCatalog::ArenaMaintenanceStats bounded =
      bounded_scheduler.RunEpochNow();
  const CostCatalog::ArenaMaintenanceStats unbounded =
      unbounded_scheduler.RunEpochNow();
  EXPECT_GT(bounded.steps, 1);
  EXPECT_EQ(unbounded.steps, 1);
  EXPECT_EQ(bounded.bytes_reclaimed,
            bytes_before - bounded_catalog.ArenaPhysicalBytes());
  EXPECT_EQ(unbounded.bytes_reclaimed, bounded.bytes_reclaimed);

  // Dense, by a count taken from the trees rather than from the arena.
  const int dims = win->model_space().dims();
  const int fanout = 1 << dims;
  int64_t blocks = 0;
  for (const MemoryLimitedQuadtree* tree : trees_of(bounded_catalog)) {
    ++blocks;
    tree->ForEachNode([&blocks](const NodeView& n, const Box&) {
      if (!n.IsLeaf()) ++blocks;
    });
  }
  const auto slab = static_cast<int64_t>(SharedNodeArena::kSlabSlots);
  const int64_t dense = (blocks * fanout + slab - 1) / slab * slab *
                        static_cast<int64_t>(sizeof(PooledNode));
  EXPECT_EQ(bounded_catalog.ArenaPhysicalBytes(), dense);
  EXPECT_EQ(unbounded_catalog.ArenaPhysicalBytes(), dense);
  EXPECT_EQ(bounded_catalog.ArenaForDims(dims)->free_count(), 0);
  EXPECT_EQ(unbounded_catalog.ArenaForDims(dims)->free_count(), 0);

  EXPECT_EQ(images_of(bounded_catalog), images_before);
  EXPECT_EQ(images_of(unbounded_catalog), images_before);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(bounded_catalog.PredictCostMicros(win, probes[i]),
              cost_before[i]);
    ASSERT_EQ(unbounded_catalog.PredictCostMicros(win, probes[i]),
              cost_before[i]);
    ASSERT_EQ(bounded_catalog.PredictSelectivity(win, probes[i]),
              sel_before[i]);
    ASSERT_EQ(unbounded_catalog.PredictSelectivity(win, probes[i]),
              sel_before[i]);
  }
}

// Concurrent serving with a live scheduler: four threads predict and
// observe while hook-driven epochs relocate blocks under them. The arena
// must come out consistent and predictions finite. (TSan tier-2 target.)
TEST_F(MaintenanceSchedulerTest, ConcurrentServingUnderScheduler) {
  CostCatalog catalog(1800, CatalogConcurrency::kSharded, /*num_shards=*/4);
  CostedUdf* win = suite_.Find("WIN");
  CostedUdf* range = suite_.Find("RANGE");
  // Touch both entries up front so worker threads never race the lazy
  // model construction against each other in interesting ways.
  catalog.PredictCostMicros(win, ProbePoints(win, 1, 1)[0]);
  catalog.PredictCostMicros(range, ProbePoints(range, 1, 2)[0]);
  // Whole slabs to reclaim, so hook-driven epochs do run under the traffic.
  LeaveReclaimableSlabs(catalog, win, 3);
  ASSERT_GT(catalog.ReadArenaSignals().reclaimable_bytes, 0);

  MaintenancePolicy policy;
  policy.compression_trigger = 8;
  policy.fragmentation_trigger = 0.2;
  policy.min_ticks_between_epochs = 2;
  policy.step_budget_slots = 512;
  MaintenanceScheduler scheduler(&catalog, policy);

  constexpr int kThreads = 4;
  std::atomic<int> finite_failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      CostedUdf* udf = (t % 2 == 0) ? win : range;
      const std::vector<CostCatalog::ExecutionRecord> records =
          MakeRecords(udf, 3000, 1000 + static_cast<uint64_t>(t));
      const std::vector<Point> probes = ProbePoints(udf, 100, 40 + t);
      for (size_t begin = 0; begin < records.size(); begin += 64) {
        const size_t end = std::min(records.size(), begin + 64);
        catalog.RecordExecutionBatch(
            udf, std::span<const CostCatalog::ExecutionRecord>(
                     records.data() + begin, end - begin));
        const Point& p = probes[(begin / 64) % probes.size()];
        if (!std::isfinite(catalog.PredictCostMicros(udf, p))) {
          finite_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(finite_failures.load(), 0);
  EXPECT_GT(scheduler.stats().ticks, 0);

  catalog.FlushFeedback();
  std::string error;
  for (const CostedUdf* udf : {static_cast<const CostedUdf*>(win),
                               static_cast<const CostedUdf*>(range)}) {
    std::shared_ptr<SharedNodeArena> arena =
        catalog.ArenaForDims(udf->model_space().dims());
    ASSERT_TRUE(arena->CheckConsistency(&error)) << error;
  }
  // A final forced epoch on the quiesced catalog leaves zero fragmentation.
  scheduler.RunEpochNow();
  EXPECT_EQ(catalog.ReadArenaSignals().max_fragmentation, 0.0);
}

}  // namespace
}  // namespace mlq

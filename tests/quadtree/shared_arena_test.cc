// SharedNodeArena: many trees on one slab pool.
//
// Covers the properties the catalog depends on: (1) trees sharing an arena
// behave exactly like trees on private arenas (same bytes, same
// predictions); (2) compression churn in one tree recycles blocks for its
// neighbours, and budget-boundary churn never corrupts the free-list;
// (3) an unbounded CompactStep() reclaims physical slab memory without
// changing any tree; (4) the whole thing survives adversarial thread
// interleavings (the TSan suite runs this file).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/serialization.h"
#include "quadtree/memory_limited_quadtree.h"
#include "quadtree/shared_node_arena.h"

namespace mlq {
namespace {

double Surface(const Point& p, double phase) {
  const double x = p[0] / 1000.0;
  const double y = p[1] / 1000.0;
  return 1000.0 * (1.0 + std::sin(3.0 * x + phase) * std::cos(2.0 * y)) +
         500.0 * x * y;
}

MlqConfig ChurnConfig(int64_t budget) {
  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.max_depth = 6;
  config.beta = 1;
  config.memory_limit_bytes = budget;
  return config;
}

std::vector<Observation> MakeWorkload(int n, uint64_t seed, double phase) {
  Rng rng(seed);
  std::vector<Observation> workload;
  workload.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    workload.push_back({p, Surface(p, phase) + rng.Gaussian(0.0, 25.0)});
  }
  return workload;
}

// The slab table has a fixed capacity; a request beyond it fails loudly in
// every build type, before anything is allocated, instead of stopping
// short (or, on the allocation path, writing past the table). Exhausting
// the table through AllocateBlock takes about 400 MB of slabs, so only the
// Reserve path is exercised here.
TEST(SharedArenaTest, ReserveBeyondSlabTableThrows) {
  constexpr size_t kCapacity =
      SharedNodeArena::kMaxSlabs * SharedNodeArena::kSlabSlots;
  SharedNodeArena arena(4);
  EXPECT_THROW(arena.Reserve(kCapacity + 1), std::length_error);
  EXPECT_EQ(arena.PhysicalCapacityBytes(), 0);
  arena.Reserve(SharedNodeArena::kSlabSlots + 1);
  EXPECT_EQ(arena.PhysicalCapacityBytes(),
            static_cast<int64_t>(2 * SharedNodeArena::kSlabSlots *
                                 sizeof(PooledNode)));
  EXPECT_THROW(arena.Reserve(kCapacity + 1), std::length_error);
  EXPECT_EQ(arena.PhysicalCapacityBytes(),
            static_cast<int64_t>(2 * SharedNodeArena::kSlabSlots *
                                 sizeof(PooledNode)));
}

// A tree on a shared arena must be indistinguishable — bytes and
// predictions — from the same workload on a private arena, even when the
// arena is interleaved with other trees' allocation and free traffic.
TEST(SharedArenaTest, SharedTreeMatchesPrivateTree) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const MlqConfig config = ChurnConfig(1800);
  auto arena = std::make_shared<SharedNodeArena>(4);

  MemoryLimitedQuadtree private_tree(space, config);
  MemoryLimitedQuadtree shared_a(space, config, arena);
  MemoryLimitedQuadtree shared_b(space, config, arena);

  const std::vector<Observation> workload = MakeWorkload(4000, 17, 0.0);
  const std::vector<Observation> noise = MakeWorkload(4000, 18, 1.5);
  for (size_t i = 0; i < workload.size(); ++i) {
    private_tree.Insert(workload[i].point, workload[i].value);
    shared_a.Insert(workload[i].point, workload[i].value);
    // Interleave a second tree's traffic so shared_a's slot indices are
    // scattered across the arena, unlike the private tree's.
    shared_b.Insert(noise[i].point, noise[i].value);
  }
  ASSERT_GT(private_tree.counters().compressions, 0);

  EXPECT_EQ(SerializeQuadtree(shared_a), SerializeQuadtree(private_tree));
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    const Prediction a = private_tree.Predict(p);
    const Prediction b = shared_a.Predict(p);
    ASSERT_EQ(a.value, b.value);
    ASSERT_EQ(a.count, b.count);
  }

  std::string error;
  EXPECT_TRUE(arena->CheckConsistency(&error)) << error;
  EXPECT_TRUE(shared_a.CheckInvariants(&error)) << error;
  EXPECT_TRUE(shared_b.CheckInvariants(&error)) << error;
}

// Tight budgets force constant compress/grow cycling right at the block
// boundary; with three trees doing it on one arena the free-list is churned
// from all sides.
TEST(SharedArenaTest, BudgetBoundaryChurn) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  auto arena = std::make_shared<SharedNodeArena>(4);
  // The smallest budgets that admit a root plus a handful of children.
  std::vector<std::unique_ptr<MemoryLimitedQuadtree>> trees;
  for (int64_t budget : {kNodeBaseBytes + 4 * kNonRootNodeBytes,
                         kNodeBaseBytes + 7 * kNonRootNodeBytes,
                         kNodeBaseBytes + 11 * kNonRootNodeBytes}) {
    trees.push_back(std::make_unique<MemoryLimitedQuadtree>(
        space, ChurnConfig(budget), arena));
  }
  Rng rng(4242);
  for (int i = 0; i < 6000; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    trees[static_cast<size_t>(i) % trees.size()]->Insert(p, Surface(p, 0.3));
  }
  std::string error;
  ASSERT_TRUE(arena->CheckConsistency(&error)) << error;
  int64_t live = 0;
  for (const auto& tree : trees) {
    ASSERT_TRUE(tree->CheckInvariants(&error)) << error;
    ASSERT_LE(tree->memory_used(), tree->config().memory_limit_bytes);
    live += tree->num_nodes();
  }
  EXPECT_EQ(live, arena->live_count());
}

// Destroying a shared-arena tree must hand every one of its blocks back.
TEST(SharedArenaTest, TreeDestructionReturnsBlocks) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  auto arena = std::make_shared<SharedNodeArena>(4);
  MemoryLimitedQuadtree survivor(space, ChurnConfig(8 * 1024), arena);
  for (const Observation& o : MakeWorkload(1000, 5, 0.0)) {
    survivor.Insert(o.point, o.value);
  }
  const int64_t survivor_nodes = survivor.num_nodes();
  {
    MemoryLimitedQuadtree doomed(space, ChurnConfig(8 * 1024), arena);
    for (const Observation& o : MakeWorkload(1000, 6, 2.0)) {
      doomed.Insert(o.point, o.value);
    }
    EXPECT_GT(arena->live_count(), survivor_nodes);
  }
  EXPECT_EQ(arena->live_count(), survivor_nodes);
  std::string error;
  EXPECT_TRUE(arena->CheckConsistency(&error)) << error;
  // The freed blocks are immediately reusable by a new tenant.
  const int64_t slots_before = static_cast<int64_t>(arena->slot_count());
  MemoryLimitedQuadtree tenant(space, ChurnConfig(8 * 1024), arena);
  for (const Observation& o : MakeWorkload(1000, 6, 2.0)) {
    tenant.Insert(o.point, o.value);
  }
  EXPECT_EQ(static_cast<int64_t>(arena->slot_count()), slots_before);
}

// A whole compaction pass (one unbounded CompactStep) must reclaim the
// high-water slab memory left behind by a departed tenant and by
// compression churn — without moving any tree's observable state.
TEST(SharedArenaTest, CompactReclaimsWithoutChangingPredictions) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  auto arena = std::make_shared<SharedNodeArena>(4);
  MemoryLimitedQuadtree keeper(space, ChurnConfig(1800), arena);
  for (const Observation& o : MakeWorkload(3000, 8, 0.0)) {
    keeper.Insert(o.point, o.value);
  }
  // A hog inflates the arena past one slab, then leaves.
  {
    MemoryLimitedQuadtree hog(space, ChurnConfig(256 * 1024), arena);
    for (const Observation& o : MakeWorkload(20000, 9, 1.0)) {
      hog.Insert(o.point, o.value);
    }
    ASSERT_GT(arena->PhysicalCapacityBytes(),
              static_cast<int64_t>(SharedNodeArena::kSlabSlots *
                                   sizeof(PooledNode)));
  }

  const std::vector<uint8_t> bytes_before = SerializeQuadtree(keeper);
  std::vector<Prediction> before;
  Rng rng(1);
  std::vector<Point> probes;
  for (int i = 0; i < 400; ++i) {
    probes.push_back(Point{rng.Uniform(0.0, 1000.0),
                           rng.Uniform(0.0, 1000.0)});
    before.push_back(keeper.Predict(probes.back()));
  }

  const int64_t physical_before = arena->PhysicalCapacityBytes();
  const SharedNodeArena::CompactStepStats stats =
      arena->CompactStep(std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(stats.done);
  EXPECT_GT(stats.bytes_reclaimed, 0);
  EXPECT_EQ(arena->PhysicalCapacityBytes(),
            physical_before - stats.bytes_reclaimed);
  EXPECT_EQ(arena->free_count(), 0);
  EXPECT_EQ(arena->compactions(), 1);

  std::string error;
  ASSERT_TRUE(arena->CheckConsistency(&error)) << error;
  ASSERT_TRUE(keeper.CheckInvariants(&error)) << error;
  EXPECT_EQ(SerializeQuadtree(keeper), bytes_before);
  for (size_t i = 0; i < probes.size(); ++i) {
    const Prediction after = keeper.Predict(probes[i]);
    ASSERT_EQ(after.value, before[i].value);
    ASSERT_EQ(after.count, before[i].count);
  }
  // The tree keeps working (inserting, compressing) on the compacted slabs.
  for (const Observation& o : MakeWorkload(2000, 10, 0.5)) {
    keeper.Insert(o.point, o.value);
  }
  ASSERT_TRUE(keeper.CheckInvariants(&error)) << error;
}

// Deserializing straight into a shared arena round-trips.
TEST(SharedArenaTest, DeserializeIntoSharedArena) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  MemoryLimitedQuadtree original(space, ChurnConfig(1800));
  for (const Observation& o : MakeWorkload(3000, 12, 0.0)) {
    original.Insert(o.point, o.value);
  }
  const std::vector<uint8_t> bytes = SerializeQuadtree(original);

  auto arena = std::make_shared<SharedNodeArena>(4);
  // Pre-populate the arena so the restored tree lands on scattered slots.
  MemoryLimitedQuadtree other(space, ChurnConfig(4096), arena);
  for (const Observation& o : MakeWorkload(500, 13, 2.0)) {
    other.Insert(o.point, o.value);
  }

  std::string error;
  std::unique_ptr<MemoryLimitedQuadtree> restored =
      DeserializeQuadtree(bytes, arena, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(SerializeQuadtree(*restored), bytes);
  ASSERT_TRUE(restored->CheckInvariants(&error)) << error;

  // Fanout mismatch is rejected, not mangled.
  auto wrong = std::make_shared<SharedNodeArena>(8);
  EXPECT_EQ(DeserializeQuadtree(bytes, wrong, &error), nullptr);
}

// Adversarial interleaving (the TSan target): two trees compressing under
// tight budgets while a third inserts, all hammering the one arena. Each
// tree is owned by one thread — the arena's own mutex is the only shared
// synchronization, exactly the catalog's access pattern.
TEST(SharedArenaTest, ConcurrentChurnThreeTrees) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  auto arena = std::make_shared<SharedNodeArena>(4);
  MemoryLimitedQuadtree churn_a(space, ChurnConfig(1800), arena);
  MemoryLimitedQuadtree churn_b(
      space, ChurnConfig(kNodeBaseBytes + 6 * kNonRootNodeBytes), arena);
  MemoryLimitedQuadtree grower(space, ChurnConfig(512 * 1024), arena);

  std::atomic<bool> failed{false};
  auto drive = [&failed](MemoryLimitedQuadtree* tree, uint64_t seed,
                         double phase, int n) {
    Rng rng(seed);
    for (int i = 0; i < n && !failed.load(std::memory_order_relaxed); ++i) {
      Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
      tree->Insert(p, Surface(p, phase));
      if ((i & 63) == 0) {
        const Prediction pred = tree->Predict(p);
        if (!std::isfinite(pred.value)) {
          failed.store(true, std::memory_order_relaxed);
        }
      }
    }
  };
  std::thread ta(drive, &churn_a, 101, 0.0, 8000);
  std::thread tb(drive, &churn_b, 102, 1.0, 8000);
  std::thread tc(drive, &grower, 103, 2.0, 8000);
  ta.join();
  tb.join();
  tc.join();
  ASSERT_FALSE(failed.load());

  std::string error;
  ASSERT_TRUE(arena->CheckConsistency(&error)) << error;
  for (MemoryLimitedQuadtree* tree : {&churn_a, &churn_b, &grower}) {
    ASSERT_TRUE(tree->CheckInvariants(&error)) << error;
  }
  EXPECT_EQ(churn_a.num_nodes() + churn_b.num_nodes() + grower.num_nodes(),
            arena->live_count());
}

}  // namespace
}  // namespace mlq

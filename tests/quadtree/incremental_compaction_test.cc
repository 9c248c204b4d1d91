// Arena compaction (SharedNodeArena::CompactStep).
//
// The contract under test: a sequence of bounded CompactStep calls (1)
// never moves more than its per-step budget, (2) keeps the arena and every
// resident tree consistent after every step, (3) converges to the dense
// layout — physical bytes equal to whole slabs for exactly the live blocks
// counted from the trees themselves — with byte-identical serialized trees
// and probe-identical predictions, the same end state a single unbounded
// step reaches, and (4) patches registered root handles when a root block
// relocates. An unbounded budget (INT64_MAX) must not overflow the step's
// budget arithmetic on any fanout. The pause-bound property (each bounded
// step an order of magnitude below an unbounded one on a 100k-slot arena)
// is the IncrementalCompactionTimingTest suite, registered as its own
// ctest labelled `timing`, and is tracked over time by bench/micro_ops.cc.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/timer.h"
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

// Builds a fragmented arena: `keeper` interleaved with a hog that then
// departs, leaving its blocks as holes scattered through keeper's.
std::shared_ptr<SharedNodeArena> FragmentedArena(
    std::unique_ptr<MemoryLimitedQuadtree>* keeper, int64_t keeper_budget,
    uint64_t seed) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  auto arena = std::make_shared<SharedNodeArena>(4);
  *keeper = std::make_unique<MemoryLimitedQuadtree>(
      space, ChurnConfig(keeper_budget), arena);
  auto hog = std::make_unique<MemoryLimitedQuadtree>(
      space, ChurnConfig(256 * 1024), arena);
  const std::vector<Observation> keep = MakeWorkload(4000, seed, 0.0);
  const std::vector<Observation> churn = MakeWorkload(8000, seed + 1, 1.5);
  for (size_t i = 0; i < keep.size(); ++i) {
    (*keeper)->Insert(keep[i].point, keep[i].value);
    hog->Insert(churn[2 * i].point, churn[2 * i].value);
    hog->Insert(churn[2 * i + 1].point, churn[2 * i + 1].value);
  }
  hog.reset();  // Holes everywhere keeper's blocks are not.
  return arena;
}

constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();

// The dense footprint of an arena holding exactly `trees`, counted from the
// trees themselves: one root block per tree plus one child block per
// internal node, packed into whole slabs.
int64_t DenseBytes(const std::vector<const MemoryLimitedQuadtree*>& trees,
                   int fanout) {
  int64_t blocks = 0;
  for (const MemoryLimitedQuadtree* tree : trees) {
    ++blocks;
    tree->ForEachNode([&blocks](const NodeView& n, const Box&) {
      if (!n.IsLeaf()) ++blocks;
    });
  }
  const auto slab = static_cast<int64_t>(SharedNodeArena::kSlabSlots);
  const int64_t slabs = (blocks * fanout + slab - 1) / slab;
  return slabs * slab * static_cast<int64_t>(sizeof(PooledNode));
}

TEST(IncrementalCompactionTest, StepsAreBoundedAndKeepConsistency) {
  std::unique_ptr<MemoryLimitedQuadtree> keeper;
  std::shared_ptr<SharedNodeArena> arena =
      FragmentedArena(&keeper, 64 * 1024, 21);
  ASSERT_GT(arena->free_count(), 0);

  const std::vector<uint8_t> bytes_before = SerializeQuadtree(*keeper);
  const int64_t budget_slots = 64;  // 16 block moves per step (fanout 4).
  std::string error;
  int steps = 0;
  SharedNodeArena::CompactStepStats step;
  do {
    step = arena->CompactStep(budget_slots);
    ASSERT_LE(step.blocks_moved, budget_slots / 4);
    ASSERT_TRUE(arena->CheckConsistency(&error)) << error;
    ASSERT_TRUE(keeper->CheckInvariants(&error)) << error;
    ASSERT_LT(++steps, 10000) << "incremental compaction failed to converge";
  } while (!step.done);

  // Converged: dense (no free slots), trees untouched byte for byte.
  EXPECT_EQ(arena->free_count(), 0);
  EXPECT_EQ(arena->PhysicalCapacityBytes(), DenseBytes({keeper.get()}, 4));
  EXPECT_GT(steps, 1);  // The budget actually split the work.
  EXPECT_EQ(SerializeQuadtree(*keeper), bytes_before);
  EXPECT_EQ(arena->compactions(), 1);  // The finished pass counts once.
}

TEST(IncrementalCompactionTest, BoundedStepsConvergeToUnboundedStepState) {
  // Twin arenas with identical histories; one compacts in one unbounded
  // step, the other in bounded steps.
  std::unique_ptr<MemoryLimitedQuadtree> keeper_once;
  std::unique_ptr<MemoryLimitedQuadtree> keeper_step;
  std::shared_ptr<SharedNodeArena> once =
      FragmentedArena(&keeper_once, 1800, 33);
  std::shared_ptr<SharedNodeArena> step =
      FragmentedArena(&keeper_step, 1800, 33);
  ASSERT_EQ(once->slot_count(), step->slot_count());
  ASSERT_GT(once->free_count(), 0);
  const int64_t bytes_before = once->PhysicalCapacityBytes();
  const std::vector<uint8_t> image_before = SerializeQuadtree(*keeper_once);
  Rng rng(7);
  std::vector<Point> probes;
  std::vector<Prediction> before;
  for (int i = 0; i < 500; ++i) {
    probes.push_back(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
    before.push_back(keeper_once->Predict(probes.back()));
  }

  const SharedNodeArena::CompactStepStats whole = once->CompactStep(kUnbounded);
  EXPECT_TRUE(whole.done);  // One call finishes the pass.
  EXPECT_EQ(whole.bytes_reclaimed,
            bytes_before - once->PhysicalCapacityBytes());
  int steps = 0;
  while (!step->CompactStep(128).done) ++steps;
  EXPECT_GT(steps, 0);

  // Both twins are dense: exactly the slabs the trees' own blocks need.
  const int64_t dense = DenseBytes({keeper_once.get()}, 4);
  EXPECT_LT(dense, bytes_before);
  EXPECT_EQ(once->PhysicalCapacityBytes(), dense);
  EXPECT_EQ(step->PhysicalCapacityBytes(), dense);
  EXPECT_EQ(once->free_count(), 0);
  EXPECT_EQ(step->free_count(), 0);
  std::string error;
  ASSERT_TRUE(once->CheckConsistency(&error)) << error;
  ASSERT_TRUE(step->CheckConsistency(&error)) << error;
  // Block order may differ, but serialization v2 renumbers to visit order,
  // so the byte images must agree exactly — with each other and with the
  // pre-compaction tree.
  EXPECT_EQ(SerializeQuadtree(*keeper_once), image_before);
  EXPECT_EQ(SerializeQuadtree(*keeper_step), image_before);
  for (size_t i = 0; i < probes.size(); ++i) {
    const Prediction a = keeper_once->Predict(probes[i]);
    const Prediction b = keeper_step->Predict(probes[i]);
    ASSERT_EQ(a.value, before[i].value);
    ASSERT_EQ(a.count, before[i].count);
    ASSERT_EQ(b.value, before[i].value);
    ASSERT_EQ(b.count, before[i].count);
  }
}

// An unbounded budget saturates the step's budget arithmetic instead of
// overflowing it (fanout 2 is the worst case: budget / 2 moves, four pops
// per move), and still finishes the whole pass in one call.
TEST(IncrementalCompactionTest, UnboundedBudgetConvergesInOneCall) {
  for (const int dims : {1, 2}) {
    const Box space = Box::Cube(dims, 0.0, 1000.0);
    auto arena = std::make_shared<SharedNodeArena>(1 << dims);
    MemoryLimitedQuadtree keeper(space, ChurnConfig(4096), arena);
    {
      MemoryLimitedQuadtree hog(space, ChurnConfig(64 * 1024), arena);
      Rng rng(90 + static_cast<uint64_t>(dims));
      for (int i = 0; i < 6000; ++i) {
        Point p(dims);
        for (int d = 0; d < dims; ++d) p[d] = rng.Uniform(0.0, 1000.0);
        const double cost = 100.0 + p[0] + rng.Gaussian(0.0, 25.0);
        if (i % 3 == 0) {
          keeper.Insert(p, cost);
        } else {
          hog.Insert(p, cost);
        }
      }
    }
    ASSERT_GT(arena->free_count(), 0) << "dims " << dims;
    const std::vector<uint8_t> image = SerializeQuadtree(keeper);

    const SharedNodeArena::CompactStepStats step =
        arena->CompactStep(kUnbounded);
    EXPECT_TRUE(step.done) << "dims " << dims;
    EXPECT_GT(step.bytes_reclaimed, 0) << "dims " << dims;
    EXPECT_EQ(arena->free_count(), 0) << "dims " << dims;
    EXPECT_EQ(arena->PhysicalCapacityBytes(), DenseBytes({&keeper}, 1 << dims))
        << "dims " << dims;
    std::string error;
    ASSERT_TRUE(arena->CheckConsistency(&error)) << error;
    ASSERT_TRUE(keeper.CheckInvariants(&error)) << error;
    EXPECT_EQ(SerializeQuadtree(keeper), image) << "dims " << dims;
  }
}

// Serialization v2 must be layout-independent: an MLQ-L tree that lived
// through incremental compaction of its shared arena serializes to the
// exact bytes of a never-compacted twin, and round-trips through a fresh
// shared arena.
TEST(IncrementalCompactionTest, SerializationV2UnchangedByIncrementalSteps) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  const MlqConfig config = ChurnConfig(1800);  // kLazy — an MLQ-L tree.
  MemoryLimitedQuadtree pristine(space, config);

  auto arena = std::make_shared<SharedNodeArena>(4);
  MemoryLimitedQuadtree shared_tree(space, config, arena);
  {
    MemoryLimitedQuadtree neighbour(space, ChurnConfig(64 * 1024), arena);
    const std::vector<Observation> workload = MakeWorkload(4000, 55, 0.0);
    const std::vector<Observation> noise = MakeWorkload(4000, 56, 2.0);
    for (size_t i = 0; i < workload.size(); ++i) {
      pristine.Insert(workload[i].point, workload[i].value);
      shared_tree.Insert(workload[i].point, workload[i].value);
      neighbour.Insert(noise[i].point, noise[i].value);
    }
  }
  ASSERT_GT(arena->free_count(), 0);  // The neighbour left holes behind.

  while (!arena->CompactStep(64).done) {
  }

  const std::vector<uint8_t> bytes = SerializeQuadtree(shared_tree);
  EXPECT_EQ(bytes, SerializeQuadtree(pristine));

  std::string error;
  auto fresh = std::make_shared<SharedNodeArena>(4);
  std::unique_ptr<MemoryLimitedQuadtree> restored =
      DeserializeQuadtree(bytes, fresh, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(SerializeQuadtree(*restored), bytes);
  ASSERT_TRUE(restored->CheckInvariants(&error)) << error;
}

// Root blocks relocate like any other block; the registered &root_ handles
// must be patched or every later tree operation dereferences a stale index.
TEST(IncrementalCompactionTest, RootBlocksArePatched) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  auto arena = std::make_shared<SharedNodeArena>(4);
  // The hog allocates first, so the late trees' root blocks land near the
  // top of the extent — exactly the blocks CompactStep relocates downward.
  auto hog = std::make_unique<MemoryLimitedQuadtree>(
      space, ChurnConfig(256 * 1024), arena);
  for (const Observation& o : MakeWorkload(8000, 61, 1.0)) {
    hog->Insert(o.point, o.value);
  }
  std::vector<std::unique_ptr<MemoryLimitedQuadtree>> late;
  for (int t = 0; t < 4; ++t) {
    late.push_back(std::make_unique<MemoryLimitedQuadtree>(
        space, ChurnConfig(1800), arena));
    for (const Observation& o :
         MakeWorkload(1500, 70 + static_cast<uint64_t>(t),
                      0.4 * static_cast<double>(t))) {
      late.back()->Insert(o.point, o.value);
    }
  }
  hog.reset();

  std::vector<std::vector<uint8_t>> bytes_before;
  for (const auto& tree : late) bytes_before.push_back(SerializeQuadtree(*tree));

  SharedNodeArena::CompactStepStats step;
  do {
    step = arena->CompactStep(64);
  } while (!step.done);

  std::string error;
  ASSERT_TRUE(arena->CheckConsistency(&error)) << error;
  for (size_t t = 0; t < late.size(); ++t) {
    ASSERT_TRUE(late[t]->CheckInvariants(&error)) << error;
    EXPECT_EQ(SerializeQuadtree(*late[t]), bytes_before[t]);
    // The tree keeps working on its relocated blocks.
    for (const Observation& o : MakeWorkload(500, 90 + t, 0.9)) {
      late[t]->Insert(o.point, o.value);
    }
    ASSERT_TRUE(late[t]->CheckInvariants(&error)) << error;
  }
}

// A fragmented arena of >= 100k slots: ~25 tenants with interleaved
// allocation, every other one destroyed. Deterministic, so two calls build
// identical twins.
struct LargeFragmentedArena {
  std::shared_ptr<SharedNodeArena> arena;
  std::vector<std::unique_ptr<MemoryLimitedQuadtree>> trees;
};

LargeFragmentedArena BuildLargeFragmentedArena() {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  LargeFragmentedArena f;
  f.arena = std::make_shared<SharedNodeArena>(4);
  for (int t = 0; t < 26; ++t) {
    f.trees.push_back(std::make_unique<MemoryLimitedQuadtree>(
        space, ChurnConfig(128 * 1024), f.arena));
  }
  std::vector<std::vector<Observation>> workloads;
  for (size_t t = 0; t < f.trees.size(); ++t) {
    workloads.push_back(
        MakeWorkload(5200, 77 + t, 0.1 * static_cast<double>(t)));
  }
  // Round-robin keeps each tree's blocks interleaved with every other's.
  for (size_t i = 0; i < workloads[0].size(); ++i) {
    for (size_t t = 0; t < f.trees.size(); ++t) {
      f.trees[t]->Insert(workloads[t][i].point, workloads[t][i].value);
    }
  }
  for (size_t t = 0; t < f.trees.size(); t += 2) f.trees[t].reset();
  std::erase(f.trees, nullptr);
  return f;
}

// The layout half of the pause comparison below, without a clock: on the
// large arena, 512-slot steps stay within budget and land on the same
// dense footprint as one unbounded step.
TEST(IncrementalCompactionTest, LargeArenaBoundedStepsMatchUnboundedStep) {
  LargeFragmentedArena once = BuildLargeFragmentedArena();
  LargeFragmentedArena stepped = BuildLargeFragmentedArena();
  ASSERT_GE(once.arena->slot_count(), 100000u);
  ASSERT_EQ(once.arena->slot_count(), stepped.arena->slot_count());

  EXPECT_TRUE(once.arena->CompactStep(kUnbounded).done);
  SharedNodeArena::CompactStepStats step;
  do {
    step = stepped.arena->CompactStep(512);
    ASSERT_LE(step.blocks_moved, 512 / 4);
  } while (!step.done);

  std::vector<const MemoryLimitedQuadtree*> trees;
  for (const auto& tree : once.trees) trees.push_back(tree.get());
  const int64_t dense = DenseBytes(trees, 4);
  EXPECT_EQ(once.arena->PhysicalCapacityBytes(), dense);
  EXPECT_EQ(stepped.arena->PhysicalCapacityBytes(), dense);
  std::string error;
  ASSERT_TRUE(stepped.arena->CheckConsistency(&error)) << error;
  for (size_t t = 0; t < once.trees.size(); ++t) {
    EXPECT_EQ(SerializeQuadtree(*stepped.trees[t]),
              SerializeQuadtree(*once.trees[t]));
  }
}

// The reason bounded steps exist: on a >= 100k-slot arena, one 512-slot
// step must pause the world an order of magnitude less than a whole pass
// (one unbounded step). A wall-clock bound, so this suite runs as its own
// ctest labelled `timing`, which sanitizer runs skip.
TEST(IncrementalCompactionTimingTest, StepPauseTenfoldBelowUnboundedStep) {
  // Wall-clock maxima are vulnerable to one unlucky preemption, so the
  // comparison gets a few attempts on fresh twin arenas.
  double max_step_micros = 0.0;
  double whole_micros = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    LargeFragmentedArena once = BuildLargeFragmentedArena();
    LargeFragmentedArena stepped = BuildLargeFragmentedArena();

    WallTimer whole_timer;
    once.arena->CompactStep(kUnbounded);
    whole_micros = whole_timer.ElapsedMicros();

    max_step_micros = 0.0;
    SharedNodeArena::CompactStepStats step;
    do {
      WallTimer step_timer;
      step = stepped.arena->CompactStep(512);
      max_step_micros = std::max(max_step_micros, step_timer.ElapsedMicros());
    } while (!step.done);
    if (max_step_micros * 10.0 <= whole_micros) break;
  }
  EXPECT_LE(max_step_micros * 10.0, whole_micros)
      << "max step pause " << max_step_micros << "us vs unbounded step "
      << whole_micros << "us";
}

}  // namespace
}  // namespace mlq

// Deterministic stress tests for the sharded concurrent serving layer:
// fixed-seed worker threads interleave Predict/Observe/Flush, then a final
// drain must leave every shard tree structurally sound and account for
// every submitted observation (applied + dropped == submitted).

#include "model/sharded_model.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/feedback_queue.h"
#include "common/rng.h"
#include "eval/experiment_setup.h"
#include "quadtree/tree_stats.h"

namespace mlq {
namespace {

MlqConfig TestConfig(int64_t budget = 8192) {
  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.max_depth = 6;
  config.beta = 1;
  config.memory_limit_bytes = budget;
  return config;
}

// ---------------------------------------------------------------------------
// Feedback queue

TEST(FeedbackQueueTest, FifoOrderAndCounts) {
  BoundedFeedbackQueue<int> queue(4);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 3u);
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  EXPECT_EQ(queue.PopBatch(&out), 1u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.pushed(), 3);
  EXPECT_EQ(queue.dropped(), 0);
}

TEST(FeedbackQueueTest, DropsOldestOnOverflow) {
  BoundedFeedbackQueue<int> queue(3);
  for (int i = 0; i < 5; ++i) queue.Push(i);
  EXPECT_EQ(queue.dropped(), 2);
  EXPECT_EQ(queue.pushed(), 5);
  std::vector<int> out;
  queue.PopBatch(&out);
  // 0 and 1 were overwritten; the newest three survive in order.
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

// The ring starts unallocated and doubles as it fills. Wrapping the ring
// (pop some, push more) before each growth makes the re-linearization
// move items that straddle the end of the old ring.
TEST(FeedbackQueueTest, FifoOrderSurvivesGrowth) {
  BoundedFeedbackQueue<int> queue(1000);
  EXPECT_EQ(queue.capacity(), 1000u);
  std::vector<int> expected;
  std::vector<int> out;
  int next = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + round * 7; ++i) {
      EXPECT_TRUE(queue.Push(next));
      expected.push_back(next++);
    }
    queue.PopBatch(&out, 3);
  }
  for (int i = 0; i < 150; ++i) {
    EXPECT_TRUE(queue.Push(next));
    expected.push_back(next++);
  }
  queue.PopBatch(&out);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(queue.pushed(), next);
  EXPECT_EQ(queue.dropped(), 0);
  EXPECT_EQ(queue.capacity(), 1000u);
}

// Growth stops at the cap: from then on every push past it drops the
// oldest pending item, for Push and PushBatch alike.
TEST(FeedbackQueueTest, DropsOldestAtTheCapAfterGrowth) {
  constexpr int kCap = 100;  // Not a power of two: the last growth clamps.
  BoundedFeedbackQueue<int> queue(kCap);
  for (int i = 0; i < kCap; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), static_cast<size_t>(kCap));
  EXPECT_FALSE(queue.Push(kCap));
  const std::vector<int> batch{kCap + 1, kCap + 2, kCap + 3};
  EXPECT_EQ(queue.PushBatch(batch), 3u);
  EXPECT_EQ(queue.pushed(), kCap + 4);
  EXPECT_EQ(queue.dropped(), 4);
  EXPECT_EQ(queue.size(), static_cast<size_t>(kCap));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out), static_cast<size_t>(kCap));
  ASSERT_EQ(out.size(), static_cast<size_t>(kCap));
  for (int i = 0; i < kCap; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i + 4);
}

TEST(FeedbackQueueTest, PushBatchGrowsAcrossSeveralDoublings) {
  BoundedFeedbackQueue<int> queue(64);
  std::vector<int> batch(50);
  for (int i = 0; i < 50; ++i) batch[static_cast<size_t>(i)] = i;
  EXPECT_EQ(queue.PushBatch(batch), 0u);
  EXPECT_EQ(queue.PushBatch(batch), 36u);
  EXPECT_EQ(queue.pushed(), 100);
  EXPECT_EQ(queue.dropped(), 36);
  std::vector<int> out;
  queue.PopBatch(&out);
  ASSERT_EQ(out.size(), 64u);
  // The newest 64 of the 100 pushes: the last 14 of the first batch, then
  // the whole second batch.
  EXPECT_EQ(out.front(), 36);
  EXPECT_EQ(out[13], 49);
  EXPECT_EQ(out[14], 0);
  EXPECT_EQ(out.back(), 49);
}

// ---------------------------------------------------------------------------
// Sharded model basics (single-threaded semantics)

TEST(ShardedModelTest, ShardMappingIsDeterministicAndInRange) {
  const Box space = Box::Cube(3, 0.0, 1000.0);
  ShardedModelOptions options;
  options.num_shards = 8;
  ShardedCostModel model(space, TestConfig(), options);
  EXPECT_EQ(model.num_shards(), 8);
  EXPECT_EQ(model.name(), "MLQ-Sx8");

  Rng rng(11);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 2000; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0),
            rng.Uniform(0.0, 1000.0)};
    const int shard = model.ShardOf(p);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    EXPECT_EQ(model.ShardOf(p), shard);  // Deterministic.
    ++hits[static_cast<size_t>(shard)];
  }
  // The quantized-point hash must actually stripe a uniform workload: no
  // shard may be starved or hogging (expected 250 each).
  for (int count : hits) {
    EXPECT_GT(count, 100);
    EXPECT_LT(count, 500);
  }
}

TEST(ShardedModelTest, ObserveIsQueuedUntilDrained) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  ShardedModelOptions options;
  options.num_shards = 2;
  options.drain_on_predict = false;
  options.drain_batch = 0;  // No opportunistic drain: queue until Flush.
  ShardedCostModel model(space, TestConfig(), options);

  model.Observe(Point{10.0, 10.0}, 42.0);
  ShardedModelStats stats = model.stats();
  EXPECT_EQ(stats.observations_submitted, 1);
  EXPECT_EQ(stats.observations_applied, 0);
  EXPECT_EQ(stats.pending, 1);
  EXPECT_EQ(model.update_breakdown().insertions, 0);

  model.Flush();
  stats = model.stats();
  EXPECT_EQ(stats.observations_applied, 1);
  EXPECT_EQ(stats.pending, 0);
  EXPECT_EQ(model.update_breakdown().insertions, 1);
  EXPECT_DOUBLE_EQ(model.Predict(Point{10.0, 10.0}), 42.0);
}

TEST(ShardedModelTest, PredictDrainsOwnShard) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  ShardedModelOptions options;
  options.num_shards = 1;
  options.drain_on_predict = true;
  options.drain_batch = 0;
  ShardedCostModel model(space, TestConfig(), options);

  model.Observe(Point{10.0, 10.0}, 42.0);
  // Read-your-writes: the prediction path applies the pending feedback.
  EXPECT_DOUBLE_EQ(model.Predict(Point{10.0, 10.0}), 42.0);
  EXPECT_EQ(model.stats().observations_applied, 1);
}

TEST(ShardedModelTest, BoundedQueueDropsOldestAndCountsIt) {
  const Box space = Box::Cube(1, 0.0, 100.0);
  ShardedModelOptions options;
  options.num_shards = 1;
  options.queue_capacity = 8;
  options.drain_on_predict = false;
  options.drain_batch = 0;
  ShardedCostModel model(space, TestConfig(), options);

  for (int i = 0; i < 20; ++i) {
    model.Observe(Point{50.0}, static_cast<double>(i));
  }
  model.Flush();
  const ShardedModelStats stats = model.stats();
  EXPECT_EQ(stats.observations_submitted, 20);
  EXPECT_EQ(stats.observations_dropped, 12);
  EXPECT_EQ(stats.observations_applied, 8);
  EXPECT_EQ(stats.observations_applied + stats.observations_dropped,
            stats.observations_submitted);
}

TEST(ShardedModelTest, BudgetIsSplitAcrossShards) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ShardedModelOptions options;
  options.num_shards = 4;
  const int64_t budget = 4096;
  ShardedCostModel model(space, TestConfig(budget), options);

  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    model.Observe(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)},
                  rng.Uniform(0.0, 100.0));
  }
  model.Flush();
  // Every shard respects its slice, so the sum respects the total.
  for (int s = 0; s < model.num_shards(); ++s) {
    EXPECT_LE(model.shard_model(s).MemoryBytes(), budget / 4);
  }
  EXPECT_LE(model.MemoryBytes(), budget);
}

// ---------------------------------------------------------------------------
// Deterministic multithreaded stress

class ShardedStressTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedStressTest, InterleavedPredictObserveFlushKeepsInvariants) {
  const int num_shards = GetParam();
  const Box space = Box::Cube(3, 0.0, 1000.0);
  ShardedModelOptions options;
  options.num_shards = num_shards;
  options.queue_capacity = 256;
  options.drain_batch = 64;
  options.drain_on_predict = true;
  ShardedCostModel model(space, TestConfig(/*budget=*/6144), options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int64_t> predictions_seen{0};
  std::atomic<int64_t> observations_sent{0};
  std::atomic<bool> negative_prediction{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // Fixed per-thread seed: the op sequence each worker runs is fully
    // deterministic; only the interleaving varies run to run. No gtest
    // assertions inside workers (gtest failures are main-thread-only);
    // anomalies are flagged and checked after the join.
    threads.emplace_back([&model, &predictions_seen, &observations_sent,
                          &negative_prediction, t]() {
      Rng rng(9000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0),
                rng.Uniform(0.0, 1000.0)};
        const double dice = rng.NextDouble();
        if (dice < 0.60) {
          // Costs fed in are non-negative, so averages must be too.
          if (model.Predict(p) < 0.0) negative_prediction.store(true);
          predictions_seen.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 0.98) {
          model.Observe(p, rng.Uniform(0.0, 10000.0));
          observations_sent.fetch_add(1, std::memory_order_relaxed);
        } else {
          model.Flush();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(negative_prediction.load());

  // Final drain, then the books must balance exactly.
  model.Flush();
  const ShardedModelStats stats = model.stats();
  EXPECT_EQ(stats.observations_submitted, observations_sent.load());
  EXPECT_EQ(stats.pending, 0);
  EXPECT_EQ(stats.observations_applied + stats.observations_dropped,
            stats.observations_submitted);
  EXPECT_EQ(stats.predictions, predictions_seen.load());

  // The trees absorbed exactly the applied observations.
  const QuadtreeCounters counters = model.AggregateTreeCounters();
  EXPECT_EQ(counters.insertions, stats.observations_applied);

  // Every shard tree is structurally sound and within its budget.
  std::vector<TreeStats> per_shard;
  for (int s = 0; s < model.num_shards(); ++s) {
    std::string error;
    EXPECT_TRUE(model.shard_model(s).tree().CheckInvariants(&error))
        << "shard " << s << ": " << error;
    per_shard.push_back(ComputeTreeStats(model.shard_model(s).tree()));
  }
  EXPECT_LE(model.MemoryBytes(), 6144);

  // Aggregated introspection stays coherent: every shard root exists from
  // construction (not counted in nodes_created), the rest reconcile with
  // the create/free counters.
  const TreeStats merged = MergeTreeStats(per_shard);
  EXPECT_EQ(merged.num_nodes,
            counters.nodes_created - counters.nodes_freed + model.num_shards());
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedStressTest,
                         ::testing::Values(1, 2, 4, 8));

// Flush skips a shard whose queue AppearsEmpty without taking its lock.
// The hint must still be exact for feedback pushed by producer threads
// that have been joined: nothing queued may survive the Flush, and the
// books and the published sizes must balance.
TEST(ShardedModelTest, FlushAfterJoinedProducersLeavesNothingPending) {
  const Box space = Box::Cube(2, 0.0, 1000.0);
  ShardedModelOptions options;
  options.num_shards = 8;
  options.queue_capacity = 64;  // Small: some feedback is dropped.
  options.drain_on_predict = false;
  options.drain_batch = 0;  // Everything queues until Flush.
  ShardedCostModel model(space, TestConfig(), options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&model, t]() {
      Rng rng(700 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        model.Observe(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)},
                      rng.Uniform(0.0, 100.0));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  ASSERT_GT(model.stats().pending, 0);

  model.Flush();
  const ShardedModelStats stats = model.stats();
  EXPECT_EQ(stats.pending, 0);
  EXPECT_EQ(stats.observations_submitted, kThreads * kOpsPerThread);
  EXPECT_EQ(stats.observations_submitted,
            stats.observations_applied + stats.observations_dropped);
  EXPECT_GT(stats.observations_dropped, 0);

  // A second Flush finds every queue empty and changes nothing.
  model.Flush();
  EXPECT_EQ(model.stats().observations_applied, stats.observations_applied);

  // The lock-free size reads agree with the quiescent shard trees.
  int64_t bytes = 0;
  int64_t nodes = 0;
  for (int s = 0; s < model.num_shards(); ++s) {
    bytes += model.shard_model(s).MemoryBytes();
    nodes += model.shard_model(s).NodeCount();
  }
  EXPECT_EQ(model.MemoryBytes(), bytes);
  EXPECT_EQ(model.NodeCount(), nodes);
  EXPECT_GT(nodes, model.num_shards());
}

TEST(ShardedModelTest, BackgroundDrainerAppliesFeedbackWithoutFlush) {
  const Box space = Box::Cube(2, 0.0, 100.0);
  ShardedModelOptions options;
  options.num_shards = 2;
  options.drain_on_predict = false;
  options.drain_batch = 0;
  options.background_drain = true;
  options.drain_interval_micros = 200;
  ShardedCostModel model(space, TestConfig(), options);

  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    model.Observe(Point{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)},
                  rng.Uniform(0.0, 10.0));
  }
  // The drainer owns the application; wait (bounded) for it to catch up.
  for (int spins = 0; spins < 2000 && model.stats().pending > 0; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ShardedModelStats stats = model.stats();
  EXPECT_EQ(stats.pending, 0);
  EXPECT_EQ(stats.observations_applied + stats.observations_dropped, 200);
}

}  // namespace
}  // namespace mlq

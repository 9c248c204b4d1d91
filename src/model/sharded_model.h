#ifndef MLQ_MODEL_SHARDED_MODEL_H_
#define MLQ_MODEL_SHARDED_MODEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/feedback_queue.h"
#include "model/cost_model.h"
#include "model/mlq_model.h"

namespace mlq {

// Tuning knobs for ShardedCostModel. Defaults suit a serving process with a
// handful of planner threads; see docs/concurrency.md for guidance.
struct ShardedModelOptions {
  // Number of independently locked MLQ shards. Each shard owns a tree over
  // the full model space under memory_limit_bytes / num_shards.
  int num_shards = 4;

  // When set, every shard tree allocates from this arena instead of a
  // private one (catalog-shared physical slabs; logical budgets unchanged).
  std::shared_ptr<SharedNodeArena> arena;

  // Bounded per-shard feedback queue capacity (drop-oldest on overflow).
  size_t queue_capacity = 1024;

  // Observe opportunistically try-locks the shard and drains once this
  // many observations are pending, bounding staleness without ever
  // blocking. 0 disables opportunistic draining (queue drains only on
  // Predict / Flush / the background drainer).
  size_t drain_batch = 512;

  // When set, Predict applies the shard's pending observations before
  // answering, so a single-threaded caller reads its own writes exactly
  // like the bare model (required for the differential tests). Costs the
  // prediction path the inserts it absorbs; high-throughput servers that
  // prefer strictly cheap predictions turn this off and rely on the
  // background drainer for freshness.
  bool drain_on_predict = true;

  // When set, a background thread flushes all shards every
  // drain_interval_micros. Off by default so tests stay deterministic.
  bool background_drain = false;
  int64_t drain_interval_micros = 500;

  // Invoked after feedback is applied on the Observe/ObserveBatch drain
  // path, with NO shard lock held — a feedback batch boundary. The catalog
  // points this at its maintenance scheduler's Tick() so the serving loop
  // drives arena maintenance autonomously. Deliberately NOT invoked on the
  // Predict path (prediction latency must never absorb an epoch) or from
  // Flush() (maintenance epochs themselves flush, and must not recurse).
  std::function<void()> post_drain_hook;
};

// Aggregated (or per-shard) serving counters.
struct ShardedModelStats {
  int64_t predictions = 0;             // Predict calls served.
  int64_t observations_submitted = 0;  // Observe calls accepted.
  int64_t observations_dropped = 0;    // Evicted by queue overflow.
  int64_t observations_applied = 0;    // Inserted into a shard tree.
  int64_t compressions = 0;            // Tree compressions across shards.
  int64_t pending = 0;                 // Currently queued, not yet applied.
  // Invariant (after a final Flush, when pending == 0):
  //   observations_submitted == observations_applied + observations_dropped.
};

// A sharded, concurrently servable cost model (the serving-layer answer to
// ConcurrentCostModel's single global mutex).
//
// The model-variable space is striped across `num_shards` independent
// memory-limited quadtrees, each covering the FULL model space under
// budget/num_shards. A query point deterministically maps to one shard by
// hashing its quantized coordinates (the leaf-resolution grid cell at
// 2^max_depth cells per dimension), so all points in the same finest-grain
// block — and therefore all observations a prediction could draw on — land
// in the same shard. Predictions lock only that shard; predictions for
// different shards proceed in parallel.
//
// Observe never takes a shard's model lock: it enqueues into the shard's
// bounded drop-oldest feedback queue (see BoundedFeedbackQueue) and
// returns. Queued observations are applied to the tree, in FIFO order, by
// whichever of these runs first: a Predict on the same shard (when
// drain_on_predict is set), an opportunistic try-lock drain once
// drain_batch observations are pending, an explicit Flush(), or the
// optional background drain thread.
//
// With num_shards == 1 and a single caller, the sequence of tree inserts is
// identical to feeding the bare MlqModel directly, so predictions are
// bit-identical (the differential tests rely on this). With more shards the
// budget split and per-shard tree shapes differ from the single tree, so
// accuracy must be (and is) validated empirically, not assumed.
class ShardedCostModel : public CostModel {
 public:
  ShardedCostModel(const Box& space, const MlqConfig& config,
                   const ShardedModelOptions& options = {});
  ~ShardedCostModel() override;

  ShardedCostModel(const ShardedCostModel&) = delete;
  ShardedCostModel& operator=(const ShardedCostModel&) = delete;

  std::string_view name() const override { return name_; }
  Prediction PredictDetailed(const Point& point) const override;
  // Buckets the batch by shard, then serves each shard's points under one
  // lock acquisition (and one drain, when drain_on_predict is set) via the
  // tree's batched descent. Results land at their original positions, so
  // the output is element-wise identical to a PredictDetailed loop.
  void PredictBatch(std::span<const Point> points,
                    std::span<Prediction> out) const override;
  void Observe(const Point& point, double actual_cost) override;
  // Partitions the batch by shard hash (preserving each shard's relative
  // order), then per shard: if the shard's model lock is free, drains the
  // queued backlog and applies the whole run directly via the tree's
  // batched insert — skipping the queue round-trip entirely; if the shard
  // is busy, enqueues the run with ONE queue-lock acquisition under the
  // scalar path's drop-oldest overflow semantics. A single-threaded caller
  // always takes the direct path, so its per-shard insert sequence matches
  // a scalar Observe loop exactly; see docs/concurrency.md for how burst
  // enqueueing interacts with the bounded queue.
  void ObserveBatch(std::span<const Observation> batch) override;
  bool IsSelfTuning() const override { return true; }
  // Sums of the shards' published sizes: lock-free, so a catalog-wide
  // health scan never waits on (or stalls) a serving shard. Exact once the
  // shards are quiescent; under traffic, each shard's term is its size as
  // of its latest mutation.
  int64_t MemoryBytes() const override;
  int64_t NodeCount() const override;
  ModelUpdateBreakdown update_breakdown() const override;

  // Advances every shard tree's decay clock (one shard lock at a time, in
  // shard order; concurrent predicts/observes on other shards proceed).
  void AdvanceDecayEpoch(int64_t epochs) override;

  // Re-targets the TOTAL budget: each shard tree is resized to
  // limit_bytes / num_shards (under the same minimum-per-shard floor the
  // constructor applies), one shard lock at a time, so serving on other
  // shards proceeds during the resize.
  bool SetByteBudget(int64_t limit_bytes) override;

  // Takes every shard's model mutex (in shard order). Queued feedback may
  // remain pending — queues hold Points, not node indices, so arena
  // compaction does not invalidate them.
  std::vector<std::unique_lock<std::mutex>> LockForMaintenance() override;

  // Applies every queued observation to its shard tree (blocking: takes
  // the model lock of each shard with pending feedback; a shard whose
  // queue AppearsEmpty is skipped without touching its lock). After Flush
  // returns — with no concurrent producers — pending == 0 and the stats
  // invariant holds.
  void Flush() override;

  // Deterministic shard index of `point` (exposed for tests and tools).
  int ShardOf(const Point& point) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardedModelOptions& options() const { return options_; }

  // The shard's underlying model, for introspection (CheckInvariants,
  // tree stats). NOT synchronized: callers must quiesce writers first
  // (e.g. join workers, then Flush()).
  const MlqModel& shard_model(int shard) const {
    return shards_[static_cast<size_t>(shard)]->model;
  }

  // Serving counters for one shard / aggregated over all shards.
  ShardedModelStats shard_stats(int shard) const;
  ShardedModelStats stats() const;

  // Sum of all shard trees' operation counters, shaped like a single
  // tree's QuadtreeCounters so existing reporting can consume it.
  QuadtreeCounters AggregateTreeCounters() const;

 private:
  struct Shard {
    Shard(const Box& space, const MlqConfig& config, size_t queue_capacity,
          std::shared_ptr<SharedNodeArena> arena)
        : model(space, config, std::move(arena)), queue(queue_capacity) {}

    // Lock order: model_mutex before queue's internal mutex (Predict and
    // drains hold model_mutex while popping); Observe takes only the
    // queue's mutex.
    mutable std::mutex model_mutex;
    MlqModel model;
    BoundedFeedbackQueue<Observation> queue;
    // Guarded by model_mutex:
    int64_t predictions = 0;
    int64_t applied = 0;
    // Observations ObserveBatch applied directly, bypassing the queue
    // (counted into observations_submitted alongside queue.pushed()).
    int64_t direct_submitted = 0;
    // Reused drain scratch buffer, guarded by model_mutex.
    std::vector<Observation> drain_buffer;
    // The tree's MemoryBytes() / NodeCount(), republished (relaxed) by
    // every mutation under model_mutex; read without it.
    std::atomic<int64_t> memory_bytes{0};
    std::atomic<int64_t> node_count{0};
  };

  // Applies all pending queued observations of `shard` to its tree.
  // Caller holds shard.model_mutex.
  void DrainLocked(Shard& shard) const;

  // Publishes the shard tree's current size. Caller holds
  // shard.model_mutex and has just mutated the tree.
  static void PublishSizeLocked(Shard& shard);

  ShardedModelOptions options_;
  Box space_;
  // Quantization grid: cells per dimension (2^max_depth, clamped).
  int64_t cells_per_dim_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::string name_;

  // Background drainer.
  std::thread drainer_;
  mutable std::mutex drainer_mutex_;
  std::condition_variable drainer_cv_;
  bool stop_drainer_ = false;
};

}  // namespace mlq

#endif  // MLQ_MODEL_SHARDED_MODEL_H_

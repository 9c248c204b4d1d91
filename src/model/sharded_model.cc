#include "model/sharded_model.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/obs.h"
#include "quadtree/quadtree_config.h"

namespace mlq {
namespace {

// splitmix64 finalizer: good avalanche for the cheap per-dimension mixes.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

MlqConfig ShardConfig(const MlqConfig& config, int num_shards) {
  MlqConfig shard_config = config;
  // Split the budget evenly; every shard needs at least a root and a
  // couple of children to be a model at all.
  shard_config.memory_limit_bytes =
      std::max<int64_t>(config.memory_limit_bytes / num_shards,
                        kNodeBaseBytes + 2 * kNonRootNodeBytes);
  return shard_config;
}

}  // namespace

ShardedCostModel::ShardedCostModel(const Box& space, const MlqConfig& config,
                                   const ShardedModelOptions& options)
    : options_(options), space_(space) {
  options_.num_shards = std::max(options_.num_shards, 1);
  const int depth_bits = std::clamp(config.max_depth, 1, 30);
  cells_per_dim_ = int64_t{1} << depth_bits;

  const MlqConfig shard_config = ShardConfig(config, options_.num_shards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        space, shard_config, options_.queue_capacity, options_.arena));
    PublishSizeLocked(*shards_.back());  // Not yet shared.
  }
  name_ = "MLQ-Sx" + std::to_string(options_.num_shards);

  if (options_.background_drain) {
    drainer_ = std::thread([this]() {
      std::unique_lock<std::mutex> lock(drainer_mutex_);
      while (!stop_drainer_) {
        drainer_cv_.wait_for(
            lock, std::chrono::microseconds(options_.drain_interval_micros));
        if (stop_drainer_) break;
        lock.unlock();
        Flush();
        lock.lock();
      }
    });
  }
}

ShardedCostModel::~ShardedCostModel() {
  if (drainer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(drainer_mutex_);
      stop_drainer_ = true;
    }
    drainer_cv_.notify_all();
    drainer_.join();
  }
}

int ShardedCostModel::ShardOf(const Point& point) const {
  // Hash of the quantized point: the finest-resolution grid cell the tree
  // can distinguish (2^max_depth cells per dimension). All points inside
  // one leaf-size block share a cell, hence a shard.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int d = 0; d < space_.dims(); ++d) {
    const double lo = space_.lo()[d];
    const double extent = space_.Extent(d);
    double t = 0.0;
    if (extent > 0.0) {
      t = (std::clamp(point[d], lo, space_.hi()[d]) - lo) / extent;
    }
    auto cell = static_cast<int64_t>(t * static_cast<double>(cells_per_dim_));
    cell = std::clamp<int64_t>(cell, 0, cells_per_dim_ - 1);
    h = Mix64(h ^ static_cast<uint64_t>(cell));
  }
  return static_cast<int>(h % static_cast<uint64_t>(shards_.size()));
}

void ShardedCostModel::PublishSizeLocked(Shard& shard) {
  shard.memory_bytes.store(shard.model.MemoryBytes(),
                           std::memory_order_relaxed);
  shard.node_count.store(shard.model.NodeCount(), std::memory_order_relaxed);
}

void ShardedCostModel::DrainLocked(Shard& shard) const {
  // The hint is exact for the calling thread's own pushes, so skipping the
  // queue-lock round-trip here never reorders a producer against itself.
  if (shard.queue.AppearsEmpty()) return;
  shard.drain_buffer.clear();
  shard.queue.PopBatch(&shard.drain_buffer);
  // One batched tree entry for the whole backlog: every drain trigger
  // (predict-side, opportunistic, Flush, background) rides the amortized
  // path. Insert order — hence the tree — is unchanged.
  shard.model.ObserveBatch(shard.drain_buffer);
  PublishSizeLocked(shard);
  shard.applied += static_cast<int64_t>(shard.drain_buffer.size());
  const auto applied = static_cast<int64_t>(shard.drain_buffer.size());
  if (applied > 0 && obs::Enabled()) {
    obs::Core().feedback_applied.Inc(applied);
    MLQ_TRACE_EVENT(obs::TraceEventType::kFeedbackDrain, obs::NowNs(), 0,
                    static_cast<double>(applied), 0.0);
  }
  shard.drain_buffer.clear();
}

Prediction ShardedCostModel::PredictDetailed(const Point& point) const {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(point))];
  const bool obs_on = obs::Enabled();
  const int64_t wait_t0 = obs_on ? obs::NowNs() : 0;
  std::lock_guard<std::mutex> lock(shard.model_mutex);
  if (obs_on) obs::Core().lock_wait_ns.Record(obs::NowNs() - wait_t0);
  if (options_.drain_on_predict) DrainLocked(shard);
  ++shard.predictions;
  return shard.model.PredictDetailed(point);
}

void ShardedCostModel::PredictBatch(std::span<const Point> points,
                                    std::span<Prediction> out) const {
  assert(points.size() == out.size());
  // Bucket positions by shard so each shard is visited once. Batches are
  // planner-sized (tens to a few hundred points); two scratch vectors per
  // call beat taking a shard lock per point.
  std::vector<std::vector<uint32_t>> buckets(shards_.size());
  for (size_t i = 0; i < points.size(); ++i) {
    buckets[static_cast<size_t>(ShardOf(points[i]))].push_back(
        static_cast<uint32_t>(i));
  }
  const bool obs_on = obs::Enabled();
  std::vector<Point> gathered;
  std::vector<Prediction> results;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<uint32_t>& bucket = buckets[s];
    if (bucket.empty()) continue;
    gathered.clear();
    gathered.reserve(bucket.size());
    for (uint32_t i : bucket) gathered.push_back(points[i]);
    results.resize(bucket.size());

    Shard& shard = *shards_[s];
    const int64_t wait_t0 = obs_on ? obs::NowNs() : 0;
    std::lock_guard<std::mutex> lock(shard.model_mutex);
    if (obs_on) obs::Core().lock_wait_ns.Record(obs::NowNs() - wait_t0);
    if (options_.drain_on_predict) DrainLocked(shard);
    shard.predictions += static_cast<int64_t>(bucket.size());
    shard.model.PredictBatch(gathered, results);
    for (size_t k = 0; k < bucket.size(); ++k) out[bucket[k]] = results[k];
  }
}

void ShardedCostModel::Observe(const Point& point, double actual_cost) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(point))];
  const bool dropped = !shard.queue.Push(Observation{point, actual_cost});
  if (obs::Enabled()) {
    obs::CoreMetrics& core = obs::Core();
    core.feedback_enqueued.Inc();
    if (dropped) {
      core.feedback_dropped.Inc();
      MLQ_TRACE_EVENT(obs::TraceEventType::kFeedbackDrop, obs::NowNs(), 0,
                      static_cast<double>(shard.queue.size()), 0.0);
    }
  }
  if (options_.drain_batch > 0 && shard.queue.size() >= options_.drain_batch) {
    // Opportunistic drain: apply the backlog only if the shard is idle —
    // never wait on a model that is busy serving predictions.
    bool drained = false;
    {
      std::unique_lock<std::mutex> lock(shard.model_mutex, std::try_to_lock);
      if (lock.owns_lock()) {
        DrainLocked(shard);
        drained = true;
      }
    }
    // Batch boundary: the hook runs with no shard lock held, so a
    // maintenance epoch it triggers can take LockForMaintenance freely.
    if (drained && options_.post_drain_hook) options_.post_drain_hook();
  }
}

void ShardedCostModel::ObserveBatch(std::span<const Observation> batch) {
  if (batch.empty()) return;
  // Partition by shard hash into index runs (an Observation copy would
  // heap-allocate its Point, so the runs carry indices only). The counting
  // sort is stable, so each shard's relative order is preserved: a
  // single-threaded caller produces exactly the per-shard insert sequences
  // of a scalar Observe loop.
  const size_t n = batch.size();
  std::vector<uint32_t> shard_of(n);
  std::vector<uint32_t> start(shards_.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto s = static_cast<uint32_t>(ShardOf(batch[i].point));
    shard_of[i] = s;
    ++start[s + 1];
  }
  for (size_t s = 1; s < start.size(); ++s) start[s] += start[s - 1];
  std::vector<uint32_t> order(n);
  std::vector<uint32_t> cursor(start.begin(), start.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    order[cursor[shard_of[i]]++] = static_cast<uint32_t>(i);
  }
  const bool obs_on = obs::Enabled();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::span<const uint32_t> run(order.data() + start[s],
                                        start[s + 1] - start[s]);
    if (run.empty()) continue;
    Shard& shard = *shards_[s];
    // Fast path: when the shard is idle, skip the queue round-trip (ring
    // copy, pop, drain-buffer copy) and gather-apply the run straight to
    // the tree. Draining the backlog first keeps this-producer FIFO order,
    // so a single-threaded caller still builds the exact scalar-loop tree.
    bool direct = false;
    {
      std::unique_lock<std::mutex> lock(shard.model_mutex, std::try_to_lock);
      if (lock.owns_lock()) {
        DrainLocked(shard);
        shard.model.ObserveGather(batch, run);
        PublishSizeLocked(shard);
        const auto applied = static_cast<int64_t>(run.size());
        shard.applied += applied;
        shard.direct_submitted += applied;
        if (obs_on) obs::Core().feedback_applied.Inc(applied);
        direct = true;
      }
    }
    if (direct) {
      // Batch boundary, shard lock released: safe point for the
      // maintenance hook (an epoch re-locks every shard itself).
      if (options_.post_drain_hook) options_.post_drain_hook();
      continue;
    }
    // Slow path: the shard is busy serving — materialize the run and
    // enqueue it with exactly the scalar Observe's drop-oldest overflow
    // semantics, one queue-lock acquisition for the whole run.
    std::vector<Observation> bucket;
    bucket.reserve(run.size());
    for (const uint32_t i : run) bucket.push_back(batch[i]);
    const size_t dropped = shard.queue.PushBatch(bucket);
    if (obs_on) {
      obs::CoreMetrics& core = obs::Core();
      core.feedback_enqueued.Inc(static_cast<int64_t>(bucket.size()));
      if (dropped > 0) {
        core.feedback_dropped.Inc(static_cast<int64_t>(dropped));
        MLQ_TRACE_EVENT(obs::TraceEventType::kFeedbackDrop, obs::NowNs(), 0,
                        static_cast<double>(shard.queue.size()), 0.0);
      }
    }
  }
}

std::vector<std::unique_lock<std::mutex>>
ShardedCostModel::LockForMaintenance() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->model_mutex);
  return locks;
}

void ShardedCostModel::Flush() {
  for (auto& shard : shards_) {
    // Most shards of a large catalog have nothing queued at any instant;
    // an empty one costs a flush no lock round-trip (the same hint
    // DrainLocked re-checks under the lock).
    if (shard->queue.AppearsEmpty()) continue;
    std::lock_guard<std::mutex> lock(shard->model_mutex);
    DrainLocked(*shard);
  }
}

void ShardedCostModel::AdvanceDecayEpoch(int64_t epochs) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->model_mutex);
    shard->model.AdvanceDecayEpoch(epochs);
  }
}

bool ShardedCostModel::SetByteBudget(int64_t limit_bytes) {
  // Same split and floor as the constructor's ShardConfig, so growing back
  // to the original total restores the original per-shard limits exactly.
  const int64_t per_shard =
      std::max<int64_t>(limit_bytes / num_shards(),
                        kNodeBaseBytes + 2 * kNonRootNodeBytes);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->model_mutex);
    shard->model.SetByteBudget(per_shard);
    PublishSizeLocked(*shard);
  }
  return true;
}

int64_t ShardedCostModel::MemoryBytes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->memory_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t ShardedCostModel::NodeCount() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->node_count.load(std::memory_order_relaxed);
  }
  return total;
}

ModelUpdateBreakdown ShardedCostModel::update_breakdown() const {
  ModelUpdateBreakdown total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->model_mutex);
    const ModelUpdateBreakdown b = shard->model.update_breakdown();
    total.insert_seconds += b.insert_seconds;
    total.compress_seconds += b.compress_seconds;
    total.insertions += b.insertions;
    total.compressions += b.compressions;
  }
  return total;
}

ShardedModelStats ShardedCostModel::shard_stats(int shard_index) const {
  const Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  ShardedModelStats stats;
  {
    std::lock_guard<std::mutex> lock(shard.model_mutex);
    stats.predictions = shard.predictions;
    stats.observations_applied = shard.applied;
    stats.compressions = shard.model.tree().counters().compressions;
    // Submitted = everything that went through the queue plus everything
    // ObserveBatch applied directly past it.
    stats.observations_submitted = shard.direct_submitted;
  }
  stats.observations_submitted += shard.queue.pushed();
  stats.observations_dropped = shard.queue.dropped();
  stats.pending = static_cast<int64_t>(shard.queue.size());
  return stats;
}

ShardedModelStats ShardedCostModel::stats() const {
  ShardedModelStats total;
  for (int i = 0; i < num_shards(); ++i) {
    const ShardedModelStats s = shard_stats(i);
    total.predictions += s.predictions;
    total.observations_submitted += s.observations_submitted;
    total.observations_dropped += s.observations_dropped;
    total.observations_applied += s.observations_applied;
    total.compressions += s.compressions;
    total.pending += s.pending;
  }
  return total;
}

QuadtreeCounters ShardedCostModel::AggregateTreeCounters() const {
  QuadtreeCounters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->model_mutex);
    const QuadtreeCounters& c = shard->model.tree().counters();
    total.insertions += c.insertions;
    total.compressions += c.compressions;
    total.nodes_created += c.nodes_created;
    total.nodes_freed += c.nodes_freed;
    total.insert_seconds += c.insert_seconds;
    total.compress_seconds += c.compress_seconds;
  }
  return total;
}

}  // namespace mlq

#ifndef MLQ_MODEL_CONCURRENT_MODEL_H_
#define MLQ_MODEL_CONCURRENT_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "model/cost_model.h"
#include "obs/obs.h"

namespace mlq {

// Thread-safety decorator.
//
// Real optimizers plan queries concurrently while executors deliver
// feedback; the underlying models are deliberately single-threaded (the
// paper's setting, and the fast path stays lock-free when a model is owned
// by one session). Wrapping a model in ConcurrentCostModel serializes all
// access behind one mutex — correct and simple; predictions are ~100 ns,
// so a contended mutex still supports millions of operations per second.
//
// The model's size (MemoryBytes / NodeCount) is republished into atomics
// after every mutation under the mutex, so size reads — the catalog's
// health scan — never take the lock.
class ConcurrentCostModel : public CostModel {
 public:
  explicit ConcurrentCostModel(std::unique_ptr<CostModel> inner)
      : inner_(std::move(inner)) {
    PublishSizeLocked();  // Not yet shared.
  }

  std::string_view name() const override { return inner_->name(); }

  Prediction PredictDetailed(const Point& point) const override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    return inner_->PredictDetailed(point);
  }

  // One lock acquisition for the whole batch: under contention this is the
  // main benefit of batching through the decorator.
  void PredictBatch(std::span<const Point> points,
                    std::span<Prediction> out) const override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->PredictBatch(points, out);
  }

  void Observe(const Point& point, double actual_cost) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->Observe(point, actual_cost);
    PublishSizeLocked();
  }

  // The feedback twin of PredictBatch: one lock acquisition per batch.
  void ObserveBatch(std::span<const Observation> batch) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->ObserveBatch(batch);
    PublishSizeLocked();
  }

  void AdvanceDecayEpoch(int64_t epochs) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    inner_->AdvanceDecayEpoch(epochs);
  }

  // Budget re-targeting quiesces the model for the (possibly compressing)
  // resize, exactly like any other mutation.
  bool SetByteBudget(int64_t limit_bytes) override {
    std::lock_guard<std::mutex> lock(mutex_, LockTimed());
    const bool resized = inner_->SetByteBudget(limit_bytes);
    PublishSizeLocked();
    return resized;
  }

  std::vector<std::unique_lock<std::mutex>> LockForMaintenance() override {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.emplace_back(mutex_);
    return locks;
  }

  int64_t MemoryBytes() const override {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  int64_t NodeCount() const override {
    return node_count_.load(std::memory_order_relaxed);
  }

  bool IsSelfTuning() const override { return inner_->IsSelfTuning(); }

  ModelUpdateBreakdown update_breakdown() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->update_breakdown();
  }

  // Access to the wrapped model for single-threaded phases (no locking;
  // callers must guarantee exclusivity). Mutations made through it are not
  // republished to MemoryBytes / NodeCount.
  CostModel& inner() { return *inner_; }
  const CostModel& inner() const { return *inner_; }

 private:
  // Acquires mutex_ and, when observability is on, records the time spent
  // blocked on it. Returning adopt_lock lets the public methods keep their
  // one-line lock_guard shape with zero cost when observability is off.
  std::adopt_lock_t LockTimed() const {
    if (obs::Enabled()) {
      const int64_t t0 = obs::NowNs();
      mutex_.lock();
      obs::Core().lock_wait_ns.Record(obs::NowNs() - t0);
    } else {
      mutex_.lock();
    }
    return std::adopt_lock;
  }

  // Republishes the inner model's size. Caller holds mutex_ (or owns the
  // model exclusively) and has just mutated it.
  void PublishSizeLocked() {
    memory_bytes_.store(inner_->MemoryBytes(), std::memory_order_relaxed);
    node_count_.store(inner_->NodeCount(), std::memory_order_relaxed);
  }

  mutable std::mutex mutex_;
  std::unique_ptr<CostModel> inner_;
  std::atomic<int64_t> memory_bytes_{0};
  std::atomic<int64_t> node_count_{0};
};

}  // namespace mlq

#endif  // MLQ_MODEL_CONCURRENT_MODEL_H_

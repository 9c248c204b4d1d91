#ifndef MLQ_COMMON_FEEDBACK_QUEUE_H_
#define MLQ_COMMON_FEEDBACK_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace mlq {

// Bounded multi-producer feedback buffer with drop-oldest overflow.
//
// Producers (execution threads delivering cost observations) call Push,
// which only ever takes this queue's own mutex — never the mutex of the
// model the observations are destined for — so feedback delivery cannot
// block behind a model that is busy predicting or compressing. A consumer
// periodically moves the pending items out with PopBatch (FIFO order) and
// applies them while holding the model lock.
//
// When the ring is full the *oldest* pending observation is overwritten:
// for cost feedback, fresh observations are strictly more valuable than
// stale ones, and a bounded queue keeps the memory cost of a slow consumer
// fixed. Drops are counted, never silent.
//
// The ring is allocated on the first push and doubles (re-linearized,
// oldest first) each time it fills, until it reaches `capacity`: an idle
// queue costs nothing and a queue that its consumer keeps short stays
// short. Only a queue that actually reaches `capacity` pending items holds
// that many.
template <typename T>
class BoundedFeedbackQueue {
 public:
  explicit BoundedFeedbackQueue(size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  BoundedFeedbackQueue(const BoundedFeedbackQueue&) = delete;
  BoundedFeedbackQueue& operator=(const BoundedFeedbackQueue&) = delete;

  // Enqueues `item`. Returns false when the queue was full and the oldest
  // pending item was dropped to make room.
  bool Push(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pushed_;
    if (count_ == ring_.size() && ring_.size() < capacity_) GrowLocked();
    if (count_ == ring_.size()) {
      // Overwrite the oldest slot and advance the head past it.
      ring_[head_] = std::move(item);
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
      return false;
    }
    ring_[(head_ + count_) % ring_.size()] = std::move(item);
    ++count_;
    approx_count_.store(count_, std::memory_order_release);
    return true;
  }

  // Enqueues every item in order under ONE mutex acquisition — the batched
  // feedback path's amortization of Push. Overflow semantics are identical
  // to item-wise Push (drop-oldest per enqueued item). Returns how many
  // older items were dropped to make room.
  size_t PushBatch(std::span<const T> items) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t newly_dropped = 0;
    for (const T& item : items) {
      ++pushed_;
      if (count_ == ring_.size() && ring_.size() < capacity_) GrowLocked();
      if (count_ == ring_.size()) {
        ring_[head_] = item;
        head_ = (head_ + 1) % ring_.size();
        ++dropped_;
        ++newly_dropped;
        continue;
      }
      ring_[(head_ + count_) % ring_.size()] = item;
      ++count_;
    }
    approx_count_.store(count_, std::memory_order_release);
    return newly_dropped;
  }

  // Appends up to `max_items` pending items (0 = everything) to `out` in
  // FIFO order and removes them from the queue. Returns how many moved.
  size_t PopBatch(std::vector<T>* out, size_t max_items = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = count_;
    if (max_items > 0 && max_items < n) n = max_items;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) % ring_.size();
    }
    count_ -= n;
    approx_count_.store(count_, std::memory_order_release);
    return n;
  }

  // Lock-free emptiness hint for consumers deciding whether a drain is
  // worth its lock round-trip. Exact for a thread's own pushes (a thread
  // always observes its own enqueues); another producer's in-flight item
  // may be missed momentarily, which only defers it to the next drain
  // trigger — never loses it.
  bool AppearsEmpty() const {
    return approx_count_.load(std::memory_order_acquire) == 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  // The cap on pending items (the ring may currently be smaller).
  size_t capacity() const { return capacity_; }

  // Total Push calls, and how many of them cost an older item its slot.
  int64_t pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }
  int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

 private:
  // First allocation, in items.
  static constexpr size_t kInitialSlots = 8;

  // Replaces the full ring with one twice as large (at most capacity_),
  // moving the pending items to its front in FIFO order.
  void GrowLocked() {
    const size_t slots =
        std::min(capacity_, std::max(kInitialSlots, 2 * ring_.size()));
    std::vector<T> grown(slots);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    ring_.swap(grown);
    head_ = 0;
  }

  mutable std::mutex mutex_;
  const size_t capacity_;
  std::vector<T> ring_;
  size_t head_ = 0;   // Index of the oldest pending item.
  size_t count_ = 0;  // Pending items.
  // Mirror of count_ for the lock-free AppearsEmpty hint.
  std::atomic<size_t> approx_count_{0};
  int64_t pushed_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace mlq

#endif  // MLQ_COMMON_FEEDBACK_QUEUE_H_

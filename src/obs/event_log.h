#ifndef MLQ_OBS_EVENT_LOG_H_
#define MLQ_OBS_EVENT_LOG_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace mlq {
namespace obs {

// Macro-event kinds recorded by the serving stack. These are the rare,
// operator-facing state changes (a drift firing, a maintenance epoch) —
// the complement of the trace ring's high-frequency micro-spans. Payload
// slot meanings per kind are listed next to each enumerator and in
// docs/observability.md.
enum class EventKind : uint8_t {
  // a = DriftKind (1 gradual, 2 abrupt), b = fast/slow error ratio at the
  // firing, c = detector observations so far. label = model (UDF) name.
  kDriftFired = 0,
  // One CompactArenas epoch. a = 1, b = total pause us, c = bytes
  // reclaimed. label = "incremental".
  kMaintenanceEpoch,
  // One SSEG compression pass on some tree. a = bytes freed, b = th_SSE
  // after the pass, c = nodes remaining.
  kCompressionEpoch,
  // a = decay epochs advanced (scheduler clock tick or drift burst).
  kDecayEpochs,
  // A model entered the catalog. a = per-model budget bytes. label = UDF.
  kModelLoad,
  // Queued feedback flushed catalog-wide. a = models flushed.
  kModelFlush,
  // One CompactStep that reclaimed physical bytes. label = "step".
  // a = blocks moved, b = bytes reclaimed.
  kArenaCompaction,
  // One catalog-governor rebalance. a = bytes granted to growing entries,
  // b = bytes reclaimed from shrinking entries, c = entries re-budgeted.
  kGovernorDecision,
  // A whole model left the resident catalog (snapshot flushed to the
  // governor's store). a = serialized snapshot bytes, b = entry traffic at
  // eviction. label = UDF name.
  kModelEvict,
  // An evicted model was restored from its snapshot on first re-use.
  // a = serialized snapshot bytes. label = UDF name.
  kModelReload,
};

std::string_view EventKindName(EventKind kind);

// One journal entry. `label` is a short inline identifier (model name,
// epoch mode); fixed-size so entries stay POD and the journal's memory is
// strictly capacity * sizeof(StructuredEvent).
struct StructuredEvent {
  static constexpr size_t kLabelCapacity = 24;

  EventKind kind = EventKind::kDriftFired;
  int tid = 0;
  int64_t ts_ns = 0;  // obs::NowNs timebase, shared with the trace ring.
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  char label[kLabelCapacity] = {};

  std::string_view label_view() const;
};

// Fixed-capacity, thread-safe structured event journal.
//
// Append takes one mutex (macro events are orders of magnitude rarer than
// the trace ring's spans, so a mutex is both simple and uncontended); when
// the journal is full the OLDEST entry is overwritten, so a snapshot
// always holds the newest `capacity` events. dropped() counts what
// wrap-around discarded — losses are never silent in aggregate.
//
// Every Append is gated on obs::Enabled() by the recording sites (and
// re-checked here), so a disabled build pays only the usual relaxed-load
// guard.
class EventLog {
 public:
  explicit EventLog(size_t capacity = 8192);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Records one event now (ts_ns/tid filled in here). No-op when
  // obs::Enabled() is false.
  void Append(EventKind kind, std::string_view label, double a = 0.0,
              double b = 0.0, double c = 0.0);

  // Copies the resident events, oldest first.
  std::vector<StructuredEvent> Snapshot() const;

  // Snapshot and empty the journal in one critical section, so an exporter
  // draining per-interval events cannot lose entries appended between a
  // separate snapshot and clear.
  std::vector<StructuredEvent> Drain();

  // Non-destructive incremental read: returns the events appended since
  // *cursor (an append total from a previous call; start from 0), oldest
  // first, limited to what is still resident — entries already lost to
  // wrap-around are skipped, never re-delivered. Updates *cursor to the
  // current append total in the same critical section, so concurrent
  // appends land in exactly one interval. This is how the exporter tails
  // the journal without consuming it.
  std::vector<StructuredEvent> SnapshotSince(int64_t* cursor) const;

  size_t capacity() const { return capacity_; }
  int64_t total_appended() const;
  // Events lost to capacity wrap-around since construction (or last Clear).
  int64_t dropped() const;

  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  // Ring storage, all guarded by mutex_: events_[(start_ + i) % capacity_]
  // for i in [0, size_).
  std::vector<StructuredEvent> events_;
  size_t start_ = 0;
  size_t size_ = 0;
  int64_t total_ = 0;
  int64_t dropped_ = 0;
};

// The process-wide journal the engine/quadtree hooks write into.
EventLog& GlobalEventLog();

// Writes `events` as JSONL: one {"ts_ns", "kind", "tid", "label", "a",
// "b", "c"} object per line, oldest first.
void ExportEventsJsonl(std::ostream& os,
                       const std::vector<StructuredEvent>& events);

}  // namespace obs
}  // namespace mlq

#endif  // MLQ_OBS_EVENT_LOG_H_

#ifndef MLQ_OBS_TRACE_RING_H_
#define MLQ_OBS_TRACE_RING_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace mlq {
namespace obs {

// Typed events recorded by the serving stack. The two double payload slots
// carry per-type arguments (named in ExportChromeTrace and
// docs/observability.md).
enum class TraceEventType : uint8_t {
  kPredict = 0,    // a = predicted value, b = node depth
  kInsert,         // a = observed value, b = insertion path length
  kPartition,      // a = child depth,    b = child index
  kCompress,       // a = bytes freed,    b = th_SSE after the pass
  kExpand,         // a = new max_depth
  kFeedbackDrop,   // a = pending count (post-drop)
  kFeedbackDrain,  // a = observations applied
  kPlan,           // a = #predicates,    b = expected cost/row (us)
  kPlanAudit,      // a = max cost drift, b = max selectivity drift
  kQueryExec,      // a = rows in,        b = actual cost (us)
};

std::string_view TraceEventTypeName(TraceEventType type);

// A snapshot copy of one recorded event (plain data, no atomics).
struct TraceEvent {
  TraceEventType type = TraceEventType::kPredict;
  int tid = 0;
  int64_t ts_ns = 0;   // Start timestamp, obs::NowNs timebase.
  int64_t dur_ns = 0;  // 0 for instant events.
  double a = 0.0;
  double b = 0.0;
};

// Fixed-capacity ring buffer of trace events.
//
// Writers take a ticket with one relaxed fetch_add, claim the ticket's
// slot by swapping its sequence word to a busy mark, fill it, and publish
// it by storing ticket + 1 with release order; when the ring is full the
// oldest slot is silently overwritten (overwritten() keeps count — drops
// are never silent in aggregate). The claim serializes writers whose
// tickets lap onto the same slot (a later writer waits for the claim to
// clear; an earlier one that finds a newer event published gives up), so
// a slot never holds a mix of two events. Payload fields are stored with
// release and loaded with acquire order, so a reader that copies any part
// of a newer writer's payload also sees that writer's claim. Readers
// (Snapshot) validate each slot's sequence before and after copying the
// payload and discard slots that changed under them: a snapshot taken
// while writers are running yields only whole events.
// All slot fields are atomics, so concurrent Record/Snapshot is race-free
// by construction (TSan-clean).
class TraceRing {
 public:
  // Capacity is rounded up to a power of two; default 64Ki events (~3 MB).
  explicit TraceRing(size_t capacity = 1 << 16);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(TraceEventType type, int64_t ts_ns, int64_t dur_ns,
              double a = 0.0, double b = 0.0);

  // Copies the currently resident events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  size_t capacity() const { return mask_ + 1; }
  int64_t total_recorded() const {
    return static_cast<int64_t>(next_.load(std::memory_order_relaxed));
  }
  // Events lost to wrap-around (total_recorded - capacity, floored at 0).
  int64_t overwritten() const;

  // Empties the ring. Not safe against concurrent writers; call quiesced
  // (tests, tool teardown between phases).
  void Clear();

 private:
  // Sequence word of a slot a writer has claimed and is filling.
  static constexpr uint64_t kBusy = ~uint64_t{0};

  struct Slot {
    // ticket + 1 once published; 0 = empty; kBusy while being written.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint8_t> type{0};
    std::atomic<int32_t> tid{0};
    std::atomic<int64_t> ts_ns{0};
    std::atomic<int64_t> dur_ns{0};
    std::atomic<double> a{0.0};
    std::atomic<double> b{0.0};
  };

  uint64_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

// The process-wide ring the MLQ_TRACE_EVENT hooks write into.
TraceRing& GlobalTraceRing();

// Runtime switch for event recording, independent of the metrics toggle
// (metrics are cheap enough for production; tracing costs a ring write per
// event and is usually enabled only around an investigation).
extern std::atomic<bool> g_trace_enabled;
inline bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}
void SetTraceEnabled(bool on);

// Writes `events` as Chrome trace_event JSON ("chrome://tracing" /
// https://ui.perfetto.dev loadable): complete ("X") events for spans,
// instant ("i") events for zero-duration ones, timestamps in microseconds.
void ExportChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events);

}  // namespace obs
}  // namespace mlq

// Trace hook used by instrumentation sites. Compiles to nothing when
// MLQ_OBS_DISABLE_TRACING is defined (cmake -DMLQ_DISABLE_TRACING=ON), for
// deployments that want even the trace branch out of the binary; otherwise
// it is one relaxed load when tracing is off.
#ifndef MLQ_OBS_DISABLE_TRACING
#define MLQ_TRACE_EVENT(type, ts_ns, dur_ns, a, b)                          \
  do {                                                                      \
    if (mlq::obs::TraceEnabled()) {                                         \
      mlq::obs::GlobalTraceRing().Record((type), (ts_ns), (dur_ns), (a),    \
                                         (b));                              \
    }                                                                       \
  } while (0)
#else
#define MLQ_TRACE_EVENT(type, ts_ns, dur_ns, a, b) \
  do {                                             \
  } while (0)
#endif

#endif  // MLQ_OBS_TRACE_RING_H_

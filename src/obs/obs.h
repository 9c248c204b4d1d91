#ifndef MLQ_OBS_OBS_H_
#define MLQ_OBS_OBS_H_

// Umbrella header for the observability layer: runtime-toggled metrics
// (obs/metrics.h), event tracing (obs/trace_ring.h), the structured
// macro-event journal (obs/event_log.h), and the continuous telemetry
// exporter (obs/telemetry.h). Instrumentation sites either hand-roll the
// guard (hot paths that also bump counters) or use ScopedLatency for the
// common span shape.
//
// The contract every hook honours: with obs::Enabled() false the cost is
// one relaxed atomic load and a branch — `bench/overhead --case=obs` holds
// this under 2% of the hot-loop budget — and with MLQ_OBS_DISABLE_TRACING
// the trace hooks vanish from the binary entirely.

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_ring.h"

namespace mlq {
namespace obs {

// Records a latency span into `histogram` (and, when tracing is on, a
// trace event of `type`) covering the scope's lifetime. Captures the
// enabled flag at construction so a mid-scope toggle cannot tear the
// measurement.
class ScopedLatency {
 public:
  ScopedLatency(LatencyHistogram& histogram, Counter& counter,
                TraceEventType type)
      : histogram_(histogram),
        counter_(counter),
        type_(type),
        enabled_(Enabled()),
        start_ns_(enabled_ ? NowNs() : 0) {}

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

  // Optional per-type payload for the trace event.
  void set_args(double a, double b) {
    a_ = a;
    b_ = b;
  }

  ~ScopedLatency() {
    if (!enabled_) return;
    const int64_t dur = NowNs() - start_ns_;
    counter_.Inc();
    histogram_.Record(dur);
    MLQ_TRACE_EVENT(type_, start_ns_, dur, a_, b_);
  }

 private:
  LatencyHistogram& histogram_;
  Counter& counter_;
  TraceEventType type_;
  bool enabled_;
  int64_t start_ns_;
  double a_ = 0.0;
  double b_ = 0.0;
};

}  // namespace obs
}  // namespace mlq

#endif  // MLQ_OBS_OBS_H_

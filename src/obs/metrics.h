#ifndef MLQ_OBS_METRICS_H_
#define MLQ_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace mlq {
namespace obs {

// Master runtime switch for the whole observability layer. OFF by default,
// so the library behaves exactly like the uninstrumented build: every hook
// is a single relaxed atomic load plus a predicted-not-taken branch
// (`bench/overhead --case=obs` measures this disabled path at well under
// 2% of the hot-loop cost). Tools, benches and tests flip it on explicitly.
extern std::atomic<bool> g_metrics_enabled;

inline bool Enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

// Monotonic nanoseconds since the first call in this process (steady
// clock); the shared timebase for latency histograms and trace events.
int64_t NowNs();

// Small dense id for the calling thread (0, 1, 2, ... in first-use order);
// used as the `tid` of trace events so Chrome's trace viewer groups rows
// sensibly.
int CurrentThreadId();

// --- Instruments -----------------------------------------------------------
// All instruments are thread-safe via relaxed atomics: increments from any
// number of threads are exact; readers see values that are individually
// consistent (snapshots across instruments are not atomic, which is fine
// for monitoring).

class Counter {
 public:
  void Inc(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  // Reads and zeroes in one atomic RMW: an Inc racing this lands either
  // before (read out) or after (kept for the next drain) — never lost.
  int64_t Drain() { return value_.exchange(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log2-bucketed latency histogram over nanoseconds: bucket 0 holds
// [0, 2) ns and bucket i >= 1 holds [2^i, 2^(i+1)) ns, so 48 buckets cover
// everything up to ~78 hours. Record is two relaxed fetch_adds plus a
// bit_width; Quantile reads a snapshot of the buckets and interpolates
// linearly inside the chosen bucket.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 48;

  void Record(int64_t ns);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  int64_t max_ns() const { return max_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

  // Inclusive upper bound of bucket `i` (the Prometheus `le` label).
  static int64_t BucketUpperNs(int i);

  // Estimated q-quantile in nanoseconds (q in [0, 1]); 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  friend class MetricsRegistry;  // Drains buckets for SnapshotAndReset.

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_ns_{0};
  std::atomic<int64_t> max_ns_{0};
};

// --- Snapshots -------------------------------------------------------------

// Plain-data copy of one histogram's state; quantiles computed over the
// copied buckets with the same interpolation LatencyHistogram::Quantile
// uses, so interval quantiles (deltas between snapshots) cost nothing
// extra.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum_ns = 0;
  int64_t max_ns = 0;
  std::array<uint64_t, LatencyHistogram::kNumBuckets> buckets{};

  // q-quantile over the snapshotted buckets (0 when empty).
  double Quantile(double q) const;
  // this - base, element-wise (count/sum/buckets; max is kept from *this,
  // an interval upper bound). Negative components clamp to zero, so a
  // reset landing between the two snapshots cannot produce nonsense.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& base) const;
  // Folds `other` into this snapshot (the exporter's cumulative view).
  void Accumulate(const HistogramSnapshot& other);
};

// One coherent copy of every registered instrument, taken under the
// registry mutex so no instrument can be created or reset halfway through.
struct MetricsSnapshot {
  int64_t ts_ns = 0;  // obs::NowNs() at capture.
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

// --- Registry --------------------------------------------------------------

// Named metric registry. Get* finds or creates; returned references stay
// valid for the registry's lifetime (instruments are heap-allocated and
// never removed), so hot paths resolve a metric once and keep the
// reference. Registration takes a mutex; the instruments themselves do not.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  LatencyHistogram& GetHistogram(const std::string& name,
                                 const std::string& help = "");

  // Prometheus-style text exposition (counters, gauges, histograms with
  // cumulative le-buckets in nanoseconds).
  void RenderPrometheus(std::ostream& os) const;

  // One JSON object: {"counters": {...}, "gauges": {...},
  // "histograms": {name: {count, sum_ns, max_ns, p50_ns, p90_ns, p99_ns}}}.
  void RenderJson(std::ostream& os) const;

  // Human-readable latency summary (one line per non-empty histogram with
  // count / p50 / p90 / p99 / p999 / max), for terminal output.
  void RenderLatencySummary(std::ostream& os) const;

  // Coherent read of every instrument (non-destructive).
  MetricsSnapshot Snapshot() const;

  // Reads AND zeroes every counter and histogram in one critical section
  // (gauges are copied, not reset — they are levels, not totals). Holds
  // the same mutex as ResetAll, so a concurrent ResetAll lands entirely
  // before or entirely after the scrape and interval deltas can never go
  // negative; per-instrument drains are atomic RMWs, so increments racing
  // the scrape are either in this snapshot or in the next, never lost.
  // This is the TelemetryExporter's scrape primitive.
  MetricsSnapshot SnapshotAndReset();

  // Zeroes every registered instrument (names stay registered).
  void ResetAll();

  // Help text registered for `name` ("" when none). For exporters that
  // re-render # HELP lines from snapshots.
  std::string Help(const std::string& name) const;

 private:
  MetricsRegistry() = default;

  template <typename T>
  T& FindOrCreate(std::map<std::string, std::unique_ptr<T>>& family,
                  const std::string& name, const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, std::string> help_;
};

// --- Well-known metrics ----------------------------------------------------

// The stack's core instruments, resolved once against the global registry
// so instrumentation sites pay a function-local-static check instead of a
// name lookup. Names are the stable public metric schema
// (docs/observability.md).
struct CoreMetrics {
  Counter& predicts;              // mlq_predicts_total
  Counter& predict_batches;       // mlq_predict_batches_total
  Counter& inserts;               // mlq_inserts_total
  Counter& partitions;            // mlq_partitions_total (nodes materialized)
  Counter& compressions;          // mlq_compressions_total
  Counter& compress_bytes_freed;  // mlq_compress_bytes_freed_total
  Counter& expansions;            // mlq_expansions_total (root doublings)
  Counter& feedback_enqueued;     // mlq_feedback_enqueued_total
  Counter& feedback_applied;      // mlq_feedback_applied_total
  Counter& feedback_dropped;      // mlq_feedback_dropped_total
  Counter& catalog_feedback;      // mlq_catalog_feedback_total
  Counter& plans;                 // mlq_plans_total
  Counter& plan_audits;           // mlq_plan_audits_total
  Counter& query_execs;           // mlq_query_execs_total
  Counter& observe_batches;       // mlq_observe_batches_total
  Counter& arena_compactions;     // mlq_arena_compactions_total
  Counter& arena_compact_bytes_reclaimed;  // mlq_arena_compact_bytes_reclaimed_total
  Counter& maintenance_epochs;    // mlq_maintenance_epochs_total
  Counter& maintenance_steps;     // mlq_maintenance_steps_total
  Counter& drift_events;          // mlq_drift_events_total
  Counter& decay_epochs;          // mlq_decay_epochs_total
  Counter& governor_rebalances;   // mlq_governor_rebalances_total
  Counter& governor_bytes_granted;    // mlq_governor_bytes_granted_total
  Counter& governor_bytes_reclaimed;  // mlq_governor_bytes_reclaimed_total
  Counter& governor_evictions;    // mlq_governor_evictions_total
  Counter& governor_reloads;      // mlq_governor_reloads_total
  // Plans costed with a non-zero risk knob, and how many of those chose an
  // order different from the classical rank (the variance signal actually
  // changed a decision).
  Counter& risk_plans;            // mlq_risk_plans_total
  Counter& risk_reorders;         // mlq_plan_risk_reorders_total

  LatencyHistogram& predict_ns;    // mlq_predict_latency_ns
  LatencyHistogram& predict_batch_ns;  // mlq_predict_batch_latency_ns
  LatencyHistogram& insert_ns;     // mlq_insert_latency_ns
  LatencyHistogram& compress_ns;   // mlq_compress_latency_ns
  LatencyHistogram& plan_ns;       // mlq_plan_latency_ns
  LatencyHistogram& exec_ns;       // mlq_query_exec_latency_ns
  LatencyHistogram& lock_wait_ns;  // mlq_model_lock_wait_ns
  LatencyHistogram& observe_batch_ns;  // mlq_observe_batch_latency_ns
  // Batch SIZES, not latencies: the log2 bucketing doubles as a cheap
  // power-of-two size histogram.
  LatencyHistogram& observe_batch_points;  // mlq_observe_batch_points
  // One maintenance quiesce window (locks held + one compaction step) —
  // the serving pause a step imposes.
  LatencyHistogram& maintenance_pause_ns;  // mlq_maintenance_pause_ns
  // Per-prediction stddev of catalog cost estimates, recorded in
  // MILLI-units (log2 buckets) so sub-unit uncertainty stays visible: the
  // uncertainty stream the risk-aware planner consumes.
  LatencyHistogram& predict_stddev;  // mlq_predict_stddev

  Gauge& max_cost_drift;         // mlq_model_max_cost_drift
  Gauge& max_selectivity_drift;  // mlq_model_max_selectivity_drift
  Gauge& sse_threshold;          // mlq_compress_sse_threshold
  // Reclaimable fraction of the worst catalog arena (free / total slots).
  Gauge& arena_fragmentation;    // mlq_arena_fragmentation
  // Fast/slow windowed-error ratio of the stalest model the drift detector
  // tracks (1 = calibrated; >> 1 = the model lags the workload).
  Gauge& model_staleness;        // mlq_model_staleness
  // Catalog entries currently resident (not evicted to the snapshot store).
  Gauge& governor_resident_models;  // mlq_governor_resident_models
  // Sum of per-entry byte budgets after the last governor rebalance.
  Gauge& governor_allocated_bytes;  // mlq_governor_allocated_bytes
};

CoreMetrics& Core();

}  // namespace obs
}  // namespace mlq

#endif  // MLQ_OBS_METRICS_H_

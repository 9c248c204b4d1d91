#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

namespace mlq {
namespace obs {

std::atomic<bool> g_metrics_enabled{false};

void SetEnabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point process_start = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              process_start)
      .count();
}

int CurrentThreadId() {
  static std::atomic<int> next_id{0};
  thread_local const int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// --- LatencyHistogram ------------------------------------------------------

namespace {

int BucketIndex(int64_t ns) {
  if (ns < 2) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(ns));
  // bit_width(ns) - 1 = floor(log2(ns)), so values in [2^i, 2^(i+1)) land
  // in bucket i.
  return std::min(width - 1, LatencyHistogram::kNumBuckets - 1);
}

}  // namespace

void LatencyHistogram::Record(int64_t ns) {
  if (ns < 0) ns = 0;
  buckets_[static_cast<size_t>(BucketIndex(ns))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  int64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

int64_t LatencyHistogram::BucketUpperNs(int i) {
  // Bucket 0 = [0, 2); bucket i = [2^i, 2^(i+1)); the last bucket is open.
  if (i >= kNumBuckets - 1) return INT64_MAX;
  return int64_t{1} << (i + 1);
}

namespace {

// Shared interpolation over a copied bucket array: used by the live
// histogram and by HistogramSnapshot, so interval quantiles match the
// cumulative ones bucket-for-bucket.
double QuantileFromBuckets(
    const std::array<uint64_t, LatencyHistogram::kNumBuckets>& buckets,
    double q, int64_t fallback_max_ns) {
  constexpr int kNumBuckets = LatencyHistogram::kNumBuckets;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t total = 0;
  for (const uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const double in_bucket = static_cast<double>(buckets[static_cast<size_t>(i)]);
    if (in_bucket <= 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double lower = i == 0 ? 0.0 : static_cast<double>(int64_t{1} << i);
      const double upper =
          i >= kNumBuckets - 1
              ? static_cast<double>(int64_t{1} << (kNumBuckets - 1)) * 2.0
              : static_cast<double>(LatencyHistogram::BucketUpperNs(i));
      const double fraction =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return lower + fraction * (upper - lower);
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(fallback_max_ns);
}

}  // namespace

double LatencyHistogram::Quantile(double q) const {
  std::array<uint64_t, kNumBuckets> snapshot;
  for (int i = 0; i < kNumBuckets; ++i) {
    snapshot[static_cast<size_t>(i)] = bucket(i);
  }
  return QuantileFromBuckets(snapshot, q, max_ns());
}

double HistogramSnapshot::Quantile(double q) const {
  return QuantileFromBuckets(buckets, q, max_ns);
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& base) const {
  HistogramSnapshot delta;
  delta.count = std::max<int64_t>(count - base.count, 0);
  delta.sum_ns = std::max<int64_t>(sum_ns - base.sum_ns, 0);
  // max is not subtractable; the cumulative max bounds the interval max.
  delta.max_ns = max_ns;
  for (size_t i = 0; i < buckets.size(); ++i) {
    delta.buckets[i] =
        buckets[i] >= base.buckets[i] ? buckets[i] - base.buckets[i] : 0;
  }
  return delta;
}

void HistogramSnapshot::Accumulate(const HistogramSnapshot& other) {
  count += other.count;
  sum_ns += other.sum_ns;
  max_ns = std::max(max_ns, other.max_ns);
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

// --- MetricsRegistry -------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never freed.
  return *registry;
}

template <typename T>
T& MetricsRegistry::FindOrCreate(
    std::map<std::string, std::unique_ptr<T>>& family, const std::string& name,
    const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = family.find(name);
  if (it == family.end()) {
    it = family.emplace(name, std::make_unique<T>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return FindOrCreate(counters_, name, help);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return FindOrCreate(gauges_, name, help);
}

LatencyHistogram& MetricsRegistry::GetHistogram(const std::string& name,
                                                const std::string& help) {
  return FindOrCreate(histograms_, name, help);
}

namespace {

void WriteHelpAndType(std::ostream& os, const std::string& name,
                      const std::map<std::string, std::string>& help,
                      const char* type) {
  const auto it = help.find(name);
  if (it != help.end()) os << "# HELP " << name << " " << it->second << "\n";
  os << "# TYPE " << name << " " << type << "\n";
}

// JSON string escaping is unnecessary here: metric names are C identifiers
// by construction. Doubles render with %.17g-style round-trip precision via
// ostream default; NaN/Inf are mapped to null per JSON.
void WriteJsonNumber(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

void MetricsRegistry::RenderPrometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    WriteHelpAndType(os, name, help_, "counter");
    os << name << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    WriteHelpAndType(os, name, help_, "gauge");
    os << name << " " << gauge->Value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    WriteHelpAndType(os, name, help_, "histogram");
    uint64_t cumulative = 0;
    int highest = 0;
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      if (histogram->bucket(i) > 0) highest = i;
    }
    for (int i = 0; i <= highest; ++i) {
      cumulative += histogram->bucket(i);
      os << name << "_bucket{le=\"" << LatencyHistogram::BucketUpperNs(i)
         << "\"} " << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << histogram->count() << "\n";
    os << name << "_sum " << histogram->sum_ns() << "\n";
    os << name << "_count " << histogram->count() << "\n";
  }
}

void MetricsRegistry::RenderJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << counter->Value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":";
    WriteJsonNumber(os, gauge->Value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"count\":" << histogram->count()
       << ",\"sum_ns\":" << histogram->sum_ns()
       << ",\"max_ns\":" << histogram->max_ns() << ",\"p50_ns\":";
    WriteJsonNumber(os, histogram->Quantile(0.50));
    os << ",\"p90_ns\":";
    WriteJsonNumber(os, histogram->Quantile(0.90));
    os << ",\"p99_ns\":";
    WriteJsonNumber(os, histogram->Quantile(0.99));
    os << ",\"p999_ns\":";
    WriteJsonNumber(os, histogram->Quantile(0.999));
    os << "}";
  }
  os << "}}";
}

void MetricsRegistry::RenderLatencySummary(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "latency histograms (ns):\n";
  bool any = false;
  for (const auto& [name, histogram] : histograms_) {
    if (histogram->count() == 0) continue;
    any = true;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-28s count=%-9lld p50=%-10.0f p90=%-10.0f p99=%-10.0f "
                  "p999=%-10.0f max=%lld\n",
                  name.c_str(), static_cast<long long>(histogram->count()),
                  histogram->Quantile(0.50), histogram->Quantile(0.90),
                  histogram->Quantile(0.99), histogram->Quantile(0.999),
                  static_cast<long long>(histogram->max_ns()));
    os << buf;
  }
  if (!any) os << "  (none recorded)\n";
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.ts_ns = NowNs();
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot& h = snapshot.histograms[name];
    h.count = histogram->count();
    h.sum_ns = histogram->sum_ns();
    h.max_ns = histogram->max_ns();
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      h.buckets[static_cast<size_t>(i)] = histogram->bucket(i);
    }
  }
  return snapshot;
}

MetricsSnapshot MetricsRegistry::SnapshotAndReset() {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.ts_ns = NowNs();
  for (auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Drain();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();  // Levels: read, don't reset.
  }
  for (auto& [name, histogram] : histograms_) {
    HistogramSnapshot& h = snapshot.histograms[name];
    // Per-field exchange: a Record racing the scrape lands its bucket and
    // count increments either in this snapshot or the next, never in
    // neither (each fetch_add pairs with exactly one exchange read).
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      h.buckets[static_cast<size_t>(i)] =
          histogram->buckets_[static_cast<size_t>(i)].exchange(
              0, std::memory_order_relaxed);
    }
    h.count = histogram->count_.exchange(0, std::memory_order_relaxed);
    h.sum_ns = histogram->sum_ns_.exchange(0, std::memory_order_relaxed);
    h.max_ns = histogram->max_ns_.exchange(0, std::memory_order_relaxed);
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string MetricsRegistry::Help(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = help_.find(name);
  return it == help_.end() ? std::string() : it->second;
}

// --- CoreMetrics -----------------------------------------------------------

CoreMetrics& Core() {
  MetricsRegistry& r = MetricsRegistry::Global();
  static CoreMetrics* core = new CoreMetrics{
      r.GetCounter("mlq_predicts_total", "Quadtree point predictions served"),
      r.GetCounter("mlq_predict_batches_total",
                   "Batched prediction calls served"),
      r.GetCounter("mlq_inserts_total", "Cost observations inserted"),
      r.GetCounter("mlq_partitions_total", "Quadtree nodes materialized"),
      r.GetCounter("mlq_compressions_total", "Compression passes run"),
      r.GetCounter("mlq_compress_bytes_freed_total",
                   "Logical bytes freed by compression"),
      r.GetCounter("mlq_expansions_total", "Root-doubling space expansions"),
      r.GetCounter("mlq_feedback_enqueued_total",
                   "Observations enqueued into shard feedback queues"),
      r.GetCounter("mlq_feedback_applied_total",
                   "Queued observations applied to shard trees"),
      r.GetCounter("mlq_feedback_dropped_total",
                   "Observations evicted by feedback-queue overflow"),
      r.GetCounter("mlq_catalog_feedback_total",
                   "UDF execution outcomes recorded into the catalog"),
      r.GetCounter("mlq_plans_total", "Queries planned"),
      r.GetCounter("mlq_plan_audits_total", "LEO-style plan audits run"),
      r.GetCounter("mlq_query_execs_total", "Queries executed"),
      r.GetCounter("mlq_observe_batches_total", "Batched feedback calls applied"),
      r.GetCounter("mlq_arena_compactions_total",
                   "Shared node-arena compaction passes"),
      r.GetCounter("mlq_arena_compact_bytes_reclaimed_total",
                   "Physical bytes reclaimed by arena compaction"),
      r.GetCounter("mlq_maintenance_epochs_total",
                   "Arena maintenance epochs completed"),
      r.GetCounter("mlq_maintenance_steps_total",
                   "Incremental maintenance quiesce windows run"),
      r.GetCounter("mlq_drift_events_total",
                   "Drift-detector firings (abrupt + gradual)"),
      r.GetCounter("mlq_decay_epochs_total",
                   "Summary decay epochs advanced across all trees"),
      r.GetCounter("mlq_governor_rebalances_total",
                   "Catalog-governor budget rebalances run"),
      r.GetCounter("mlq_governor_bytes_granted_total",
                   "Budget bytes granted to growing entries by the governor"),
      r.GetCounter("mlq_governor_bytes_reclaimed_total",
                   "Budget bytes reclaimed from shrinking entries"),
      r.GetCounter("mlq_governor_evictions_total",
                   "Whole-model evictions to the governor snapshot store"),
      r.GetCounter("mlq_governor_reloads_total",
                   "Evicted models restored from snapshots on re-use"),
      r.GetCounter("mlq_risk_plans_total",
                   "Plans costed with a non-zero risk knob"),
      r.GetCounter("mlq_plan_risk_reorders_total",
                   "Risk-costed plans whose order differs from classical rank"),
      r.GetHistogram("mlq_predict_latency_ns", "Predict latency"),
      r.GetHistogram("mlq_predict_batch_latency_ns",
                     "Whole-batch predict latency"),
      r.GetHistogram("mlq_insert_latency_ns", "Insert latency"),
      r.GetHistogram("mlq_compress_latency_ns", "Compression pass latency"),
      r.GetHistogram("mlq_plan_latency_ns", "Query planning latency"),
      r.GetHistogram("mlq_query_exec_latency_ns", "Query execution latency"),
      r.GetHistogram("mlq_model_lock_wait_ns",
                     "Wait for a model/shard mutex on the serving path"),
      r.GetHistogram("mlq_observe_batch_latency_ns",
                     "Whole-batch feedback latency"),
      r.GetHistogram("mlq_observe_batch_points",
                     "Observations per feedback batch (log2 buckets)"),
      r.GetHistogram("mlq_maintenance_pause_ns",
                     "Serving pause per maintenance quiesce window"),
      r.GetHistogram("mlq_predict_stddev",
                     "Per-prediction cost-estimate stddev (milli-units)"),
      r.GetGauge("mlq_model_max_cost_drift",
                 "Max multiplicative cost-estimate drift from the last audit"),
      r.GetGauge("mlq_model_max_selectivity_drift",
                 "Max selectivity drift from the last plan audit"),
      r.GetGauge("mlq_compress_sse_threshold",
                 "th_SSE after the most recent compression"),
      r.GetGauge("mlq_arena_fragmentation",
                 "Reclaimable slot fraction of the worst catalog arena"),
      r.GetGauge("mlq_model_staleness",
                 "Worst fast/slow windowed-error ratio across tracked models"),
      r.GetGauge("mlq_governor_resident_models",
                 "Catalog entries currently resident (not evicted)"),
      r.GetGauge("mlq_governor_allocated_bytes",
                 "Per-entry byte budgets summed after the last rebalance"),
  };
  return *core;
}

}  // namespace obs
}  // namespace mlq

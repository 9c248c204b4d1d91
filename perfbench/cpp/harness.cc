#include "harness.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <malloc.h>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSubBits = 10;
constexpr int64_t kSubBuckets = int64_t{1} << kSubBits;
// Latencies above 2^36 ns (about 69 s) share the top bucket.
constexpr int kMaxExponent = 36;

// Set-ups per run: some before the measured phase (the last of these is the
// one measured) and some after it, so that setup_s, their median, samples
// the host's speed across the whole run.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the printed names).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"nae", "ratio"},
    {"udf_cost_us_per_row", "us/row"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},
};

constexpr MetricSpec kPerLayer[] = {
    {"quadtree.compressions_per_op", "count/op"},
    {"quadtree.update_us_per_op", "us/op"},
    {"quadtree.nodes", "count"},
    {"quadtree.arena_mb", "MB"},
    {"quadtree.arena_fragmentation", "frac"},
    {"model.feedback_dropped_frac", "frac"},
    {"catalog.predict_ns_p50", "ns"},
    {"catalog.predict_ns_p99", "ns"},
    {"catalog.selectivity_ns_p50", "ns"},
    {"catalog.selectivity_ns_p99", "ns"},
    {"catalog.record_us_p50", "us"},
    {"catalog.record_us_p99", "us"},
    {"catalog.tick_us_p50", "us"},
    {"catalog.tick_us_p99", "us"},
    {"catalog.tick_share", "frac"},
    {"maintenance.epochs", "count"},
    {"maintenance.max_pause_us", "us"},
    {"governor.rebalances", "count"},
    {"governor.moved_kb", "KB"},
    {"optimizer.plan_us_p50", "us"},
    {"optimizer.plan_us_p99", "us"},
    {"executor.execute_us_p50", "us"},
    {"executor.execute_us_p99", "us"},
    {"executor.self_share", "frac"},
    {"executor.evals_per_row", "count/row"},
    {"udf.execute_us_p50", "us"},
    {"udf.execute_us_p99", "us"},
    {"udf.busy_share", "frac"},
    {"storage.buffer_hit_rate", "frac"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(uint64_t seed);
};
constexpr WorkloadEntry kWorkloads[] = {
    {"paper_stream", MakePaperStream},
    {"catalog_fleet", MakeCatalogFleet},
    {"query_loop", MakeQueryLoop},
};

// Per-client results of the measured phase.
struct ClientResult {
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t end_ns = 0;
  // Ops and their latencies by the kWindowNs window in which they ended.
  std::vector<Window> windows;
  // Wall time and count of the untraced [0] and traced [1] ops.
  int64_t op_ns[2] = {0, 0};
  int64_t op_count[2] = {0, 0};
  SpanBuffer spans;
};

// When the measured phase starts and when its clients may stop; written
// before the clients are released.
struct Phase {
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
};

void RunClient(Workload& workload, int client, bool trace, const Phase& phase,
               ClientResult& out) {
  const int64_t scored = workload.scored_ops();
  const int64_t every = workload.trace_every();
  int64_t i = 0;
  for (;; ++i) {
    const int64_t t0 = NowNs();
    if (i >= scored && t0 >= phase.deadline_ns) break;
    const bool traced = trace && i % every == 0;
    if (traced) {
      BeginRequest(&out.spans, (static_cast<uint64_t>(client) << 48) |
                                   static_cast<uint64_t>(i), t0);
    }
    const bool ok = workload.RunOp(client, i);
    const int64_t t1 = NowNs();
    if (traced) EndRequest(t1);
    const auto w = static_cast<size_t>((t1 - phase.start_ns) / kWindowNs);
    if (w >= out.windows.size()) out.windows.resize(w + 1);
    ++out.windows[w].ops;
    out.windows[w].latency.Record(t1 - t0);
    out.op_ns[traced] += t1 - t0;
    ++out.op_count[traced];
    if (!ok) ++out.failed;
  }
  out.end_ns = NowNs();
  out.ops = i;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void SetSpanMetrics(const std::vector<SpanBuffer>& spans, MetricSet& layer) {
  struct Timed {
    SpanName span;
    const char* prefix;
    double scale;  // ns per reported unit
  };
  const Timed timed[] = {
      {SpanName::kCatalogPredict, "catalog.predict_ns", 1.0},
      {SpanName::kCatalogSelectivity, "catalog.selectivity_ns", 1.0},
      {SpanName::kCatalogRecord, "catalog.record_us", 1e3},
      {SpanName::kCatalogTick, "catalog.tick_us", 1e3},
      {SpanName::kOptimizerPlan, "optimizer.plan_us", 1e3},
      {SpanName::kExecutorExecute, "executor.execute_us", 1e3},
      {SpanName::kUdfExecute, "udf.execute_us", 1e3},
  };
  for (const Timed& t : timed) {
    const SpanSummary s = Summarize(spans, t.span);
    const std::string prefix = t.prefix;
    layer.Set(prefix + "_p50", SampleQuantile(s.durations, 0.5) / t.scale);
    layer.Set(prefix + "_p99", SampleQuantile(s.durations, 0.99) / t.scale);
    if (t.span == SpanName::kExecutorExecute && s.total_ns > 0) {
      layer.Set("executor.self_share",
                static_cast<double>(s.self_ns) / s.total_ns);
    }
  }
  layer.Set("catalog.tick_share", LayerShare(spans, SpanName::kCatalogTick));
  layer.Set("udf.busy_share", LayerShare(spans, SpanName::kUdfExecute));
  int64_t total = 0;
  for (const SpanBuffer& buffer : spans) total += buffer.size();
  layer.Set("trace.spans", static_cast<double>(total));
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<size_t>((kMaxExponent - kSubBits + 2) * kSubBuckets),
               0) {}

void LatencyHistogram::Record(int64_t ns) {
  const auto v = static_cast<uint64_t>(std::max<int64_t>(ns, 0));
  size_t index;
  if (v < static_cast<uint64_t>(kSubBuckets)) {
    index = v;
  } else {
    const int exponent =
        std::min(static_cast<int>(std::bit_width(v)) - 1, kMaxExponent);
    const uint64_t sub = (v >> (exponent - kSubBits)) & (kSubBuckets - 1);
    index = static_cast<size_t>((exponent - kSubBits + 1) * kSubBuckets + sub);
  }
  ++buckets_[index];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<int64_t>(std::ceil(q * count_));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < std::max<int64_t>(rank, 1)) continue;
    if (i < static_cast<size_t>(kSubBuckets)) return static_cast<double>(i);
    const int64_t block = static_cast<int64_t>(i) / kSubBuckets;  // >= 1
    const int exponent = static_cast<int>(block) + kSubBits - 1;
    const double width = std::ldexp(1.0, exponent - kSubBits);
    const double low = std::ldexp(1.0, exponent) +
                       static_cast<double>(i % kSubBuckets) * width;
    return low + 0.5 * width;
  }
  return 0.0;
}

double SampleQuantile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<int64_t>(values.size());
  // A p99 needs ten samples above it to mean anything.
  if (static_cast<double>(n) * (1.0 - q) < 10.0 && q > 0.5) return 0.0;
  const int64_t rank =
      std::max<int64_t>(static_cast<int64_t>(std::ceil(q * n)), 1) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return static_cast<double>(values[static_cast<size_t>(rank)]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

MetricSet::MetricSet(Kind kind) {
  if (kind == Kind::kEndToEnd) {
    for (const MetricSpec& m : kEndToEnd) metrics_.push_back({m.name, m.unit});
  } else {
    for (const MetricSpec& m : kPerLayer) metrics_.push_back({m.name, m.unit});
  }
}

MetricSet::Metric& MetricSet::Find(std::string_view name) {
  for (Metric& m : metrics_) {
    if (m.name == name) return m;
  }
  std::fprintf(stderr, "perfbench: unknown metric %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

const MetricSet::Metric& MetricSet::Find(std::string_view name) const {
  return const_cast<MetricSet*>(this)->Find(name);
}

void MetricSet::Set(std::string_view name, double value) {
  Metric& m = Find(name);
  m.value = value;
  m.set = true;
}

double MetricSet::Get(std::string_view name) const { return Find(name).value; }

SlowSpell SlowestWindows(const std::vector<Window>& windows,
                         int64_t elapsed_ns) {
  SlowSpell slow;
  slow.full = std::min(windows.size(),
                       static_cast<size_t>(std::max<int64_t>(elapsed_ns, 0) /
                                           kWindowNs));
  if (slow.full == 0) {
    // Shorter than a window: the whole run is the one spell there is.
    int64_t ops = 0;
    for (const Window& w : windows) {
      ops += w.ops;
      slow.latency.Merge(w.latency);
    }
    slow.ops_per_s = elapsed_ns > 0 ? static_cast<double>(ops) /
                                          (static_cast<double>(elapsed_ns) * 1e-9)
                                    : 0.0;
    return slow;
  }
  const double window_s = static_cast<double>(kWindowNs) * 1e-9;
  std::vector<double> p50(slow.full);
  std::vector<size_t> order(slow.full);
  for (size_t w = 0; w < slow.full; ++w) {
    p50[w] = windows[w].latency.Quantile(0.5);
    order[w] = w;
  }
  // Slowest median op first; then fewer ops, then the earlier window, so
  // the choice is exact.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (p50[a] != p50[b]) return p50[a] > p50[b];
    return windows[a].ops < windows[b].ops;
  });
  slow.used = (slow.full + kSlowShareDenominator - 1) / kSlowShareDenominator;
  int64_t ops = 0;
  for (size_t k = 0; k < slow.used; ++k) {
    ops += windows[order[k]].ops;
    slow.latency.Merge(windows[order[k]].latency);
  }
  slow.ops_per_s = static_cast<double>(ops) /
                   (static_cast<double>(slow.used) * window_s);
  return slow;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) return w.make(seed);
  }
  return nullptr;
}

bool IsWorkload(std::string_view name) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const auto set_up = [&] {
    workload.reset();
    // Hand the freed memory back to the kernel, so that every set-up
    // faults its pages in afresh, as the first one in a new process does.
    malloc_trim(0);
    const int64_t t0 = NowNs();
    workload = MakeWorkload(config.workload, config.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  for (int rep = 0; rep < kSetupsBefore; ++rep) set_up();
  const int clients = workload->clients();
  std::vector<ClientResult> out(static_cast<size_t>(clients));
  if (config.trace) {
    // Room for a whole run's spans (32 B each), so that no traced op pays
    // for a buffer copy; pages are touched only as spans are written.
    for (ClientResult& c : out) c.spans.reserve(size_t{1} << 22);
  }

  workload->BeginMeasured();
  Phase phase;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      RunClient(*workload, c, config.trace, phase, out[static_cast<size_t>(c)]);
    });
  }
  phase.start_ns = NowNs();
  phase.deadline_ns =
      phase.start_ns + static_cast<int64_t>(config.seconds * 1e9);
  go.store(true, std::memory_order_release);
  RunClient(*workload, 0, config.trace, phase, out[0]);
  for (std::thread& t : threads) t.join();

  const int64_t start = phase.start_ns;
  int64_t ops = 0;
  int64_t end = start;
  // Client 0's windows become the run's (its own are left empty), and the
  // other clients' are added to them.
  std::vector<Window> windows = std::move(out[0].windows);
  std::vector<SpanBuffer> spans;
  int64_t op_ns[2] = {0, 0};
  int64_t op_count[2] = {0, 0};
  for (ClientResult& c : out) {
    ops += c.ops;
    result.failed += c.failed;
    end = std::max(end, c.end_ns);
    if (windows.size() < c.windows.size()) windows.resize(c.windows.size());
    for (size_t w = 0; w < c.windows.size(); ++w) {
      windows[w].ops += c.windows[w].ops;
      windows[w].latency.Merge(c.windows[w].latency);
    }
    for (int k = 0; k < 2; ++k) {
      op_ns[k] += c.op_ns[k];
      op_count[k] += c.op_count[k];
    }
    spans.push_back(std::move(c.spans));
  }
  const SlowSpell slow = SlowestWindows(windows, end - start);
  // Each window's ops, p50 and p99 (ns), then the spell the timings use.
  std::fprintf(stderr, "windows");
  for (const Window& w : windows) {
    std::fprintf(stderr, " %lld/%.0f/%.0f", static_cast<long long>(w.ops),
                 w.latency.Quantile(0.5), w.latency.Quantile(0.99));
  }
  std::fprintf(stderr, "\nslowest %zu of %zu full windows: %.6g ops/s\n",
               slow.used, slow.full, slow.ops_per_s);
  result.attempted = ops;

  const bool final_ok = workload->FinalCheck();
  if (!final_ok) result.failed = ops;
  result.correct = result.failed == 0;

  MetricSet& e2e = result.end_to_end;
  e2e.Set("ops_per_s", slow.ops_per_s);
  e2e.Set("latency_p50_us", slow.latency.Quantile(0.5) * 1e-3);
  e2e.Set("latency_p99_us", slow.latency.Quantile(0.99) * 1e-3);
  e2e.Set("ok_frac", static_cast<double>(ops - result.failed) /
                         static_cast<double>(std::max<int64_t>(ops, 1)));
  workload->Collect(ops, e2e, result.per_layer);
  e2e.Set("peak_rss_mb", PeakRssMb());
  for (int rep = 0; rep < kSetupsAfter; ++rep) set_up();
  workload.reset();
  e2e.Set("setup_s", Median(setup_s));
  result.cold_setup_s = setup_s.front();

  if (config.trace) {
    SetSpanMetrics(spans, result.per_layer);
    // What tracing adds to each traced op: its mean wall time against
    // that of the untraced ops it is interleaved with.
    if (op_count[0] > 0 && op_count[1] > 0 && op_ns[0] > 0) {
      const double untraced = static_cast<double>(op_ns[0]) / op_count[0];
      const double traced = static_cast<double>(op_ns[1]) / op_count[1];
      result.per_layer.Set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
    }
    if (!config.span_out.empty() && !WriteSpanFile(config.span_out, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   config.span_out.c_str());
    }
  }
  // An end-to-end metric that is unset or not a number is a broken run.
  for (const MetricSet::Metric& m : e2e.metrics()) {
    if (!m.set || !std::isfinite(m.value)) result.correct = false;
  }
  return result;
}

std::string ResultJson(const RunResult& result, bool per_layer) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  const MetricSet& set = per_layer ? result.per_layer : result.end_to_end;
  bool first = true;
  for (const MetricSet::Metric& m : set.metrics()) {
    char value[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  return json;
}

}  // namespace perfbench

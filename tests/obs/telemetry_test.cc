// Tests for the continuous telemetry pipeline: the SnapshotAndReset scrape
// primitive (no negative deltas under a concurrent ResetAll — the
// regression this PR fixes), exporter delta/rate/cumulative arithmetic and
// lifecycle, Prometheus line-format validity, per-model health, and the
// end-to-end drift scenario journaling drift-fired and maintenance-epoch
// events with the documented payloads.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/cost_catalog.h"
#include "engine/maintenance_scheduler.h"
#include "eval/experiment_setup.h"
#include "obs/obs.h"

namespace mlq {
namespace obs {
namespace {

// The registry and journal are process-wide singletons; start every test
// from a clean, enabled slate and leave obs off afterwards.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
    GlobalEventLog().Clear();
  }
  void TearDown() override {
    MetricsRegistry::Global().ResetAll();
    GlobalEventLog().Clear();
    SetEnabled(false);
  }
};

TEST_F(TelemetryTest, CounterDrainIsExactUnderConcurrentIncrements) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> drained{0};

  std::thread drainer([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      drained.fetch_add(c.Drain(), std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& t : pool) t.join();
  stop.store(true, std::memory_order_release);
  drainer.join();
  drained.fetch_add(c.Drain(), std::memory_order_relaxed);

  // Every increment lands in exactly one drain: nothing lost, nothing
  // double-counted.
  EXPECT_EQ(drained.load(), static_cast<int64_t>(kThreads) * kPerThread);
}

// The satellite regression: a scrape loop running concurrently with
// ResetAll must never observe a negative interval delta. SnapshotAndReset
// holds the registry mutex, so the reset lands entirely before or entirely
// after any scrape; the scrape output IS the delta.
TEST_F(TelemetryTest, SnapshotAndResetDeltasNeverNegativeUnderResetAll) {
  auto& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test_srar_total");
  LatencyHistogram& hist = registry.GetHistogram("test_srar_latency_ns");

  std::atomic<bool> stop{false};
  std::thread incrementer([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      counter.Inc();
      hist.Record(100);
    }
  });
  std::thread resetter([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      registry.ResetAll();
    }
  });

  for (int i = 0; i < 2000; ++i) {
    const MetricsSnapshot delta = registry.SnapshotAndReset();
    const auto c = delta.counters.find("test_srar_total");
    ASSERT_NE(c, delta.counters.end());
    ASSERT_GE(c->second, 0) << "negative counter delta at scrape " << i;
    const auto h = delta.histograms.find("test_srar_latency_ns");
    ASSERT_NE(h, delta.histograms.end());
    ASSERT_GE(h->second.count, 0) << "negative histogram delta at " << i;
    ASSERT_GE(h->second.sum_ns, 0);
    for (uint64_t bucket : h->second.buckets) {
      ASSERT_LE(bucket, uint64_t{1} << 62);  // No unsigned underflow.
    }
  }
  stop.store(true, std::memory_order_release);
  incrementer.join();
  resetter.join();
}

TEST_F(TelemetryTest, HistogramSnapshotDeltaSinceClampsRegressions) {
  HistogramSnapshot older;
  older.count = 10;
  older.sum_ns = 1000;
  older.buckets.fill(0);
  older.buckets[3] = 10;

  HistogramSnapshot newer = older;
  newer.count = 4;  // A reset landed in between: cumulative went backwards.
  newer.buckets[3] = 4;

  const HistogramSnapshot delta = newer.DeltaSince(older);
  EXPECT_EQ(delta.count, 0);
  EXPECT_EQ(delta.buckets[3], 0u);
}

TEST_F(TelemetryTest, ScrapeOnceComputesDeltasRatesAndCumulative) {
  auto& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test_scrape_total");
  LatencyHistogram& hist = registry.GetHistogram("test_scrape_latency_ns");

  TelemetryExporter exporter;
  counter.Inc(5);
  for (int i = 0; i < 100; ++i) hist.Record(1000);

  const TelemetryFrame f1 = exporter.ScrapeOnce();
  EXPECT_EQ(f1.sequence, 1);
  EXPECT_GT(f1.interval_s, 0.0);
  EXPECT_EQ(f1.counter_deltas.at("test_scrape_total"), 5);
  EXPECT_GT(f1.counter_rates.at("test_scrape_total"), 0.0);
  EXPECT_EQ(f1.histograms.at("test_scrape_latency_ns").count, 100);
  EXPECT_GT(f1.histograms.at("test_scrape_latency_ns").p50_ns, 0.0);
  EXPECT_EQ(f1.cumulative.counters.at("test_scrape_total"), 5);

  counter.Inc(3);
  const TelemetryFrame f2 = exporter.ScrapeOnce();
  EXPECT_EQ(f2.sequence, 2);
  // Interval delta is the new increments only; the cumulative view keeps
  // the lifetime total even though each scrape drained the registry.
  EXPECT_EQ(f2.counter_deltas.at("test_scrape_total"), 3);
  EXPECT_EQ(f2.cumulative.counters.at("test_scrape_total"), 8);
  EXPECT_EQ(f2.cumulative.histograms.at("test_scrape_latency_ns").count, 100);
  EXPECT_EQ(exporter.scrapes(), 2);
  EXPECT_EQ(exporter.latest_frame().sequence, 2);
}

TEST_F(TelemetryTest, ScrapeAttachesJournalEventsExactlyOnce) {
  TelemetryExporter exporter;
  GlobalEventLog().Append(EventKind::kModelLoad, "udf-a", 1800.0);
  GlobalEventLog().Append(EventKind::kModelFlush, "catalog", 1.0);
  const TelemetryFrame f1 = exporter.ScrapeOnce();
  ASSERT_EQ(f1.events.size(), 2u);
  EXPECT_EQ(f1.events[0].kind, EventKind::kModelLoad);

  // Already-delivered events do not repeat; the journal itself still holds
  // them (the exporter tails, it does not consume).
  const TelemetryFrame f2 = exporter.ScrapeOnce();
  EXPECT_TRUE(f2.events.empty());
  EXPECT_EQ(GlobalEventLog().Snapshot().size(), 2u);
}

TEST_F(TelemetryTest, ExporterLifecycleStartStopRestart) {
  TelemetryExporterOptions opts;
  opts.interval_ms = 5;
  TelemetryExporter exporter(opts);
  EXPECT_FALSE(exporter.running());

  ASSERT_TRUE(exporter.Start());
  EXPECT_TRUE(exporter.running());
  EXPECT_FALSE(exporter.Start());  // Already running.

  Counter& counter =
      MetricsRegistry::Global().GetCounter("test_lifecycle_total");
  counter.Inc(7);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  // The background loop scraped, and Stop's final flush folded the tail:
  // nothing is stranded in the registry.
  EXPECT_GE(exporter.scrapes(), 1);
  EXPECT_EQ(exporter.latest_frame().cumulative.counters.at(
                "test_lifecycle_total"),
            7);
  exporter.Stop();  // Idempotent.

  counter.Inc(2);
  ASSERT_TRUE(exporter.Start());
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  exporter.Stop();
  EXPECT_EQ(exporter.latest_frame().cumulative.counters.at(
                "test_lifecycle_total"),
            9);
}

TEST_F(TelemetryTest, RejectsNonPositiveInterval) {
  TelemetryExporterOptions opts;
  opts.interval_ms = 0;
  TelemetryExporter exporter(opts);
  EXPECT_FALSE(exporter.Start());
  EXPECT_FALSE(exporter.running());
}

TEST_F(TelemetryTest, CallbackSinkSeesEveryScrape) {
  TelemetryExporter exporter;
  int64_t frames = 0;
  exporter.AddSink(std::make_unique<CallbackSink>(
      [&frames](const TelemetryFrame& frame) {
        ++frames;
        EXPECT_EQ(frame.sequence, frames);
      }));
  exporter.ScrapeOnce();
  exporter.ScrapeOnce();
  EXPECT_EQ(frames, 2);
}

// Every exposition line must be a comment (# HELP / # TYPE) or a
// `name{labels} value` sample — the format Prometheus' text parser
// accepts.
TEST_F(TelemetryTest, PrometheusExpositionLineFormatParses) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test_prom_total", "A test counter").Inc(3);
  registry.GetHistogram("test_prom_latency_ns", "A test histogram")
      .Record(512);

  TelemetryExporter exporter;
  exporter.ScrapeOnce();
  const TelemetryFrame frame = exporter.latest_frame();

  std::vector<ModelHealth> health(1);
  health[0].model = "udf-a";
  health[0].bytes = 1792;
  health[0].nodes = 64;
  health[0].observations = 1000;
  health[0].windowed_nae = 0.02;
  health[0].staleness = 1.01;
  health[0].accuracy_per_byte = 1.0 / (1.02 * 1792.0);

  std::ostringstream os;
  RenderPrometheusExposition(os, frame.cumulative, &frame, health);
  const std::string text = os.str();
  ASSERT_FALSE(text.empty());

  const std::regex comment(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*$)");
  const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? )"
      R"(-?([0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|[0-9.]+e[-+][0-9]+|\+Inf|inf|nan)$)");
  std::istringstream lines(text);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const bool ok = std::regex_match(line, comment) ||
                    std::regex_match(line, sample);
    EXPECT_TRUE(ok) << "unparseable exposition line: " << line;
    if (line[0] != '#') ++samples;
  }
  EXPECT_GT(samples, 10);

  // Spot-check the families the pipeline promises.
  EXPECT_NE(text.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP test_prom_total A test counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_total_rate_per_s"), std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_ns_interval{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mlq_model_health_bytes{model=\"udf-a\"} 1792"),
            std::string::npos);
  EXPECT_NE(text.find("mlq_telemetry_scrapes_total"), std::string::npos);
}

TEST_F(TelemetryTest, JsonlFrameHasSchemaKeysOnOneLine) {
  MetricsRegistry::Global().GetCounter("test_jsonl_total").Inc();
  TelemetryExporter exporter;
  const TelemetryFrame frame = exporter.ScrapeOnce();
  std::ostringstream os;
  RenderTelemetryFrameJsonl(os, frame);
  const std::string line = os.str();
  // One object, one line.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
  for (const char* key :
       {"\"ts_ns\"", "\"seq\"", "\"interval_s\"", "\"counters\"",
        "\"gauges\"", "\"histograms\"", "\"health\"", "\"events\"",
        "\"delta\"", "\"rate_per_s\"", "\"total\"", "\"p999_ns\""}) {
    EXPECT_NE(line.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(TelemetryTest, RegistryJsonAndSummaryExposeP999) {
  auto& registry = MetricsRegistry::Global();
  LatencyHistogram& hist = registry.GetHistogram("test_p999_latency_ns");
  for (int i = 0; i < 999; ++i) hist.Record(100);
  hist.Record(1 << 20);  // The 0.1% tail.

  std::ostringstream json;
  registry.RenderJson(json);
  EXPECT_NE(json.str().find("\"p999_ns\""), std::string::npos);

  std::ostringstream summary;
  registry.RenderLatencySummary(summary);
  EXPECT_NE(summary.str().find("p999"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a drift scenario on a real catalog journals the documented
// events and publishes sane health.

TEST_F(TelemetryTest, DriftScenarioJournalsEventsWithCorrectPayloads) {
  CostCatalog catalog(/*memory_limit_bytes=*/1800);
  auto udf = MakePaperSyntheticUdf(/*num_peaks=*/5, /*noise_probability=*/0.0,
                                   /*seed=*/9);
  const Point point = udf->model_space().Center();

  // Stable era: cost ~100 with bounded jitter, long enough for the
  // windowed detector baselines to settle.
  for (int i = 0; i < 4000; ++i) {
    UdfCost cost;
    cost.cpu_work = 100.0 * (1.0 + 0.05 * std::sin(0.37 * i));
    catalog.RecordExecution(udf.get(), point, cost, (i % 3) == 0);
  }
  // Abrupt 4x step.
  for (int i = 0; i < 2000; ++i) {
    UdfCost cost;
    cost.cpu_work = 400.0 * (1.0 + 0.05 * std::sin(0.37 * i));
    catalog.RecordExecution(udf.get(), point, cost, (i % 3) == 0);
  }
  catalog.CompactArenas(/*budget_slots=*/4096);

  const auto events = GlobalEventLog().Snapshot();
  const StructuredEvent* load = nullptr;
  const StructuredEvent* drift = nullptr;
  const StructuredEvent* maintenance = nullptr;
  for (const StructuredEvent& e : events) {
    if (e.kind == EventKind::kModelLoad && !load) load = &e;
    if (e.kind == EventKind::kDriftFired && !drift) drift = &e;
    if (e.kind == EventKind::kMaintenanceEpoch && !maintenance)
      maintenance = &e;
  }

  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->label_view(), udf->name());
  EXPECT_DOUBLE_EQ(load->a, 1800.0);

  ASSERT_NE(drift, nullptr) << "4x step did not journal a drift firing";
  EXPECT_EQ(drift->label_view(), udf->name());
  EXPECT_DOUBLE_EQ(drift->a, 2.0);  // DriftKind::kAbrupt.
  EXPECT_GE(drift->b, 3.0);         // Fast/slow ratio at the firing.
  EXPECT_GE(drift->c, 4000.0);      // Fired at/after the stable era's end.

  ASSERT_NE(maintenance, nullptr);
  EXPECT_EQ(maintenance->label_view(), "incremental");
  EXPECT_DOUBLE_EQ(maintenance->a, 1.0);
  EXPECT_GE(maintenance->b, 0.0);  // Pause micros.
  EXPECT_GE(maintenance->c, 0.0);  // Bytes reclaimed.

  // Health after the run: one entry with real footprint and a fast window
  // above the slow one (the step is still draining through the horizons).
  const std::vector<ModelHealth> health = catalog.ReadModelHealth();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].model, udf->name());
  EXPECT_GT(health[0].bytes, 0);
  EXPECT_GT(health[0].nodes, 0);
  EXPECT_EQ(health[0].observations, 6000);
  EXPECT_GE(health[0].windowed_nae, 0.0);
  EXPECT_GE(health[0].staleness, 1.0);
  EXPECT_GT(health[0].accuracy_per_byte, 0.0);
  EXPECT_NEAR(health[0].accuracy_per_byte,
              1.0 / ((1.0 + health[0].windowed_nae) *
                     static_cast<double>(health[0].bytes)),
              1e-12);
}

// The compaction counter moves on the path serving runs: a scheduler epoch
// of bounded steps over a fragmented catalog counts its finished pass in
// mlq_arena_compactions_total.
TEST_F(TelemetryTest, SchedulerEpochCountsArenaCompaction) {
  CostCatalog catalog(/*memory_limit_bytes=*/1800);
  auto udf = MakePaperSyntheticUdf(/*num_peaks=*/5, /*noise_probability=*/0.0,
                                   /*seed=*/11);
  const Box space = udf->model_space();
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    Point p(space.dims());
    for (int d = 0; d < space.dims(); ++d) {
      p[d] = rng.Uniform(space.lo()[d], space.hi()[d]);
    }
    UdfCost cost;
    cost.cpu_work = 100.0 + p[0];
    catalog.RecordExecution(udf.get(), p, cost, (i % 3) == 0);
  }
  ASSERT_GT(catalog.ReadArenaSignals().max_fragmentation, 0.0);

  MaintenanceScheduler scheduler(&catalog, MaintenancePolicy{});
  scheduler.RunEpochNow();
  EXPECT_EQ(catalog.ReadArenaSignals().max_fragmentation, 0.0);
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("mlq_arena_compactions_total")
                .Value(),
            1);
}

TEST_F(TelemetryTest, HealthProviderFlowsIntoFramesAndSinks) {
  CostCatalog catalog(/*memory_limit_bytes=*/1800);
  auto udf = MakePaperSyntheticUdf(/*num_peaks=*/3, /*noise_probability=*/0.0,
                                   /*seed=*/4);
  const Point point = udf->model_space().Center();
  UdfCost cost;
  cost.cpu_work = 50.0;
  catalog.RecordExecution(udf.get(), point, cost, true);

  TelemetryExporter exporter;
  exporter.SetHealthProvider([&] { return catalog.ReadModelHealth(); });
  const TelemetryFrame frame = exporter.ScrapeOnce();
  ASSERT_EQ(frame.health.size(), 1u);
  EXPECT_EQ(frame.health[0].model, udf->name());

  std::ostringstream os;
  RenderPrometheusExposition(os, frame.cumulative, &frame, frame.health);
  EXPECT_NE(os.str().find("mlq_model_health_bytes{model=\""),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace mlq

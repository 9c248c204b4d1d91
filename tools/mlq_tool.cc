// mlq_tool — command-line front end for the library's trace/model plumbing.
//
//   mlq_tool capture  --udf=NAME --out=trace.txt [--n=2000] [--dist=uniform]
//                     [--seed=42] [--scale=small] [--peaks=50]
//   mlq_tool replay   --trace=trace.txt [--strategy=lazy] [--budget=1800]
//                     [--beta=1] [--cost=cpu] [--model-out=model.bin]
//                     [--threads=1] [--shards=1] [--batch=1] [--metrics]
//                     [--decay-half-life=0] [--decay-epoch-every=0]
//                     [--trace-out=events.json]
//   mlq_tool metrics  [--trace=trace.txt] [--json] [--n=2000] [--seed=42]
//                     [--strategy=lazy] [--budget=1800] [--beta=1]
//                     [--cost=cpu] [--decay-half-life=0] [--interval=0]
//                     [--trace-out=events.json]
//   mlq_tool telemetry [--trace=trace.txt] [--n=20000] [--seed=42]
//                     [--budget=1800] [--shards=4] [--interval=100]
//                     [--prom-out=FILE] [--series-out=FILE]
//                     [--events-out=FILE] [--json]
//   mlq_tool inspect  --model=model.bin
//   mlq_tool predict  --model=model.bin --point=x0,x1,...
//   mlq_tool plan     [--rows=300] [--seed=7] [--train-queries=2]
//                     [--risk-k=0] [--sample-rows=32] [--budget=1800]
//                     [--scale=small] [--json]
//   mlq_tool maintenance [--udf=synth] [--n=20000] [--seed=42]
//                     [--budget=1800] [--shards=4] [--step-slots=4096]
//                     [--json]
//   mlq_tool govern   [--models=48] [--tenants=3] [--n=30000] [--seed=42]
//                     [--budget=1800] [--global-budget=BYTES] [--zipf=1.1]
//                     [--max-resident=0] [--quota=tenant0=BYTES,...]
//                     [--json]
//   mlq_tool selftest
//
// UDF names: synth (synthetic surface; --peaks) or one of
// SIMPLE THRESH PROX KNN WIN RANGE (the real-UDF suite; --scale=small|full).
//
// `metrics` replays a trace (or a synthetic workload when --trace is
// absent) with observability switched on, then prints the Prometheus-style
// metric exposition plus a latency/quantile summary; --json emits one JSON
// snapshot object instead. `--interval=N` switches to incremental mode:
// a delta snapshot (the telemetry exporter's scrape logic) every N
// replayed records, one line (or, with --json, one JSONL frame) each.
// `--trace-out` (on replay or metrics) writes the recorded events as
// Chrome trace JSON, loadable in chrome://tracing.
//
// `plan` runs the optimizer end to end on the real-UDF demo query (PROX +
// WIN + KNN predicates over a generated table): a few training queries warm
// the catalog's models through execution feedback, then the final plan is
// printed with a ~95% confidence interval on every estimate. `--risk-k=K`
// plans with risk-adjusted costs (mean + K standard errors), the
// variance-aware ordering; --json emits the plan as one JSON object with
// per-predicate CI fields.
//
// `govern` builds a multi-tenant catalog of uniquely named synthetic UDFs,
// serves Zipf-skewed traffic through it with a CatalogGovernor wired into
// the maintenance tick stream, and prints the resulting budget allocation
// (per-tenant aggregates plus the hottest entries). `--global-budget`
// defaults to half the fleet's unconstrained footprint so the governor has
// real scarcity to arbitrate; `--quota` caps named tenants; a nonzero
// `--max-resident` turns on whole-model eviction.
//
// `telemetry` runs a drifting catalog workload (or a trace replay) under
// the continuous TelemetryExporter: scrapes every --interval ms onto the
// configured sinks (--prom-out Prometheus text file, --series-out JSONL
// frame series), then dumps the structured event journal (--events-out)
// and a run summary (--json for machine-readable).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "engine/catalog_governor.h"
#include "engine/cost_catalog.h"
#include "engine/executor.h"
#include "engine/maintenance_scheduler.h"
#include "engine/query_optimizer.h"
#include "engine/table.h"
#include "engine/udf_predicate.h"
#include "eval/experiment_setup.h"
#include "eval/metrics.h"
#include "eval/trace.h"
#include "model/mlq_model.h"
#include "model/serialization.h"
#include "model/sharded_model.h"
#include "obs/obs.h"
#include "quadtree/tree_stats.h"

namespace mlq {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mlq_tool <capture|replay|metrics|telemetry|inspect|"
               "predict|plan|maintenance|govern|selftest> [--flags]\n"
               "  capture  --udf=NAME --out=FILE [--n=2000] [--dist=uniform|"
               "gauss-random|gauss-sequential] [--seed=42] [--scale=small|full]"
               " [--peaks=50]\n"
               "  replay   --trace=FILE [--strategy=eager|lazy] "
               "[--budget=1800] [--beta=1] [--cost=cpu|io] [--model-out=FILE]"
               " [--threads=1] [--shards=1] [--batch=1] [--metrics] "
               "[--decay-half-life=0] [--decay-epoch-every=0] "
               "[--trace-out=FILE]\n"
               "  metrics  [--trace=FILE] [--json] [--n=2000] [--seed=42] "
               "[--strategy=eager|lazy] [--budget=1800] [--beta=1] "
               "[--cost=cpu|io] [--decay-half-life=0] [--interval=0] "
               "[--trace-out=FILE]\n"
               "  telemetry [--trace=FILE] [--n=20000] [--seed=42] "
               "[--budget=1800] [--shards=4] [--interval=100] "
               "[--prom-out=FILE] [--series-out=FILE] [--events-out=FILE] "
               "[--json]\n"
               "  inspect  --model=FILE\n"
               "  predict  --model=FILE --point=x0,x1,...\n"
               "  plan     [--rows=300] [--seed=7] [--train-queries=2] "
               "[--risk-k=0] [--sample-rows=32] [--budget=1800] "
               "[--scale=small|full] [--json]\n"
               "  maintenance [--udf=synth] [--n=20000] [--seed=42] "
               "[--budget=1800] [--shards=4] [--step-slots=4096] [--json]\n"
               "  govern   [--models=48] [--tenants=3] [--n=30000] "
               "[--seed=42] [--budget=1800] [--global-budget=BYTES] "
               "[--zipf=1.1] [--max-resident=0] "
               "[--quota=tenant0=BYTES,...] [--json]\n"
               "  selftest\n");
  return 1;
}

// Shared by replay and metrics: the model space is the padded bounding box
// of the trace's points.
Box TraceBoundingBox(const std::vector<TraceRecord>& records) {
  const int dims = records[0].point.dims();
  Point lo = records[0].point;
  Point hi = records[0].point;
  for (const TraceRecord& r : records) {
    for (int d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], r.point[d]);
      hi[d] = std::max(hi[d], r.point[d]);
    }
  }
  for (int d = 0; d < dims; ++d) {
    if (lo[d] == hi[d]) hi[d] = lo[d] + 1.0;
  }
  return Box(lo, hi);
}

// Dumps the global trace ring as Chrome trace JSON (chrome://tracing /
// Perfetto "Open trace file").
bool WriteChromeTrace(const std::string& path) {
  const std::vector<obs::TraceEvent> events =
      obs::GlobalTraceRing().Snapshot();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  obs::ExportChromeTrace(out, events);
  std::printf("wrote %zu trace events to %s\n", events.size(), path.c_str());
  return true;
}

QueryDistributionKind ParseDistribution(const std::string& name) {
  if (name == "gauss-random") return QueryDistributionKind::kGaussianRandom;
  if (name == "gauss-sequential") {
    return QueryDistributionKind::kGaussianSequential;
  }
  return QueryDistributionKind::kUniform;
}

// Builds the requested UDF; `suite` keeps the real-UDF substrates alive.
CostedUdf* ResolveUdf(const std::string& name, int peaks, uint64_t seed,
                      SubstrateScale scale,
                      std::unique_ptr<SyntheticUdf>* synthetic,
                      std::unique_ptr<RealUdfSuite>* suite) {
  if (name == "synth") {
    *synthetic = MakePaperSyntheticUdf(peaks, /*noise_probability=*/0.0, seed);
    return synthetic->get();
  }
  *suite = std::make_unique<RealUdfSuite>(MakeRealUdfSuite(scale, seed));
  return (*suite)->Find(name);
}

int RunCapture(int argc, char** argv) {
  const std::string udf_name = ArgValue(argc, argv, "udf", "synth");
  const std::string out_path = ArgValue(argc, argv, "out");
  const int n = std::atoi(ArgValue(argc, argv, "n", "2000").c_str());
  const auto seed = static_cast<uint64_t>(
      std::atoll(ArgValue(argc, argv, "seed", "42").c_str()));
  const int peaks = std::atoi(ArgValue(argc, argv, "peaks", "50").c_str());
  const SubstrateScale scale = ArgValue(argc, argv, "scale", "small") == "full"
                                   ? SubstrateScale::kFull
                                   : SubstrateScale::kSmall;
  if (out_path.empty() || n <= 0) return Usage();

  std::unique_ptr<SyntheticUdf> synthetic;
  std::unique_ptr<RealUdfSuite> suite;
  CostedUdf* udf = ResolveUdf(udf_name, peaks, seed, scale, &synthetic, &suite);
  if (udf == nullptr) {
    std::fprintf(stderr, "unknown UDF '%s'\n", udf_name.c_str());
    return 1;
  }

  const auto points = MakePaperWorkload(
      udf->execution_space(),
      ParseDistribution(ArgValue(argc, argv, "dist", "uniform")), n, seed);
  const auto records = CaptureTrace(*udf, points);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  WriteTrace(out, records, udf->execution_space().dims());
  std::printf("captured %zu executions of %s into %s\n", records.size(),
              std::string(udf->name()).c_str(), out_path.c_str());
  return 0;
}

int RunReplay(int argc, char** argv) {
  const std::string trace_path = ArgValue(argc, argv, "trace");
  if (trace_path.empty()) return Usage();
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", trace_path.c_str());
    return 1;
  }
  std::vector<TraceRecord> records;
  std::string error;
  if (!ReadTrace(in, &records, &error)) {
    std::fprintf(stderr, "bad trace: %s\n", error.c_str());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr, "trace is empty\n");
    return 1;
  }

  // Observability: --metrics prints the metric exposition after the replay;
  // --trace-out additionally records events for a Chrome trace dump.
  const bool print_metrics = HasFlag(argc, argv, "metrics");
  const std::string trace_out = ArgValue(argc, argv, "trace-out");
  if (print_metrics || !trace_out.empty()) obs::SetEnabled(true);
  if (!trace_out.empty()) obs::SetTraceEnabled(true);
  const auto finish_observability = [&print_metrics, &trace_out]() {
    if (print_metrics) {
      std::printf("\n");
      obs::MetricsRegistry::Global().RenderPrometheus(std::cout);
      std::printf("\nlatency summary:\n");
      obs::MetricsRegistry::Global().RenderLatencySummary(std::cout);
    }
    if (!trace_out.empty() && !WriteChromeTrace(trace_out)) return 1;
    return 0;
  };

  const Box space = TraceBoundingBox(records);

  MlqConfig config;
  config.strategy = ArgValue(argc, argv, "strategy", "lazy") == "eager"
                        ? InsertionStrategy::kEager
                        : InsertionStrategy::kLazy;
  config.memory_limit_bytes =
      std::atoll(ArgValue(argc, argv, "budget", "1800").c_str());
  config.beta = std::atoll(ArgValue(argc, argv, "beta", "1").c_str());
  // --decay-half-life=H enables windowed summaries (H epochs halve a
  // summary's weight); --decay-epoch-every=N advances the epoch clock every
  // N replayed records, standing in for the serving-side scheduler tick.
  config.decay_half_life =
      std::atof(ArgValue(argc, argv, "decay-half-life", "0").c_str());
  const int64_t decay_epoch_every = std::atoll(
      ArgValue(argc, argv, "decay-epoch-every", "0").c_str());
  const CostKind kind =
      ArgValue(argc, argv, "cost", "cpu") == "io" ? CostKind::kIo
                                                  : CostKind::kCpu;

  const int threads = std::atoi(ArgValue(argc, argv, "threads", "1").c_str());
  const int shards = std::atoi(ArgValue(argc, argv, "shards", "1").c_str());

  if (threads > 1 || shards > 1) {
    if (!ArgValue(argc, argv, "model-out").empty()) {
      std::fprintf(stderr,
                   "--model-out is unsupported with --threads/--shards "
                   "(sharded models are N trees, not one)\n");
      return 1;
    }
    if (decay_epoch_every > 0) {
      std::fprintf(stderr,
                   "--decay-epoch-every is unsupported with "
                   "--threads/--shards (the serving clock belongs to the "
                   "maintenance scheduler there); --decay-half-life alone "
                   "is honored\n");
      return 1;
    }
    // Concurrent serving replay: the trace is striped across worker
    // threads, each doing predict-then-observe against one shared
    // ShardedCostModel; per-thread NAE partials merge exactly.
    ShardedModelOptions options;
    options.num_shards = shards > 0 ? shards : 1;
    ShardedCostModel model(space, config, options);
    const int workers = threads > 0 ? threads : 1;
    std::vector<NaeAccumulator> partials(static_cast<size_t>(workers));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) {
      pool.emplace_back([&records, &model, &partials, t, workers, kind]() {
        NaeAccumulator& nae = partials[static_cast<size_t>(t)];
        for (size_t i = static_cast<size_t>(t); i < records.size();
             i += static_cast<size_t>(workers)) {
          const TraceRecord& record = records[i];
          const double actual =
              kind == CostKind::kCpu ? record.cpu_cost : record.io_cost;
          nae.Add(model.Predict(record.point), actual);
          model.Observe(record.point, actual);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    model.Flush();

    // Merge the sums that define Eq. 10 across the per-thread partials.
    double abs_error_sum = 0.0, actual_sum = 0.0;
    int64_t count = 0;
    for (const NaeAccumulator& partial : partials) {
      abs_error_sum += partial.abs_error_sum();
      actual_sum += partial.actual_sum();
      count += partial.count();
    }
    const double nae =
        count == 0 ? 0.0
        : actual_sum <= 0.0 ? abs_error_sum / static_cast<double>(count)
                            : abs_error_sum / actual_sum;

    const ShardedModelStats stats = model.stats();
    std::vector<TreeStats> per_shard;
    for (int s = 0; s < model.num_shards(); ++s) {
      per_shard.push_back(ComputeTreeStats(model.shard_model(s).tree()));
    }
    const TreeStats tree_stats = MergeTreeStats(per_shard);
    std::printf(
        "replayed %zu records on %d threads / %d shards: NAE=%.4f, "
        "%lld nodes, %lld bytes, %lld compressions\n"
        "feedback: %lld submitted, %lld applied, %lld dropped\n",
        records.size(), workers, model.num_shards(), nae,
        static_cast<long long>(tree_stats.num_nodes),
        static_cast<long long>(model.MemoryBytes()),
        static_cast<long long>(stats.compressions),
        static_cast<long long>(stats.observations_submitted),
        static_cast<long long>(stats.observations_applied),
        static_cast<long long>(stats.observations_dropped));
    return finish_observability();
  }

  MlqModel model(space, config);
  // --batch=N replays through the batched pipeline (one PredictBatch +
  // one ObserveBatch per block of N records); the resulting tree is
  // identical to the scalar replay, only the driving path differs.
  const int batch = std::atoi(ArgValue(argc, argv, "batch", "1").c_str());
  if (batch > 1 && decay_epoch_every > 0) {
    std::fprintf(stderr,
                 "--batch and --decay-epoch-every are mutually exclusive "
                 "(the epoch clock interleaves with scalar replay only)\n");
    return 1;
  }
  double nae;
  if (decay_epoch_every > 0) {
    // Scalar replay with the epoch clock ticking inline, so drifted traces
    // can be replayed the way a serving deployment would see them.
    NaeAccumulator accumulator;
    int64_t since_tick = 0;
    for (const TraceRecord& record : records) {
      const double actual =
          kind == CostKind::kCpu ? record.cpu_cost : record.io_cost;
      accumulator.Add(model.Predict(record.point), actual);
      model.Observe(record.point, actual);
      if (++since_tick == decay_epoch_every) {
        model.AdvanceDecayEpoch(1);
        since_tick = 0;
      }
    }
    nae = accumulator.Nae();
  } else {
    nae = batch > 1 ? ReplayTraceBatched(model, records, kind, batch)
                    : ReplayTrace(model, records, kind);
  }
  std::printf("replayed %zu records: NAE=%.4f, %lld nodes, %lld bytes, "
              "%lld compressions\n",
              records.size(), nae,
              static_cast<long long>(model.tree().num_nodes()),
              static_cast<long long>(model.MemoryBytes()),
              static_cast<long long>(model.tree().counters().compressions));
  if (config.decay_half_life > 0.0) {
    std::printf("decay: half-life %g, epoch clock at %u\n",
                config.decay_half_life, model.tree().decay_epoch());
  }

  const std::string model_out = ArgValue(argc, argv, "model-out");
  if (!model_out.empty()) {
    if (!SaveQuadtreeToFile(model.tree(), model_out)) {
      std::fprintf(stderr, "cannot write %s\n", model_out.c_str());
      return 1;
    }
    std::printf("saved model to %s\n", model_out.c_str());
  }
  return finish_observability();
}

// `metrics`: run a replay with the observability layer on and print what it
// collected. With --trace the workload is a captured trace file; without,
// a deterministic synthetic workload (paper's surface, --n/--seed) so the
// command works standalone.
int RunMetrics(int argc, char** argv) {
  obs::SetEnabled(true);
  obs::SetTraceEnabled(true);

  const std::string trace_path = ArgValue(argc, argv, "trace");
  std::vector<TraceRecord> records;
  if (!trace_path.empty()) {
    std::ifstream in(trace_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", trace_path.c_str());
      return 1;
    }
    std::string error;
    if (!ReadTrace(in, &records, &error)) {
      std::fprintf(stderr, "bad trace: %s\n", error.c_str());
      return 1;
    }
  } else {
    const int n = std::atoi(ArgValue(argc, argv, "n", "2000").c_str());
    const auto seed = static_cast<uint64_t>(
        std::atoll(ArgValue(argc, argv, "seed", "42").c_str()));
    if (n <= 0) return Usage();
    auto udf = MakePaperSyntheticUdf(50, /*noise_probability=*/0.0, seed);
    const auto points = MakePaperWorkload(
        udf->model_space(), QueryDistributionKind::kUniform, n, seed);
    records = CaptureTrace(*udf, points);
  }
  if (records.empty()) {
    std::fprintf(stderr, "trace is empty\n");
    return 1;
  }

  MlqConfig config;
  config.strategy = ArgValue(argc, argv, "strategy", "lazy") == "eager"
                        ? InsertionStrategy::kEager
                        : InsertionStrategy::kLazy;
  config.memory_limit_bytes =
      std::atoll(ArgValue(argc, argv, "budget", "1800").c_str());
  config.beta = std::atoll(ArgValue(argc, argv, "beta", "1").c_str());
  config.decay_half_life =
      std::atof(ArgValue(argc, argv, "decay-half-life", "0").c_str());
  const CostKind kind =
      ArgValue(argc, argv, "cost", "cpu") == "io" ? CostKind::kIo
                                                  : CostKind::kCpu;

  MlqModel model(TraceBoundingBox(records), config);

  // --interval=N: incremental mode. Every N replayed records one scrape
  // (the TelemetryExporter's delta logic on this thread, no background
  // thread) prints the window's deltas; the final exposition then comes
  // from the exporter's cumulative view, since scrapes drain the registry.
  const int64_t interval_records =
      std::atoll(ArgValue(argc, argv, "interval", "0").c_str());
  const bool json = HasFlag(argc, argv, "json");
  double nae;
  if (interval_records > 0) {
    obs::TelemetryExporter exporter;
    if (!json) {
      exporter.AddSink(std::make_unique<obs::CallbackSink>(
          [](const obs::TelemetryFrame& f) {
            int64_t inserts = 0, compressions = 0;
            if (const auto it = f.counter_deltas.find("mlq_inserts_total");
                it != f.counter_deltas.end()) {
              inserts = it->second;
            }
            if (const auto it = f.counter_deltas.find("mlq_compressions_total");
                it != f.counter_deltas.end()) {
              compressions = it->second;
            }
            double insert_p99 = 0.0;
            if (const auto it = f.histograms.find("mlq_insert_latency_ns");
                it != f.histograms.end()) {
              insert_p99 = it->second.p99_ns;
            }
            std::printf(
                "window %lld: +%lld inserts (%.0f/s), +%lld compressions, "
                "insert p99 %.0f ns\n",
                static_cast<long long>(f.sequence),
                static_cast<long long>(inserts),
                f.counter_rates.count("mlq_inserts_total")
                    ? f.counter_rates.at("mlq_inserts_total")
                    : 0.0,
                static_cast<long long>(compressions), insert_p99);
          }));
    } else {
      exporter.AddSink(std::make_unique<obs::CallbackSink>(
          [](const obs::TelemetryFrame& f) {
            obs::RenderTelemetryFrameJsonl(std::cout, f);
          }));
    }
    NaeAccumulator accumulator;
    int64_t since_scrape = 0;
    for (const TraceRecord& record : records) {
      const double actual =
          kind == CostKind::kCpu ? record.cpu_cost : record.io_cost;
      accumulator.Add(model.Predict(record.point), actual);
      model.Observe(record.point, actual);
      if (++since_scrape == interval_records) {
        exporter.ScrapeOnce();
        since_scrape = 0;
      }
    }
    if (since_scrape > 0) exporter.ScrapeOnce();
    nae = accumulator.Nae();
    if (!json) {
      std::printf("\n# replayed %zu records in %lld-record windows "
                  "(NAE=%.4f)\n\n",
                  records.size(),
                  static_cast<long long>(interval_records), nae);
      const obs::TelemetryFrame last = exporter.latest_frame();
      obs::RenderPrometheusExposition(std::cout, last.cumulative, &last,
                                      last.health);
    }
    const std::string interval_trace_out = ArgValue(argc, argv, "trace-out");
    if (!interval_trace_out.empty() && !WriteChromeTrace(interval_trace_out)) {
      return 1;
    }
    return 0;
  }

  nae = ReplayTrace(model, records, kind);

  const std::vector<obs::TraceEvent> events =
      obs::GlobalTraceRing().Snapshot();
  size_t compress_events = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.type == obs::TraceEventType::kCompress) ++compress_events;
  }

  if (json) {
    obs::MetricsRegistry::Global().RenderJson(std::cout);
    std::cout << "\n";
  } else {
    std::printf("# replayed %zu records with observability on (NAE=%.4f)\n\n",
                records.size(), nae);
    obs::MetricsRegistry::Global().RenderPrometheus(std::cout);
    std::printf("\nlatency summary:\n");
    obs::MetricsRegistry::Global().RenderLatencySummary(std::cout);
    std::printf(
        "\ntrace ring: %zu events recorded (%zu compression passes)\n",
        events.size(), compress_events);
  }

  const std::string trace_out = ArgValue(argc, argv, "trace-out");
  if (!trace_out.empty() && !WriteChromeTrace(trace_out)) return 1;
  return 0;
}

// `telemetry`: drive a sharded catalog through a drifting workload with
// the continuous exporter attached — the full observability pipeline in
// one command. The workload is a trace replay (--trace) or the synthetic
// surface (--n/--seed); either way the second half's costs are scaled 4x,
// an abrupt step the drift detector classifies and journals. A maintenance
// epoch runs at the end so the journal also shows the maintenance side.
int RunTelemetry(int argc, char** argv) {
  obs::SetEnabled(true);

  const auto seed = static_cast<uint64_t>(
      std::atoll(ArgValue(argc, argv, "seed", "42").c_str()));
  const int64_t budget =
      std::atoll(ArgValue(argc, argv, "budget", "1800").c_str());
  const int shards = std::atoi(ArgValue(argc, argv, "shards", "4").c_str());
  const int64_t interval_ms =
      std::atoll(ArgValue(argc, argv, "interval", "100").c_str());
  const std::string prom_out = ArgValue(argc, argv, "prom-out");
  const std::string series_out = ArgValue(argc, argv, "series-out");
  const std::string events_out = ArgValue(argc, argv, "events-out");
  const bool json = HasFlag(argc, argv, "json");
  if (interval_ms <= 0) return Usage();

  const std::string trace_path = ArgValue(argc, argv, "trace");
  std::vector<TraceRecord> records;
  std::unique_ptr<SyntheticUdf> udf;
  if (!trace_path.empty()) {
    std::ifstream in(trace_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", trace_path.c_str());
      return 1;
    }
    std::string error;
    if (!ReadTrace(in, &records, &error)) {
      std::fprintf(stderr, "bad trace: %s\n", error.c_str());
      return 1;
    }
  }
  // The catalog needs a CostedUdf; the synthetic one also generates the
  // default workload. With --trace its surface is ignored — only the
  // trace's points and costs matter.
  udf = MakePaperSyntheticUdf(50, /*noise_probability=*/0.0, seed);
  if (records.empty()) {
    const int n = std::atoi(ArgValue(argc, argv, "n", "20000").c_str());
    if (n <= 0) return Usage();
    const auto points = MakePaperWorkload(
        udf->model_space(), QueryDistributionKind::kUniform, n, seed);
    records = CaptureTrace(*udf, points);
  }

  CostCatalog catalog(budget, CatalogConcurrency::kSharded, shards);
  MaintenanceScheduler scheduler(&catalog, MaintenancePolicy{});

  obs::TelemetryExporterOptions options;
  options.interval_ms = interval_ms;
  obs::TelemetryExporter exporter(options);
  if (!prom_out.empty()) {
    exporter.AddSink(std::make_unique<obs::PrometheusFileSink>(prom_out));
  }
  if (!series_out.empty()) {
    exporter.AddSink(std::make_unique<obs::JsonlFileSink>(series_out));
  }
  exporter.SetHealthProvider([&catalog] { return catalog.ReadModelHealth(); });
  exporter.Start();

  // Feed the workload through the catalog's batched feedback path with a
  // 4x cost step at the halfway point. The synthetic load uses a stable
  // per-call cost (5% deterministic jitter) so the windowed detector sees
  // a clean abrupt step and journals it; a replayed trace keeps its own
  // costs, scaled — whether that fires depends on the trace's variance.
  const bool synthetic = trace_path.empty();
  const size_t half = records.size() / 2;
  std::vector<CostCatalog::ExecutionRecord> batch;
  batch.reserve(256);
  size_t row = 0;
  for (const TraceRecord& r : records) {
    const double scale = row >= half ? 4.0 : 1.0;
    UdfCost cost;
    if (synthetic) {
      const double jitter =
          1.0 + 0.05 * std::sin(0.37 * static_cast<double>(row));
      cost.cpu_work = 100.0 * scale * jitter;
      cost.io_pages = 0.0;
    } else {
      cost.cpu_work = r.cpu_cost * scale;
      cost.io_pages = r.io_cost * scale;
    }
    batch.push_back({udf->ToModelPoint(r.point), cost, (row++ % 3) == 0});
    if (batch.size() == 256) {
      catalog.RecordExecutionBatch(udf.get(), batch);
      batch.clear();
    }
  }
  if (!batch.empty()) catalog.RecordExecutionBatch(udf.get(), batch);
  catalog.FlushFeedback();
  scheduler.RunEpochNow();
  exporter.Stop();  // Final scrape flushes the tail interval to the sinks.

  const std::vector<obs::StructuredEvent> events =
      obs::GlobalEventLog().Snapshot();
  if (!events_out.empty()) {
    std::ofstream out(events_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", events_out.c_str());
      return 1;
    }
    obs::ExportEventsJsonl(out, events);
  }

  std::map<std::string, int64_t> by_kind;
  for (const obs::StructuredEvent& e : events) {
    ++by_kind[std::string(obs::EventKindName(e.kind))];
  }
  const obs::TelemetryFrame last = exporter.latest_frame();

  if (json) {
    std::cout << "{\"records\":" << records.size()
              << ",\"scrapes\":" << exporter.scrapes()
              << ",\"interval_ms\":" << interval_ms << ",\"events\":{";
    bool first = true;
    for (const auto& [kind, count] : by_kind) {
      if (!first) std::cout << ",";
      first = false;
      std::cout << "\"" << kind << "\":" << count;
    }
    std::cout << "},\"journal_dropped\":" << obs::GlobalEventLog().dropped()
              << ",\"models\":" << last.health.size() << "}\n";
    return 0;
  }

  std::printf("telemetry run: %zu records, %lld scrapes at %lld ms\n",
              records.size(), static_cast<long long>(exporter.scrapes()),
              static_cast<long long>(interval_ms));
  std::printf("journal: %zu events (%lld dropped to wrap-around)\n",
              events.size(),
              static_cast<long long>(obs::GlobalEventLog().dropped()));
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-18s %lld\n", kind.c_str(),
                static_cast<long long>(count));
  }
  std::printf("model health:\n");
  for (const obs::ModelHealth& h : last.health) {
    std::printf(
        "  %-10s %6lld bytes, %4lld nodes, %7lld obs, nae %.3f, "
        "staleness %.2f, frag %.2f, acc/byte %.3g\n",
        h.model.c_str(), static_cast<long long>(h.bytes),
        static_cast<long long>(h.nodes),
        static_cast<long long>(h.observations), h.windowed_nae, h.staleness,
        h.fragmentation, h.accuracy_per_byte);
  }
  if (!prom_out.empty()) {
    std::printf("wrote Prometheus exposition to %s\n", prom_out.c_str());
  }
  if (!series_out.empty()) {
    std::printf("wrote frame series to %s\n", series_out.c_str());
  }
  if (!events_out.empty()) {
    std::printf("wrote event journal to %s\n", events_out.c_str());
  }
  return 0;
}

int RunInspect(int argc, char** argv) {
  const std::string model_path = ArgValue(argc, argv, "model");
  if (model_path.empty()) return Usage();
  std::string error;
  auto tree = LoadQuadtreeFromFile(model_path, &error);
  if (tree == nullptr) {
    std::fprintf(stderr, "cannot load %s: %s\n", model_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("model space: %s\n", tree->space().ToString().c_str());
  std::printf("strategy: %s, lambda=%d, alpha=%g, gamma=%g, beta=%lld, "
              "budget=%lld bytes\n",
              tree->config().strategy == InsertionStrategy::kEager ? "eager"
                                                                   : "lazy",
              tree->config().max_depth, tree->config().alpha,
              tree->config().gamma,
              static_cast<long long>(tree->config().beta),
              static_cast<long long>(tree->config().memory_limit_bytes));
  if (tree->config().decay_half_life > 0.0) {
    std::printf("decay: half-life %g, epoch clock at %u\n",
                tree->config().decay_half_life, tree->decay_epoch());
  }
  std::printf("%s", TreeStatsToString(ComputeTreeStats(*tree)).c_str());
  return 0;
}

int RunPredict(int argc, char** argv) {
  const std::string model_path = ArgValue(argc, argv, "model");
  const std::string point_text = ArgValue(argc, argv, "point");
  if (model_path.empty() || point_text.empty()) return Usage();
  std::string error;
  auto tree = LoadQuadtreeFromFile(model_path, &error);
  if (tree == nullptr) {
    std::fprintf(stderr, "cannot load %s: %s\n", model_path.c_str(),
                 error.c_str());
    return 1;
  }
  Point p(tree->space().dims());
  std::istringstream fields(point_text);
  std::string field;
  for (int d = 0; d < p.dims(); ++d) {
    if (!std::getline(fields, field, ',')) {
      std::fprintf(stderr, "--point needs %d coordinates\n", p.dims());
      return 1;
    }
    p[d] = std::atof(field.c_str());
  }
  const Prediction prediction = tree->Predict(p);
  std::printf(
      "predict%s = %.6g +/- %.6g  (depth %d, %lld supporting points%s)\n",
      p.ToString().c_str(), prediction.value, prediction.stddev,
      prediction.depth, static_cast<long long>(prediction.count),
      prediction.reliable ? "" : "; UNRELIABLE — fewer than beta");
  return 0;
}

// `plan`: the optimizer demo loop — build the real-UDF query, warm the
// catalog's models with a few executed training queries, then print the
// final plan with confidence intervals (optionally risk-aware).
int RunPlan(int argc, char** argv) {
  const int rows = std::atoi(ArgValue(argc, argv, "rows", "300").c_str());
  const auto seed = static_cast<uint64_t>(
      std::atoll(ArgValue(argc, argv, "seed", "7").c_str()));
  const int train_queries =
      std::atoi(ArgValue(argc, argv, "train-queries", "2").c_str());
  const double risk_k =
      std::atof(ArgValue(argc, argv, "risk-k", "0").c_str());
  const int sample_rows =
      std::atoi(ArgValue(argc, argv, "sample-rows", "32").c_str());
  const int64_t budget =
      std::atoll(ArgValue(argc, argv, "budget", "1800").c_str());
  const SubstrateScale scale = ArgValue(argc, argv, "scale", "small") == "full"
                                   ? SubstrateScale::kFull
                                   : SubstrateScale::kSmall;
  const bool json = HasFlag(argc, argv, "json");
  if (rows <= 0 || train_queries < 0 || sample_rows <= 0) return Usage();

  RealUdfSuite suite = MakeRealUdfSuite(scale, seed);
  Table table("docs_and_places", {"kw1", "kw2", "x", "y"});
  Rng rng(seed);
  const auto vocab =
      static_cast<double>(suite.text_engine->index().vocab_size());
  for (int i = 0; i < rows; ++i) {
    table.AddRow(std::vector<double>{
        std::floor(rng.Uniform(1.0, vocab)),
        std::floor(rng.Uniform(1.0, vocab)),
        rng.Uniform(0.0, 1000.0),
        rng.Uniform(0.0, 1000.0),
    });
  }

  // The demo conjunction: text proximity, spatial window, kNN.
  UdfPredicate contains(
      "Contains", suite.Find("PROX"),
      {table.ColumnIndex("kw1"), table.ColumnIndex("kw2"), -1},
      Point{0.0, 0.0, 30.0}, /*min_result_count=*/1);
  UdfPredicate in_urban_area(
      "InUrbanArea", suite.Find("WIN"),
      {table.ColumnIndex("x"), table.ColumnIndex("y"), -1, -1},
      Point{0.0, 0.0, 120.0, 120.0}, /*min_result_count=*/5);
  UdfPredicate near10("Near10", suite.Find("KNN"),
                      {table.ColumnIndex("x"), table.ColumnIndex("y"), -1},
                      Point{0.0, 0.0, 10.0}, /*min_result_count=*/1);
  Query query;
  query.table = &table;
  query.predicates = {&contains, &in_urban_area, &near10};

  CostCatalog catalog(budget);
  for (int t = 0; t < train_queries; ++t) {
    const Plan training_plan = PlanQuery(query, catalog, sample_rows);
    ExecuteQuery(query, training_plan, &catalog);
    catalog.FlushFeedback();
  }

  const Plan plan =
      PlanQuery(query, catalog, sample_rows, /*planner_threads=*/1, risk_k);

  if (json) {
    std::printf("{\"risk_k\": %g, \"expected_cost_per_row_micros\": %g, "
                "\"risk_cost_per_row_micros\": %g, \"order\": [",
                plan.risk_k, plan.expected_cost_per_row_micros,
                plan.risk_cost_per_row_micros);
    for (size_t i = 0; i < plan.order.size(); ++i) {
      const PlannedPredicate& p =
          plan.estimates[static_cast<size_t>(plan.order[i])];
      std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                  p.predicate->name().c_str());
    }
    std::printf("], \"predicates\": [");
    for (size_t i = 0; i < plan.estimates.size(); ++i) {
      const PlannedPredicate& p = plan.estimates[i];
      std::printf(
          "%s{\"name\": \"%s\", \"cost_micros\": %g, "
          "\"cost_ci_half_width_micros\": %g, \"selectivity\": %g, "
          "\"selectivity_ci_half_width\": %g, \"support\": %lld}",
          i == 0 ? "" : ", ", p.predicate->name().c_str(),
          p.estimated_cost_micros, p.CostConfidenceHalfWidthMicros(),
          p.estimated_selectivity, 1.96 * p.estimated_selectivity_stddev,
          static_cast<long long>(p.support));
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("%d training queries executed with feedback; final plan:\n",
              train_queries);
  std::printf("%s", plan.Explain().c_str());
  return 0;
}

// Drives a sharded catalog to fragmentation with a captured workload, runs
// one maintenance epoch of --step-slots bounded steps, and reports what it
// did.
int RunMaintenance(int argc, char** argv) {
  const std::string udf_name = ArgValue(argc, argv, "udf", "synth");
  const int n = std::atoi(ArgValue(argc, argv, "n", "20000").c_str());
  const auto seed = static_cast<uint64_t>(
      std::atoll(ArgValue(argc, argv, "seed", "42").c_str()));
  const int peaks = std::atoi(ArgValue(argc, argv, "peaks", "50").c_str());
  const int64_t budget =
      std::atoll(ArgValue(argc, argv, "budget", "1800").c_str());
  const int shards = std::atoi(ArgValue(argc, argv, "shards", "4").c_str());
  const int64_t step_slots =
      std::atoll(ArgValue(argc, argv, "step-slots", "4096").c_str());
  const bool json = HasFlag(argc, argv, "json");
  const SubstrateScale scale = ArgValue(argc, argv, "scale", "small") == "full"
                                   ? SubstrateScale::kFull
                                   : SubstrateScale::kSmall;
  if (n <= 0 || step_slots <= 0) return Usage();

  std::unique_ptr<SyntheticUdf> synthetic;
  std::unique_ptr<RealUdfSuite> suite;
  CostedUdf* udf = ResolveUdf(udf_name, peaks, seed, scale, &synthetic, &suite);
  if (udf == nullptr) {
    std::fprintf(stderr, "unknown UDF '%s'\n", udf_name.c_str());
    return 1;
  }

  // Feed the whole workload through the catalog's batched feedback path;
  // the per-model compressions this provokes are what fragment the arena.
  CostCatalog catalog(budget, CatalogConcurrency::kSharded, shards);
  const auto points = MakePaperWorkload(
      udf->execution_space(), QueryDistributionKind::kUniform, n, seed);
  const auto records = CaptureTrace(*udf, points);
  std::vector<CostCatalog::ExecutionRecord> batch;
  batch.reserve(256);
  size_t row = 0;
  for (const TraceRecord& r : records) {
    UdfCost cost;
    cost.cpu_work = r.cpu_cost;
    cost.io_pages = r.io_cost;
    batch.push_back({udf->ToModelPoint(r.point), cost, (row++ % 3) == 0});
    if (batch.size() == 256) {
      catalog.RecordExecutionBatch(udf, batch);
      batch.clear();
    }
  }
  if (!batch.empty()) catalog.RecordExecutionBatch(udf, batch);
  catalog.FlushFeedback();

  const CostCatalog::ArenaSignals before = catalog.ReadArenaSignals();
  MaintenancePolicy policy;
  policy.step_budget_slots = step_slots;
  MaintenanceScheduler scheduler(&catalog, policy);
  const CostCatalog::ArenaMaintenanceStats stats = scheduler.RunEpochNow();
  const CostCatalog::ArenaSignals after = catalog.ReadArenaSignals();

  if (json) {
    std::printf(
        "{\"records\": %zu, \"tree_compressions\": %lld, "
        "\"fragmentation_before\": %.4f, \"fragmentation_after\": %.4f, "
        "\"physical_bytes_before\": %lld, \"physical_bytes_after\": %lld, "
        "\"bytes_reclaimed\": %lld, \"blocks_moved\": %lld, \"arenas\": %d, "
        "\"steps\": %d, \"max_pause_us\": %lld, \"total_pause_us\": %lld}\n",
        records.size(),
        static_cast<long long>(before.tree_compressions),
        before.max_fragmentation, after.max_fragmentation,
        static_cast<long long>(stats.physical_bytes_before),
        static_cast<long long>(stats.physical_bytes_after),
        static_cast<long long>(stats.bytes_reclaimed),
        static_cast<long long>(stats.blocks_moved), stats.arenas_compacted,
        stats.steps, static_cast<long long>(stats.max_pause_us),
        static_cast<long long>(stats.total_pause_us));
    return 0;
  }
  std::printf("maintenance epoch over %zu records of %s:\n", records.size(),
              std::string(udf->name()).c_str());
  std::printf("  tree compressions observed: %lld\n",
              static_cast<long long>(before.tree_compressions));
  std::printf("  fragmentation: %.1f%% -> %.1f%%\n",
              before.max_fragmentation * 100.0,
              after.max_fragmentation * 100.0);
  std::printf("  physical bytes: %lld -> %lld (%lld reclaimed)\n",
              static_cast<long long>(stats.physical_bytes_before),
              static_cast<long long>(stats.physical_bytes_after),
              static_cast<long long>(stats.bytes_reclaimed));
  std::printf("  blocks moved: %lld across %d arena(s)\n",
              static_cast<long long>(stats.blocks_moved),
              stats.arenas_compacted);
  std::printf("  quiesce windows: %d (max pause %lld us, total %lld us)\n",
              stats.steps, static_cast<long long>(stats.max_pause_us),
              static_cast<long long>(stats.total_pause_us));
  return 0;
}

int RunGovern(int argc, char** argv) {
  const int models = std::atoi(ArgValue(argc, argv, "models", "48").c_str());
  const int tenants = std::atoi(ArgValue(argc, argv, "tenants", "3").c_str());
  const int n = std::atoi(ArgValue(argc, argv, "n", "30000").c_str());
  const auto seed = static_cast<uint64_t>(
      std::atoll(ArgValue(argc, argv, "seed", "42").c_str()));
  const int64_t budget =
      std::atoll(ArgValue(argc, argv, "budget", "1800").c_str());
  const double zipf_z = std::atof(ArgValue(argc, argv, "zipf", "1.1").c_str());
  const int max_resident =
      std::atoi(ArgValue(argc, argv, "max-resident", "0").c_str());
  const std::string quota_spec = ArgValue(argc, argv, "quota");
  const bool json = HasFlag(argc, argv, "json");
  if (models <= 0 || tenants <= 0 || n <= 0 || budget <= 0) return Usage();
  // Default global budget: half of what the fleet would hold unconstrained
  // (three models of `budget` bytes per entry), so the governor actually
  // has scarcity to arbitrate.
  const int64_t global = std::atoll(
      ArgValue(argc, argv, "global-budget",
               std::to_string(models * 3 * budget / 2))
          .c_str());

  // The fleet: uniquely named instances of the paper's synthetic surface
  // (distinct peak layouts via the seed), round-robined across tenants.
  std::vector<std::unique_ptr<RenamedUdf>> udfs;
  udfs.reserve(static_cast<size_t>(models));
  for (int i = 0; i < models; ++i) {
    udfs.push_back(std::make_unique<RenamedUdf>(
        "synth-" + std::to_string(i),
        MakePaperSyntheticUdf(/*num_peaks=*/20, /*noise_probability=*/0.0,
                              seed + static_cast<uint64_t>(i))));
  }

  CostCatalog catalog(budget);
  for (int i = 0; i < models; ++i) {
    catalog.For(udfs[static_cast<size_t>(i)].get(),
                "tenant" + std::to_string(i % tenants));
  }

  GovernorPolicy policy;
  policy.global_budget_bytes = global;
  policy.max_resident_models = max_resident;
  if (!quota_spec.empty()) {
    std::stringstream ss(quota_spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) return Usage();
      policy.tenant_quota_bytes[item.substr(0, eq)] =
          std::atoll(item.c_str() + eq + 1);
    }
  }
  CatalogGovernor governor(&catalog, policy);
  MaintenanceScheduler scheduler(&catalog, MaintenancePolicy{});
  scheduler.SetGovernor(&governor);

  // Zipf-skewed serving: model i serves rank i+1, so low indices are hot.
  // One shared point pool keeps the surface sampling uniform per model.
  const auto points =
      MakePaperWorkload(udfs[0]->model_space(),
                        QueryDistributionKind::kUniform, 512, seed);
  ZipfDistribution zipf(models, zipf_z);
  Rng rng(seed ^ 0x90BE12ULL);
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<size_t>(zipf.Sample(rng) - 1);
    CostedUdf* udf = udfs[idx].get();
    const Point& p = points[static_cast<size_t>(i) % points.size()];
    catalog.PredictCostMicros(udf, p);
    if (i % 4 == 0) {
      const UdfCost cost = udf->Execute(p);
      catalog.RecordExecution(udf, p, cost, (i % 3) == 0);
    }
    // The serving stack normally ticks at executor block boundaries; the
    // tool stands in for it every 64 ops (default governor cadence then
    // rebalances every 16 ticks = 1024 ops).
    if (i % 64 == 0) catalog.MaintenanceTick();
  }
  catalog.FlushFeedback();
  // Final settle so the printed allocation reflects the full run.
  governor.RebalanceNow();

  std::vector<obs::ModelHealth> health = catalog.ReadModelHealth();
  std::sort(health.begin(), health.end(),
            [](const obs::ModelHealth& a, const obs::ModelHealth& b) {
              return a.budget_bytes > b.budget_bytes;
            });
  struct TenantAgg {
    int entries = 0;
    int64_t traffic = 0;
    int64_t budget = 0;
    int64_t bytes = 0;
  };
  std::map<std::string, TenantAgg> by_tenant;
  int64_t allocated = 0;
  for (const obs::ModelHealth& h : health) {
    TenantAgg& agg = by_tenant[h.tenant];
    ++agg.entries;
    agg.traffic += h.traffic;
    agg.budget += h.budget_bytes;
    agg.bytes += h.bytes;
    allocated += h.budget_bytes;
  }
  const GovernorStats stats = governor.stats();

  if (json) {
    std::printf(
        "{\"models\": %d, \"tenants\": %d, \"ops\": %d, "
        "\"global_budget_bytes\": %lld, \"allocated_bytes\": %lld, "
        "\"rebalances\": %lld, \"bytes_granted\": %lld, "
        "\"bytes_reclaimed\": %lld, \"entries_rebalanced\": %lld, "
        "\"evictions\": %lld, \"resident_models\": %zu, "
        "\"evicted_models\": %d, \"tenant\": {",
        models, tenants, n, static_cast<long long>(global),
        static_cast<long long>(allocated),
        static_cast<long long>(stats.rebalances),
        static_cast<long long>(stats.bytes_granted),
        static_cast<long long>(stats.bytes_reclaimed),
        static_cast<long long>(stats.entries_rebalanced),
        static_cast<long long>(stats.evictions), health.size(),
        catalog.evicted_count());
    bool first = true;
    for (const auto& [tenant, agg] : by_tenant) {
      std::printf("%s\"%s\": {\"entries\": %d, \"traffic\": %lld, "
                  "\"budget_bytes\": %lld, \"logical_bytes\": %lld}",
                  first ? "" : ", ", tenant.c_str(), agg.entries,
                  static_cast<long long>(agg.traffic),
                  static_cast<long long>(agg.budget),
                  static_cast<long long>(agg.bytes));
      first = false;
    }
    std::printf("}}\n");
    return 0;
  }

  std::printf("governed catalog: %d models, %d tenants, %d ops, "
              "global budget %lld bytes\n",
              models, tenants, n, static_cast<long long>(global));
  std::printf("  rebalances=%lld granted=%lld reclaimed=%lld "
              "changed=%lld evictions=%lld resident=%zu evicted=%d\n",
              static_cast<long long>(stats.rebalances),
              static_cast<long long>(stats.bytes_granted),
              static_cast<long long>(stats.bytes_reclaimed),
              static_cast<long long>(stats.entries_rebalanced),
              static_cast<long long>(stats.evictions), health.size(),
              catalog.evicted_count());
  std::printf("  allocated %lld / %lld bytes (%.1f%%)\n",
              static_cast<long long>(allocated),
              static_cast<long long>(global),
              global > 0 ? 100.0 * static_cast<double>(allocated) /
                               static_cast<double>(global)
                         : 0.0);
  std::printf("  %-10s %8s %12s %14s %14s\n", "tenant", "entries", "traffic",
              "budget_bytes", "logical_bytes");
  for (const auto& [tenant, agg] : by_tenant) {
    const auto quota = policy.tenant_quota_bytes.find(tenant);
    std::printf("  %-10s %8d %12lld %14lld %14lld%s\n", tenant.c_str(),
                agg.entries, static_cast<long long>(agg.traffic),
                static_cast<long long>(agg.budget),
                static_cast<long long>(agg.bytes),
                quota != policy.tenant_quota_bytes.end()
                    ? ("  (quota " + std::to_string(quota->second) + ")")
                          .c_str()
                    : "");
  }
  std::printf("  hottest entries by granted budget:\n");
  std::printf("  %-12s %-8s %10s %12s %12s %8s %9s\n", "model", "tenant",
              "traffic", "budget", "bytes", "nae", "staleness");
  const size_t top = std::min<size_t>(health.size(), 10);
  for (size_t i = 0; i < top; ++i) {
    const obs::ModelHealth& h = health[i];
    std::printf("  %-12s %-8s %10lld %12lld %12lld %8.3f %9.2f\n",
                h.model.c_str(), h.tenant.c_str(),
                static_cast<long long>(h.traffic),
                static_cast<long long>(h.budget_bytes),
                static_cast<long long>(h.bytes), h.windowed_nae, h.staleness);
  }
  return 0;
}

int RunSelfTest() {
  // capture -> replay -> save -> inspect -> predict, via temp files.
  const std::string trace_path = "/tmp/mlq_tool_selftest_trace.txt";
  const std::string model_path = "/tmp/mlq_tool_selftest_model.bin";
  {
    auto udf = MakePaperSyntheticUdf(20, 0.0, 99);
    const auto points = MakePaperWorkload(
        udf->model_space(), QueryDistributionKind::kUniform, 500, 7);
    const auto records = CaptureTrace(*udf, points);
    std::ofstream out(trace_path);
    WriteTrace(out, records, udf->model_space().dims());
  }
  {
    std::ifstream in(trace_path);
    std::vector<TraceRecord> records;
    std::string error;
    if (!ReadTrace(in, &records, &error) || records.size() != 500) {
      std::fprintf(stderr, "selftest: trace round-trip failed: %s\n",
                   error.c_str());
      return 1;
    }
    MlqConfig config;
    MlqModel model(Box::Cube(4, 0.0, 1000.0), config);
    ReplayTrace(model, records, CostKind::kCpu);
    if (!SaveQuadtreeToFile(model.tree(), model_path)) {
      std::fprintf(stderr, "selftest: model save failed\n");
      return 1;
    }
  }
  {
    std::string error;
    auto tree = LoadQuadtreeFromFile(model_path, &error);
    if (tree == nullptr || !tree->CheckInvariants(&error)) {
      std::fprintf(stderr, "selftest: model load failed: %s\n", error.c_str());
      return 1;
    }
    const Prediction p = tree->Predict(Point{500.0, 500.0, 500.0, 500.0});
    if (p.value < 0.0) {
      std::fprintf(stderr, "selftest: nonsense prediction\n");
      return 1;
    }
  }
  {
    // Concurrent serving leg: replay the same trace into a sharded model
    // from two threads and verify the shards stay sound and accounted.
    std::ifstream in(trace_path);
    std::vector<TraceRecord> records;
    std::string error;
    if (!ReadTrace(in, &records, &error)) {
      std::fprintf(stderr, "selftest: sharded trace re-read failed\n");
      return 1;
    }
    MlqConfig config;
    ShardedModelOptions options;
    options.num_shards = 4;
    ShardedCostModel model(Box::Cube(4, 0.0, 1000.0), config, options);
    std::vector<std::thread> pool;
    for (int t = 0; t < 2; ++t) {
      pool.emplace_back([&records, &model, t]() {
        for (size_t i = static_cast<size_t>(t); i < records.size(); i += 2) {
          model.Predict(records[i].point);
          model.Observe(records[i].point, records[i].cpu_cost);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    model.Flush();
    const ShardedModelStats stats = model.stats();
    if (stats.observations_applied + stats.observations_dropped !=
        stats.observations_submitted) {
      std::fprintf(stderr, "selftest: sharded feedback accounting broken\n");
      return 1;
    }
    for (int s = 0; s < model.num_shards(); ++s) {
      if (!model.shard_model(s).tree().CheckInvariants(&error)) {
        std::fprintf(stderr, "selftest: shard %d inconsistent: %s\n", s,
                     error.c_str());
        return 1;
      }
    }
  }
  std::remove(trace_path.c_str());
  std::remove(model_path.c_str());
  std::printf(
      "selftest OK (capture -> replay -> save -> load -> predict -> "
      "sharded concurrent replay)\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "capture") return RunCapture(argc, argv);
  if (command == "replay") return RunReplay(argc, argv);
  if (command == "metrics") return RunMetrics(argc, argv);
  if (command == "telemetry") return RunTelemetry(argc, argv);
  if (command == "inspect") return RunInspect(argc, argv);
  if (command == "predict") return RunPredict(argc, argv);
  if (command == "plan") return RunPlan(argc, argv);
  if (command == "maintenance") return RunMaintenance(argc, argv);
  if (command == "govern") return RunGovern(argc, argv);
  if (command == "selftest") return RunSelfTest();
  return Usage();
}

}  // namespace
}  // namespace mlq

int main(int argc, char** argv) { return mlq::Main(argc, argv); }

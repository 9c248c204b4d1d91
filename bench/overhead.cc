// overhead — prices each optional mechanism by what it adds to the predict
// and update hot paths, the way the paper's Fig. 10 splits modeling cost.
// One binary, one case per run; each case's contract is on its Run
// function below (--repeats only sets the telemetry case's timed passes):
//
//   overhead --case=obs|decay|variance|telemetry [--ops=N] [--repeats=3]
//            [--json=FILE]
//
// A disabled mechanism cannot be compiled out of this binary (its guards
// are compiled into the libraries), so the guard cases bound the disabled
// path from two directions:
//
//  1. They time the guard primitive itself and convert that to a
//     percentage of the measured op cost given the number of guards each
//     op executes. This is the gating number: the guards are the *only*
//     thing the disabled path adds, so guard ns/call x guards per op /
//     op ns is a sound upper bound.
//  2. They time the same hot loops with the mechanism off and on, which
//     reports what enabling it actually costs (not gated; enabled-path
//     cost is a feature).
//
// Each case exits 0 only when all of its gates pass, so the CI smoke tests
// enforce every promise.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/bench_report.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "engine/cost_catalog.h"
#include "eval/experiment_setup.h"
#include "model/mlq_model.h"
#include "obs/obs.h"

namespace mlq {
namespace {

constexpr double kBudgetPct = 2.0;
constexpr size_t kPoints = 4096;  // A power of two: loops wrap with a mask.

// Keeps `value` live without a memory round-trip (benchmark::DoNotOptimize
// without the google-benchmark dependency).
template <typename T>
inline void KeepAlive(T& value) {
  asm volatile("" : "+r"(value));
}

// Runs op(i) for i in [0, ops) and returns ns per op. A value-returning op
// is summed into a kept-alive sink, so its call cannot be elided.
template <typename Op>
double NsPerOp(int64_t ops, Op&& op) {
  WallTimer timer;
  if constexpr (std::is_void_v<std::invoke_result_t<Op&, int64_t>>) {
    for (int64_t i = 0; i < ops; ++i) op(i);
  } else {
    double sink = 0.0;
    for (int64_t i = 0; i < ops; ++i) sink += op(i);
    KeepAlive(sink);
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(ops);
}

// Minimum of `n` measurements. Preemption and co-tenants can only inflate
// a run, never deflate it, so the minimum is both the noise-robust
// estimate and still an upper bound on the true cost.
template <typename Measure>
double BestOf(int n, Measure&& measure) {
  double best = measure();
  for (int k = 1; k < n; ++k) best = std::min(best, measure());
  return best;
}

// Per-call cost of a disabled-path guard, best of 10 chunks: `guard()` is
// the mechanism's off-switch test, whose branch is never taken. The loop
// is spelled out rather than run through NsPerOp so that `hits` stays a
// register: a counter behind a reference would add a store per call.
template <typename Guard>
double GuardNs(int64_t calls, Guard&& guard) {
  constexpr int kChunks = 10;
  const int64_t per_chunk = std::max<int64_t>(1, calls / kChunks);
  return BestOf(kChunks, [&] {
    WallTimer timer;
    int64_t hits = 0;
    for (int64_t i = 0; i < per_chunk; ++i) {
      if (guard()) ++hits;
      KeepAlive(hits);
    }
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(per_chunk);
  });
}

double DeltaPct(double base, double with) {
  return base > 0.0 ? (with - base) / base * 100.0 : 0.0;
}

// The fixed-seed workload every case runs: the paper's 50-peak synthetic
// UDF and 4096 uniform points with their true costs.
struct Workload {
  std::unique_ptr<SyntheticUdf> udf =
      MakePaperSyntheticUdf(/*num_peaks=*/50, /*noise_probability=*/0.0,
                            /*seed=*/33);
  std::vector<Point> points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kUniform, kPoints, 77);
  std::vector<UdfCost> costs;

  Workload() {
    for (const Point& p : points) costs.push_back(udf->Execute(p));
  }
  static size_t Index(int64_t i) {
    return static_cast<size_t>(i) & (kPoints - 1);
  }
};

// The paper's lazy CPU-cost configuration, with the case's decay tweak.
MlqConfig PaperConfig(double decay_half_life = 0.0) {
  MlqConfig config =
      MakePaperMlqConfig(InsertionStrategy::kLazy, CostKind::kCpu);
  config.decay_half_life = decay_half_life;
  return config;
}

// A model warmed to its budget-limited steady state (further inserts keep
// it there) before any timing.
struct ModelFixture : Workload {
  MlqModel model;

  explicit ModelFixture(const MlqConfig& config = PaperConfig())
      : model(udf->model_space(), config) {
    for (size_t i = 0; i < kPoints; ++i) {
      model.Observe(points[i], costs[i].cpu_work);
    }
  }

  // `epoch_interval` > 0 ticks AdvanceDecayEpoch(1) every that many
  // inserts — the steady-state clock rate a maintenance scheduler produces
  // — so a decaying model pays lazy re-materialization at a realistic
  // frequency.
  double InsertNs(int64_t ops, int64_t epoch_interval) {
    return NsPerOp(ops, [&](int64_t i) {
      model.Observe(points[Index(i)], costs[Index(i)].cpu_work);
      if (epoch_interval > 0 && (i + 1) % epoch_interval == 0) {
        model.AdvanceDecayEpoch(1);
      }
    });
  }

  double PredictNs(int64_t ops) {
    return NsPerOp(ops,
                   [&](int64_t i) { return model.Predict(points[Index(i)]); });
  }
};

// One mode of the obs and decay cases: the observability switches and the
// decay settings the hot loops run under.
struct HotLoopMode {
  std::string label;
  bool metrics = false;
  bool trace = false;
  double decay_half_life = 0.0;
  int64_t epoch_interval = 0;
};

// One measured mode: its label, ns/op for each timed loop, and the ns/op
// its delta % is taken against (its own, for a baseline row).
struct Mode {
  std::string label;
  std::vector<double> ns;
  std::vector<double> base_ns;
};

// Prints one "<loop> ns/op" column per loop, an "ops/s" column when
// `with_rate`, then one delta % column per loop ("<loop> delta %" when
// there are several loops, "delta %" for one).
void PrintModes(const std::string& first_column,
                const std::vector<std::string>& loops, bool with_rate,
                const std::vector<Mode>& modes) {
  std::vector<std::string> header{first_column};
  for (const std::string& loop : loops) header.push_back(loop + " ns/op");
  if (with_rate) header.push_back("ops/s");
  for (const std::string& loop : loops) {
    header.push_back(loops.size() > 1 ? loop + " delta %" : "delta %");
  }
  TablePrinter table(header);
  for (const Mode& mode : modes) {
    std::vector<std::string> row{mode.label};
    for (double ns : mode.ns) row.push_back(TablePrinter::Num(ns, 1));
    if (with_rate) row.push_back(TablePrinter::Num(1e9 / mode.ns[0], 0));
    for (size_t k = 0; k < mode.ns.size(); ++k) {
      row.push_back(
          TablePrinter::Num(DeltaPct(mode.base_ns[k], mode.ns[k]), 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

// One verdict row: its leading cells, then its measured % against the
// 2% budget.
struct Gate {
  std::vector<std::string> cells;
  double pct = 0.0;
  int digits = 3;
};

// Prints the verdict table (`header` names the leading and the measured
// columns) and a closing PASS/FAIL line saying what was bounded; returns
// whether every gate passed.
bool PrintGates(std::vector<std::string> header, std::vector<Gate> gates,
                const std::string& what) {
  header.insert(header.end(), {"budget %", "verdict"});
  TablePrinter table(std::move(header));
  bool pass = true;
  for (Gate& gate : gates) {
    const bool ok = gate.pct < kBudgetPct;
    pass = pass && ok;
    gate.cells.insert(gate.cells.end(),
                      {TablePrinter::Num(gate.pct, gate.digits),
                       TablePrinter::Num(kBudgetPct, 1), ok ? "PASS" : "FAIL"});
    table.AddRow(std::move(gate.cells));
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\n%s (budget %.1f%%): %s\n", pass ? "PASS" : "FAIL",
              kBudgetPct, what.c_str());
  return pass;
}

// The obs and decay cases: times each mode's hot loops against the first
// (default) mode, then gates guard ns/call x guards per op / op ns on the
// default's predict and insert loops. `why` says what the guard is.
bool RunHotLoopCase(int64_t ops, double guard_ns,
                    const std::vector<HotLoopMode>& hot_loop_modes,
                    double predict_guards, double insert_guards,
                    const char* why) {
  std::vector<Mode> modes;
  for (const HotLoopMode& mode : hot_loop_modes) {
    // A fresh warmed model per mode, so every mode measures an identical
    // instruction stream apart from the mechanism's state.
    obs::SetEnabled(mode.metrics);
    obs::SetTraceEnabled(mode.trace);
    ModelFixture fx(PaperConfig(mode.decay_half_life));
    const double insert_ns = fx.InsertNs(ops, mode.epoch_interval);
    const std::vector<double> ns{fx.PredictNs(ops), insert_ns};
    modes.push_back({mode.label, ns, modes.empty() ? ns : modes[0].ns});
  }
  PrintModes("mode", {"predict", "insert"}, /*with_rate=*/false, modes);

  const std::vector<double>& off = modes[0].ns;
  return PrintGates(
      {"hot loop", "guards/op", "guard ns/call", "bound %"},
      {{{"predict", TablePrinter::Num(predict_guards, 0),
         TablePrinter::Num(guard_ns, 2)},
        guard_ns * predict_guards / off[0] * 100.0},
       {{"insert", TablePrinter::Num(insert_guards, 0),
         TablePrinter::Num(guard_ns, 2)},
        guard_ns * insert_guards / off[1] * 100.0}},
      std::string("disabled-path overhead bound of the hot-loop cost\n"
                  "(bound = guard ns/call x guards per op / op ns; ") +
          why + ")");
}

// With observability disabled — the default — every instrumentation site
// costs one relaxed atomic load plus a predicted branch. Modes: off,
// metrics, metrics + tracing.
bool RunObs(int64_t ops, int /*repeats*/) {
  const double guard_ns = GuardNs(ops * 8, [] { return obs::Enabled(); });

  // Guards per op: Predict runs exactly one (ScopedLatency's constructor);
  // Insert runs the ScopedLatency guard plus at most the TryCreateChild and
  // CompressInternal guards — and those two only fire on ops that already
  // do a node allocation or a whole compression pass, so 3 over-counts the
  // common op.
  constexpr double kPredictGuards = 1.0;
  constexpr double kInsertGuards = 3.0;
  return RunHotLoopCase(
      ops, guard_ns,
      {{.label = "off (default)"},
       {.label = "metrics", .metrics = true},
       {.label = "metrics+trace", .metrics = true, .trace = true}},
      kPredictGuards, kInsertGuards,
      "the guard — one relaxed\natomic load and an untaken branch — is all "
      "the disabled path adds\nover an uninstrumented build");
}

// With decay disabled — the default, MlqConfig::decay_half_life == 0 — the
// quadtree hot paths are the pre-decay code plus, per call, one double
// comparison (decay_enabled()) and, per touched node, one branch on the
// resulting register-held bool. Modes: off, decay configured but the clock
// idle, decay plus a ticking epoch clock.
bool RunDecay(int64_t ops, int /*repeats*/) {
  // The guard: one double load, a compare against zero, and a branch that
  // is never taken — the same work decay_enabled() does per call.
  volatile double half_life = 0.0;  // The disabled configuration.
  const double guard_ns =
      GuardNs(ops * 8, [&half_life] { return half_life > 0.0; });

  // Predict hoists decay_enabled() into a bool and every per-node use
  // branches on that register value, so at -O3 the compiled function loads
  // and compares config_.decay_half_life exactly once per call and
  // specializes the per-node beta test down to the pre-decay integer
  // compare (verified against the PredictInternal disassembly: one load of
  // the half-life field on the disabled path; the only other reference is
  // a divide inside the enabled arm). One full-rate guard per predict call
  // is therefore the honest charge. Insert touches at most max_depth + 1 =
  // 7 nodes and also hoists the bool, but its guards sit next to stores,
  // so charge all 7 per-node branches plus the per-call evaluation at the
  // full load+compare rate — a deliberate over-count.
  constexpr double kPredictGuards = 1.0;
  constexpr double kInsertGuards = 8.0;
  return RunHotLoopCase(
      ops, guard_ns,
      {{.label = "decay off (default)"},
       {.label = "decay idle", .decay_half_life = 8.0},
       {.label = "decay+clock/256", .decay_half_life = 8.0,
        .epoch_interval = 256}},
      kPredictGuards, kInsertGuards,
      "one double compare per\ncall plus an untaken per-node branch is all "
      "the disabled path adds\nover the pre-decay build");
}

// Callers who only read values, through the Predict shim or a batch's
// .value fields, pay nothing for stddev being there. The only touch to the
// descent is inside SummaryTriple::Stddev(), which the quadtree's
// PredictInternal already computed inline — the centralized spelling adds
// one integer compare with an untaken branch (the count <= 0 NaN guard)
// per stddev site. The entry points are reported side by side (not
// gated): the value shim Predict next to PredictDetailed reading the
// stddev, and the tree's batched descent next to the CostModel
// PredictBatch virtual.
bool RunVariance(int64_t ops, int /*repeats*/) {
  // The guard: an integer load, a compare against zero, and a branch that
  // is never taken on a populated node.
  volatile int64_t count = 4;  // A populated summary: the guard never fires.
  const double guard_ns = GuardNs(ops * 8, [&count] { return count <= 0; });

  ModelFixture fx;
  const double scalar_ns = fx.PredictNs(ops);
  const double detailed_ns = NsPerOp(ops, [&](int64_t i) {
    return fx.model.PredictDetailed(fx.points[Workload::Index(i)]).stddev;
  });
  // The batch rows are ns per point, in batches of 256.
  constexpr int64_t kBatch = 256;
  const int64_t batches = ops / kBatch + 1;
  std::vector<Prediction> out(kBatch);
  const auto batch = [&fx](int64_t b) {
    return std::span<const Point>(&fx.points[Workload::Index(b * kBatch)],
                                  kBatch);
  };
  const double tree_batch_ns = NsPerOp(batches, [&](int64_t b) {
    fx.model.tree().PredictBatch(batch(b), out);
  }) / kBatch;
  const double model_batch_ns = NsPerOp(batches, [&](int64_t b) {
    fx.model.PredictBatch(batch(b), out);
  }) / kBatch;

  PrintModes("path", {"predict"}, /*with_rate=*/false,
             {{"scalar predict", {scalar_ns}, {scalar_ns}},
              {"predict detailed", {detailed_ns}, {scalar_ns}},
              {"scalar batch 256", {tree_batch_ns}, {tree_batch_ns}},
              {"model batch 256", {model_batch_ns}, {tree_batch_ns}}});

  // PredictInternal has two stddev sites (the reliable node and the root
  // fallback), but they sit on mutually exclusive branches: exactly ONE
  // executes per descent, so one guard per predict is the honest charge.
  constexpr double kGuardsPerPredict = 1.0;
  return PrintGates(
      {"overhead source", "ns/call", "bound %"},
      {{{"stddev guard", TablePrinter::Num(guard_ns, 2)},
        guard_ns * kGuardsPerPredict / scalar_ns * 100.0}},
      "value-path overhead bound of the predict cost\n(the NaN guard inside "
      "Stddev() is all the currency's stddev adds to\na value-only "
      "prediction)");
}

// A warm catalog entry over the workload, reused across every timed run of
// a mode so each pass measures an identical instruction stream apart from
// the exporter state.
struct CatalogFixture : Workload {
  CostCatalog catalog{/*memory_limit_bytes=*/1800,
                      CatalogConcurrency::kGlobalMutex};

  CatalogFixture() {
    for (size_t i = 0; i < kPoints; ++i) {
      catalog.RecordExecution(udf.get(), points[i], costs[i], (i % 3) == 0);
    }
  }

  // One timed pass of the mixed serving loop: 3 predicts per observe (a
  // plausible plan-then-run ratio). Returns ns per catalog call.
  double MixedNs(int64_t ops) {
    return NsPerOp(ops, [&](int64_t i) {
      const size_t j = Index(i);
      if ((i & 3) == 3) {
        catalog.RecordExecution(udf.get(), points[j], costs[j], (j % 3) == 0);
        return 0.0;
      }
      return catalog.PredictCostMicros(udf.get(), points[j]);
    });
  }
};

// Two gates. (1) Disabled path unchanged: the exporter adds no per-op
// instrumentation, so with the exporter thread not even started the only
// possible cost is the obs::Enabled() guard the obs case bounds, here on
// the mixed catalog loop. (2) Exporter-on serving cost: a TelemetryExporter
// scraping the registry every 100 ms (SnapshotAndReset holds the registry
// mutex for microseconds per scrape) must keep mixed throughput within 2%
// of the same loop with no exporter. Both legs have metrics ON, so the gate
// isolates the exporter itself, not the (separately reported) metrics cost.
bool RunTelemetry(int64_t ops, int repeats) {
  const double guard_ns = GuardNs(ops * 8, [] { return obs::Enabled(); });
  CatalogFixture off_fx;
  const double off_ns = BestOf(repeats, [&] { return off_fx.MixedNs(ops); });

  // Mixed op = 3 predicts + 1 observe over 4 ops. Predict runs 1 guard,
  // observe at most the obs case's 3 insert guards plus 1 for the catalog's
  // windowed-actuals update: average (3*1 + 1*4) / 4 = 1.75 guards per op.
  constexpr double kGuardsPerMixedOp = 1.75;
  const double disabled_bound_pct =
      guard_ns * kGuardsPerMixedOp / off_ns * 100.0;

  // Gate 2. Each rep is one back-to-back (plain, exporter-on) pair, so both
  // members see the same machine conditions — a monotonic machine-wide
  // slowdown (thermal throttling, a co-tenant waking up) lands on both legs
  // instead of biasing whichever ran last — and the pair's delta estimates
  // the exporter's added cost. Noise only ever inflates a delta, so the
  // MINIMUM pairwise delta is the sound upper-bound estimate of the true
  // cost, and that is what the gate judges.
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  obs::GlobalEventLog().Clear();
  CatalogFixture on_fx;
  double metrics_ns = std::numeric_limits<double>::infinity();
  double exporter_ns = metrics_ns;
  double exporter_delta_pct = metrics_ns;
  obs::MetricsSnapshot cumulative;
  {
    obs::TelemetryExporterOptions opts;
    opts.interval_ms = 100;
    obs::TelemetryExporter exporter(opts);
    exporter.SetHealthProvider(
        [&] { return on_fx.catalog.ReadModelHealth(); });
    for (int rep = 0; rep < repeats; ++rep) {
      const double plain_ns = on_fx.MixedNs(ops);
      exporter.Start();
      const double with_ns = on_fx.MixedNs(ops);
      exporter.Stop();
      exporter_delta_pct =
          std::min(exporter_delta_pct, DeltaPct(plain_ns, with_ns));
      metrics_ns = std::min(metrics_ns, plain_ns);
      exporter_ns = std::min(exporter_ns, with_ns);
    }
    std::printf("(exporter ran %lld scrapes across %d timed reps)\n\n",
                static_cast<long long>(exporter.scrapes()), repeats);
    cumulative = exporter.latest_frame().cumulative;
  }
  obs::SetEnabled(false);

  PrintModes("mode", {"mixed"}, /*with_rate=*/true,
             {{"obs off", {off_ns}, {off_ns}},
              {"metrics, no exporter", {metrics_ns}, {off_ns}},
              {"metrics + exporter@100ms", {exporter_ns}, {off_ns}}});
  const bool pass = PrintGates(
      {"gate", "measured %"},
      {{{"disabled-path bound"}, disabled_bound_pct, 3},
       {{"exporter vs metrics-only (min pair)"}, exporter_delta_pct, 2}},
      "exporter-off guard bound and exporter-on mixed serving delta");

  // Serving-latency quantiles from the exporter's cumulative view (the
  // registry itself was drained by the scrapes) — p999 included, and
  // threaded into the --json report like every other table.
  std::printf("\n");
  TablePrinter latency(
      {"histogram", "count", "p50 ns", "p90 ns", "p99 ns", "p999 ns"});
  for (const char* name :
       {"mlq_predict_latency_ns", "mlq_insert_latency_ns"}) {
    const auto it = cumulative.histograms.find(name);
    if (it == cumulative.histograms.end() || it->second.count == 0) continue;
    const obs::HistogramSnapshot& h = it->second;
    latency.AddRow({name, TablePrinter::Num(h.count, 0),
                    TablePrinter::Num(h.Quantile(0.50), 0),
                    TablePrinter::Num(h.Quantile(0.90), 0),
                    TablePrinter::Num(h.Quantile(0.99), 0),
                    TablePrinter::Num(h.Quantile(0.999), 0)});
  }
  latency.Print(std::cout);
  return pass;
}

// Each case writes its --json as "<name>_overhead", the bench name that
// keys BENCH_BASELINE.json.
struct Case {
  std::string_view name;
  const char* default_ops;
  bool (*run)(int64_t ops, int repeats);
};

constexpr Case kCases[] = {{"obs", "400000", RunObs},
                           {"decay", "400000", RunDecay},
                           {"variance", "400000", RunVariance},
                           {"telemetry", "300000", RunTelemetry}};

int Usage() {
  std::fprintf(stderr, "usage: overhead --case=obs|decay|variance|telemetry "
                       "[--ops=N] [--repeats=3] [--json=FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (ReportUnknownArgs(argc, argv, {"case", "ops", "repeats", "json"})) {
    return Usage();
  }
  const std::string name = ArgValue(argc, argv, "case");
  const auto it = std::find_if(std::begin(kCases), std::end(kCases),
                               [&](const Case& c) { return c.name == name; });
  if (it == std::end(kCases)) return Usage();
  const int64_t ops =
      std::atoll(ArgValue(argc, argv, "ops", it->default_ops).c_str());
  const int repeats = std::atoi(ArgValue(argc, argv, "repeats", "3").c_str());
  if (ops <= 0 || repeats <= 0) {
    std::fprintf(stderr, "--ops and --repeats must be positive\n");
    return 1;
  }

  const std::string bench = name + "_overhead";
  std::printf("== %s (%lld ops per loop) ==\n\n", bench.c_str(),
              static_cast<long long>(ops));
  const bool pass = it->run(ops, repeats);
  const int json_status = MaybeWriteBenchJson(argc, argv, bench);
  return pass ? json_status : 1;
}

}  // namespace
}  // namespace mlq

int main(int argc, char** argv) { return mlq::Main(argc, argv); }

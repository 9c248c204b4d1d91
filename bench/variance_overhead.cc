// variance_overhead — proves that carrying uncertainty in the one
// prediction currency (Prediction: value plus stddev/count from the same
// descent) is free on the value-only prediction path.
//
// The contract (docs/variance.md): callers who only read values, through
// the Predict shim or a batch's .value fields, pay nothing for stddev
// being there. The only touch to the descent is inside
// SummaryTriple::Stddev(), which the quadtree's PredictInternal already
// computed inline — the centralized spelling adds one integer compare
// with an untaken branch (the count <= 0 NaN guard) per stddev site. As
// with bench/obs_overhead and bench/decay_overhead, an unguarded baseline
// cannot exist in this binary, so the bench bounds the value path
// analytically and reports the entry points side by side:
//
//  1. It times the guard primitive (integer load + compare + untaken
//     branch) and converts it to a percentage of the measured scalar
//     predict cost. PredictInternal's two stddev sites are on mutually
//     exclusive branches, so one guard per prediction is the honest
//     charge. This is the gating number.
//  2. It reports the measured entry-point costs (not gated): the value
//     shim Predict next to PredictDetailed reading the stddev, and the
//     tree's batched descent next to the CostModel PredictBatch virtual.
//     The row keys ("predict stats", "stats batch 256") predate the single
//     currency and are kept so BENCH_BASELINE.json keeps tracking them.
//
// Exit status is 0 only when the bound passes, so the CI smoke test
// enforces the <2% promise.
//
//   variance_overhead [--ops=400000] [--json=FILE]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <span>
#include <vector>

#include "common/args.h"
#include "common/bench_report.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "eval/experiment_setup.h"
#include "model/cost_model.h"
#include "model/mlq_model.h"

namespace mlq {
namespace {

// Keeps `value` live without a memory round-trip.
template <typename T>
inline void KeepAlive(T& value) {
  asm volatile("" : "+r"(value));
}

struct PathCost {
  double scalar_predict_ns = 0.0;
  double predict_stats_ns = 0.0;
  double scalar_batch_ns = 0.0;  // Per point, batch of 256.
  double stats_batch_ns = 0.0;   // Per point, batch of 256.
};

PathCost MeasurePaths(int64_t ops) {
  auto udf = MakePaperSyntheticUdf(/*num_peaks=*/50,
                                   /*noise_probability=*/0.0, /*seed=*/33);
  MlqModel model(udf->model_space(),
                 MakePaperMlqConfig(InsertionStrategy::kLazy, CostKind::kCpu));

  constexpr size_t kPoints = 4096;
  const auto points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kUniform, kPoints, 77);
  for (const Point& p : points) model.Observe(p, udf->Execute(p).cpu_work);

  PathCost result;
  {
    WallTimer timer;
    double sink = 0.0;
    for (int64_t i = 0; i < ops; ++i) {
      sink += model.Predict(points[static_cast<size_t>(i) & (kPoints - 1)]);
    }
    KeepAlive(sink);
    result.scalar_predict_ns =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(ops);
  }
  {
    WallTimer timer;
    double sink = 0.0;
    for (int64_t i = 0; i < ops; ++i) {
      sink += model.PredictDetailed(points[static_cast<size_t>(i) &
                                           (kPoints - 1)])
                  .stddev;
    }
    KeepAlive(sink);
    result.predict_stats_ns =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(ops);
  }
  constexpr size_t kBatch = 256;
  const int64_t batches = ops / static_cast<int64_t>(kBatch) + 1;
  {
    std::vector<Prediction> out(kBatch);
    WallTimer timer;
    size_t offset = 0;
    for (int64_t b = 0; b < batches; ++b) {
      model.tree().PredictBatch(std::span<const Point>(&points[offset], kBatch),
                                out);
      offset = (offset + kBatch) & (kPoints - 1);
    }
    result.scalar_batch_ns = timer.ElapsedSeconds() * 1e9 /
                             static_cast<double>(batches * kBatch);
  }
  {
    std::vector<Prediction> out(kBatch);
    WallTimer timer;
    size_t offset = 0;
    for (int64_t b = 0; b < batches; ++b) {
      model.PredictBatch(std::span<const Point>(&points[offset], kBatch), out);
      offset = (offset + kBatch) & (kPoints - 1);
    }
    result.stats_batch_ns = timer.ElapsedSeconds() * 1e9 /
                            static_cast<double>(batches * kBatch);
  }
  return result;
}

// Per-site cost of the Stddev() NaN guard: an integer load, a compare
// against zero, and a branch that is never taken on a populated node.
// Best-of-N chunks: preemption only ever inflates a chunk.
double MeasureGuardNs(int64_t calls) {
  constexpr int kChunks = 10;
  const int64_t per_chunk = calls / kChunks > 0 ? calls / kChunks : 1;
  volatile int64_t count = 4;  // A populated summary: guard never fires.
  double best_ns = 0.0;
  int64_t hits = 0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    WallTimer timer;
    for (int64_t i = 0; i < per_chunk; ++i) {
      if (count <= 0) ++hits;
      KeepAlive(hits);
    }
    const double ns =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(per_chunk);
    if (chunk == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

int Main(int argc, char** argv) {
  const int64_t ops =
      std::atoll(ArgValue(argc, argv, "ops", "400000").c_str());
  if (ops <= 0) {
    std::fprintf(stderr, "--ops must be positive\n");
    return 1;
  }

  std::printf(
      "== Variance-currency overhead (%lld ops per loop) ==\n\n",
      static_cast<long long>(ops));

  const double guard_ns = MeasureGuardNs(ops * 8);
  const PathCost cost = MeasurePaths(ops);

  const auto delta_pct = [](double base, double with) {
    return base > 0.0 ? (with - base) / base * 100.0 : 0.0;
  };

  TablePrinter modes({"path", "predict ns/op", "delta %"});
  modes.AddRow({"scalar predict", TablePrinter::Num(cost.scalar_predict_ns, 1),
                "0.0"});
  modes.AddRow(
      {"predict stats", TablePrinter::Num(cost.predict_stats_ns, 1),
       TablePrinter::Num(
           delta_pct(cost.scalar_predict_ns, cost.predict_stats_ns), 1)});
  modes.AddRow({"scalar batch 256", TablePrinter::Num(cost.scalar_batch_ns, 1),
                "0.0"});
  modes.AddRow(
      {"stats batch 256", TablePrinter::Num(cost.stats_batch_ns, 1),
       TablePrinter::Num(delta_pct(cost.scalar_batch_ns, cost.stats_batch_ns),
                         1)});
  modes.Print(std::cout);

  // The value-path bound. PredictInternal has two stddev sites (the
  // reliable node and the root fallback), but they sit on mutually
  // exclusive branches: exactly ONE executes per descent, so one guard per
  // predict is the honest charge — each Stddev() call adds one count <= 0
  // compare over the inline sqrt it replaced.
  constexpr double kGuardsPerPredict = 1.0;
  constexpr double kBudgetPct = 2.0;
  const double guard_bound_pct =
      guard_ns * kGuardsPerPredict / cost.scalar_predict_ns * 100.0;
  const bool pass = guard_bound_pct < kBudgetPct;

  std::printf("\n");
  TablePrinter bound({"overhead source", "ns/call", "bound %", "budget %",
                      "verdict"});
  bound.AddRow({"stddev guard", TablePrinter::Num(guard_ns, 2),
                TablePrinter::Num(guard_bound_pct, 3),
                TablePrinter::Num(kBudgetPct, 1), pass ? "PASS" : "FAIL"});
  bound.Print(std::cout);

  std::printf(
      "\n%s: value-path overhead bound %s %.1f%% of the predict cost\n"
      "(the NaN guard inside Stddev() is all the currency's stddev adds to\n"
      "a value-only prediction)\n",
      pass ? "PASS" : "FAIL", pass ? "<" : ">=", kBudgetPct);

  const int json_status = MaybeWriteBenchJson(argc, argv, "variance_overhead");
  return pass ? json_status : 1;
}

}  // namespace
}  // namespace mlq

int main(int argc, char** argv) { return mlq::Main(argc, argv); }

// Micro-benchmarks (google-benchmark) of the model operations on the hot
// path of query optimization: prediction, insertion, compression, and the
// SH histogram probe. APC/AUC in the paper are averages of exactly these.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/args.h"
#include "common/rng.h"
#include "common/timer.h"
#include "eval/experiment_setup.h"
#include "model/mlq_model.h"
#include "model/static_histogram.h"
#include "quadtree/memory_limited_quadtree.h"
#include "quadtree/shared_node_arena.h"

namespace mlq {
namespace {

constexpr int kDims = 4;

std::vector<Point> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Point p(kDims);
    for (int d = 0; d < kDims; ++d) p[d] = rng.Uniform(0.0, 1000.0);
    points.push_back(p);
  }
  return points;
}

MlqConfig ConfigWithBudget(int64_t budget, InsertionStrategy strategy) {
  MlqConfig config = MakePaperMlqConfig(strategy, CostKind::kCpu, budget);
  return config;
}

// Builds a tree filled to its budget.
std::unique_ptr<MemoryLimitedQuadtree> FilledTree(int64_t budget,
                                                  InsertionStrategy strategy) {
  auto tree = std::make_unique<MemoryLimitedQuadtree>(
      Box::Cube(kDims, 0.0, 1000.0), ConfigWithBudget(budget, strategy));
  Rng rng(1);
  const auto points = RandomPoints(4000, 2);
  for (const Point& p : points) tree->Insert(p, rng.Uniform(0.0, 10000.0));
  return tree;
}

void BM_QuadtreePredict(benchmark::State& state) {
  auto tree = FilledTree(state.range(0), InsertionStrategy::kEager);
  const auto queries = RandomPoints(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Predict(queries[i++ & 1023]).value);
  }
  state.SetLabel(std::to_string(tree->num_nodes()) + " nodes");
}
BENCHMARK(BM_QuadtreePredict)->Arg(1800)->Arg(16384)->Arg(262144);

void BM_QuadtreePredictBatch(benchmark::State& state) {
  // The batched entry point: one call costs 256 descents with the
  // per-call observability and dispatch overhead paid once. Reported
  // per-point via SetItemsProcessed for comparison with BM_QuadtreePredict.
  constexpr size_t kBatch = 256;
  auto tree = FilledTree(state.range(0), InsertionStrategy::kEager);
  const auto queries = RandomPoints(1024, 3);
  std::vector<Prediction> out(kBatch);
  size_t offset = 0;
  for (auto _ : state) {
    const std::span<const Point> batch(&queries[offset], kBatch);
    tree->PredictBatch(batch, out);
    benchmark::DoNotOptimize(out.data());
    offset = (offset + kBatch) & 1023;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  state.SetLabel(std::to_string(tree->num_nodes()) + " nodes");
}
BENCHMARK(BM_QuadtreePredictBatch)->Arg(1800)->Arg(16384)->Arg(262144);

void BM_ModelPredictBatch(benchmark::State& state) {
  // The model-layer batched entry point: the same descents as
  // BM_QuadtreePredictBatch behind the CostModel::PredictBatch virtual,
  // each result carrying its stddev/count. Read next to that row: the
  // per-point gap is the whole cost of the model layer.
  constexpr size_t kBatch = 256;
  MlqModel model(Box::Cube(kDims, 0.0, 1000.0),
                 ConfigWithBudget(state.range(0), InsertionStrategy::kEager));
  Rng rng(1);
  for (const Point& p : RandomPoints(4000, 2)) {
    model.Observe(p, rng.Uniform(0.0, 10000.0));
  }
  const auto queries = RandomPoints(1024, 3);
  std::vector<Prediction> out(kBatch);
  size_t offset = 0;
  for (auto _ : state) {
    const std::span<const Point> batch(&queries[offset], kBatch);
    model.PredictBatch(batch, out);
    benchmark::DoNotOptimize(out.data());
    offset = (offset + kBatch) & 1023;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  state.SetLabel(std::to_string(model.tree().num_nodes()) + " nodes");
}
BENCHMARK(BM_ModelPredictBatch)->Arg(1800)->Arg(16384)->Arg(262144);

void BM_QuadtreeInsertEager(benchmark::State& state) {
  auto tree = FilledTree(state.range(0), InsertionStrategy::kEager);
  const auto points = RandomPoints(1024, 4);
  Rng rng(5);
  size_t i = 0;
  for (auto _ : state) {
    tree->Insert(points[i++ & 1023], rng.Uniform(0.0, 10000.0));
  }
}
BENCHMARK(BM_QuadtreeInsertEager)->Arg(1800)->Arg(16384)->Arg(262144);

void BM_QuadtreeInsertLazy(benchmark::State& state) {
  auto tree = FilledTree(state.range(0), InsertionStrategy::kLazy);
  const auto points = RandomPoints(1024, 6);
  Rng rng(7);
  size_t i = 0;
  for (auto _ : state) {
    tree->Insert(points[i++ & 1023], rng.Uniform(0.0, 10000.0));
  }
}
BENCHMARK(BM_QuadtreeInsertLazy)->Arg(1800)->Arg(16384)->Arg(262144);

void BM_QuadtreeInsertDecay(benchmark::State& state) {
  // The insert hot path with windowed summaries live: decay enabled and the
  // epoch clock ticking every 256 inserts, so the loop pays the lazy
  // materialization (re-scaling a node's stale summary on first touch after
  // an epoch) at the steady-state rate the maintenance scheduler produces.
  // Compare against BM_QuadtreeInsertLazy at the same budget: the gap is
  // the full decay feature cost, not just the disabled-path guard (that
  // bound lives in `bench/overhead --case=decay`).
  MlqConfig config = ConfigWithBudget(state.range(0), InsertionStrategy::kLazy);
  config.decay_half_life = 8.0;
  auto tree = std::make_unique<MemoryLimitedQuadtree>(
      Box::Cube(kDims, 0.0, 1000.0), config);
  Rng warm_rng(1);
  for (const Point& p : RandomPoints(4000, 2)) {
    tree->Insert(p, warm_rng.Uniform(0.0, 10000.0));
  }
  const auto points = RandomPoints(1024, 6);
  Rng rng(7);
  size_t i = 0;
  for (auto _ : state) {
    tree->Insert(points[i++ & 1023], rng.Uniform(0.0, 10000.0));
    if ((i & 255) == 0) tree->AdvanceDecayEpoch(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuadtreeInsertDecay)->Arg(1800)->Arg(16384)->Arg(262144);

void BM_QuadtreeInsertBatch(benchmark::State& state) {
  // The batched feedback entry point at block sizes 1..512 on a
  // budget-filled lazy tree (constant compression churn, the serving
  // steady state). Reported per-point via SetItemsProcessed so the rows
  // are comparable with each other and with BM_QuadtreeInsertLazy: the
  // spread across rows is the per-call overhead InsertBatch amortizes.
  const auto batch = static_cast<size_t>(state.range(0));
  auto tree = FilledTree(16384, InsertionStrategy::kLazy);
  const auto points = RandomPoints(1024, 6);
  Rng rng(7);
  std::vector<Observation> feed;
  feed.reserve(points.size() + 512);
  for (const Point& p : points) {
    feed.push_back({p, rng.Uniform(0.0, 10000.0)});
  }
  // Pad with the head so a block starting anywhere in [0, 1024) fits.
  for (size_t k = 0; k < 512; ++k) feed.push_back(feed[k]);
  size_t offset = 0;
  for (auto _ : state) {
    tree->InsertBatch(std::span<const Observation>(&feed[offset], batch));
    offset = (offset + batch) & 1023;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_QuadtreeInsertBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_QuadtreeCompress(benchmark::State& state) {
  // Measures one full compression pass (PQ build + gamma eviction) on a
  // freshly refilled tree each iteration. The rebuild dominates wall time,
  // so the iteration count is pinned rather than letting the harness loop
  // until the (tiny) measured time accumulates.
  const auto points = RandomPoints(4000, 8);
  Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    MemoryLimitedQuadtree tree(
        Box::Cube(kDims, 0.0, 1000.0),
        ConfigWithBudget(state.range(0), InsertionStrategy::kEager));
    for (const Point& p : points) tree.Insert(p, rng.Uniform(0.0, 10000.0));
    state.ResumeTiming();
    tree.Compress();
  }
}
BENCHMARK(BM_QuadtreeCompress)
    ->Arg(1800)
    ->Arg(16384)
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond);

// A shared arena left fragmented the way serving traffic leaves it: eight
// lazy tenants allocated round-robin (blocks interleaved), then every
// other tenant dropped. Returns the arena plus the survivors that keep
// their blocks pinned.
struct FragmentedArena {
  std::shared_ptr<SharedNodeArena> arena;
  std::vector<std::unique_ptr<MemoryLimitedQuadtree>> trees;
};

FragmentedArena MakeFragmentedArena() {
  FragmentedArena f;
  f.arena = std::make_shared<SharedNodeArena>(1 << kDims);
  MlqConfig config = ConfigWithBudget(32 * 1024, InsertionStrategy::kLazy);
  const Box space = Box::Cube(kDims, 0.0, 1000.0);
  for (int t = 0; t < 8; ++t) {
    f.trees.push_back(
        std::make_unique<MemoryLimitedQuadtree>(space, config, f.arena));
  }
  Rng rng(17);
  for (int t = 0; t < 8; ++t) {
    const auto points = RandomPoints(2000, 18 + static_cast<uint64_t>(t));
    for (size_t i = 0; i < points.size(); ++i) {
      f.trees[static_cast<size_t>(t)]->Insert(points[i],
                                              rng.Uniform(0.0, 10000.0));
    }
  }
  for (size_t t = 0; t < f.trees.size(); t += 2) f.trees[t].reset();
  return f;
}

void BM_ArenaCompactStep(benchmark::State& state) {
  // One bounded incremental step: the (manual) time column IS the
  // serving-visible pause the scheduler pays per step. Arg is the slot
  // budget; items/sec counts relocated slots so the regression gate tracks
  // relocation throughput, not just wall time. Manual timing keeps the
  // fragmented-arena rebuild (re-run whenever a step converges) out of the
  // measurement.
  FragmentedArena f = MakeFragmentedArena();
  int64_t slots_moved = 0;
  for (auto _ : state) {
    WallTimer timer;
    const SharedNodeArena::CompactStepStats step =
        f.arena->CompactStep(state.range(0));
    state.SetIterationTime(timer.ElapsedMicros() * 1e-6);
    slots_moved += step.blocks_moved * (1 << kDims);
    if (step.done) f = MakeFragmentedArena();
  }
  state.SetItemsProcessed(slots_moved);
}
BENCHMARK(BM_ArenaCompactStep)
    ->Arg(512)
    ->Arg(4096)
    ->Iterations(60)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ArenaCompactFull(benchmark::State& state) {
  // A whole compaction pass in one unbounded CompactStep on the identical
  // fragmented layout. Read next to BM_ArenaCompactStep: the
  // time-per-iteration ratio between the two rows is the pause reduction a
  // bounded step buys. Items count the dense arena's slots after the pass
  // (every live block's slots).
  int64_t slots = 0;
  for (auto _ : state) {
    FragmentedArena f = MakeFragmentedArena();
    WallTimer timer;
    f.arena->CompactStep(std::numeric_limits<int64_t>::max());
    state.SetIterationTime(timer.ElapsedMicros() * 1e-6);
    slots += static_cast<int64_t>(f.arena->slot_count());
  }
  state.SetItemsProcessed(slots);
}
BENCHMARK(BM_ArenaCompactFull)
    ->Iterations(40)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ArenaFragmentationRecovery(benchmark::State& state) {
  // End-to-end incremental epoch: bounded steps to convergence. Items/sec
  // counts reclaimed bytes — the rate at which incremental maintenance
  // returns fragmented slab memory to the OS.
  int64_t bytes_reclaimed = 0;
  for (auto _ : state) {
    FragmentedArena f = MakeFragmentedArena();
    const int64_t before = f.arena->PhysicalCapacityBytes();
    WallTimer timer;
    SharedNodeArena::CompactStepStats step;
    do {
      step = f.arena->CompactStep(4096);
    } while (!step.done);
    state.SetIterationTime(timer.ElapsedMicros() * 1e-6);
    bytes_reclaimed += before - f.arena->PhysicalCapacityBytes();
  }
  state.SetItemsProcessed(bytes_reclaimed);
}
BENCHMARK(BM_ArenaFragmentationRecovery)
    ->Iterations(40)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ShHistogramPredict(benchmark::State& state) {
  const Box space = Box::Cube(kDims, 0.0, 1000.0);
  EquiHeightHistogram histogram(space, state.range(0));
  const auto training = RandomPoints(5000, 10);
  std::vector<double> costs(training.size());
  Rng rng(11);
  for (double& c : costs) c = rng.Uniform(0.0, 10000.0);
  histogram.Train(training, costs);
  const auto queries = RandomPoints(1024, 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.Predict(queries[i++ & 1023]));
  }
  state.SetLabel(std::to_string(histogram.num_buckets()) + " buckets");
}
BENCHMARK(BM_ShHistogramPredict)->Arg(1800)->Arg(262144);

void BM_ShHistogramTrain(benchmark::State& state) {
  const Box space = Box::Cube(kDims, 0.0, 1000.0);
  const auto training = RandomPoints(static_cast<int>(state.range(0)), 13);
  std::vector<double> costs(training.size());
  Rng rng(14);
  for (double& c : costs) c = rng.Uniform(0.0, 10000.0);
  for (auto _ : state) {
    EquiHeightHistogram histogram(space, 1800);
    histogram.Train(training, costs);
    benchmark::DoNotOptimize(histogram.num_buckets());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShHistogramTrain)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_EndToEndSelfTuningStep(benchmark::State& state) {
  // One full optimizer-loop step: predict + synthetic-UDF execute + observe.
  auto udf = MakePaperSyntheticUdf(50, 0.0, 15);
  MlqModel model(udf->model_space(),
                 MakePaperMlqConfig(InsertionStrategy::kLazy, CostKind::kCpu));
  const auto queries = RandomPoints(1024, 16);
  size_t i = 0;
  for (auto _ : state) {
    const Point& q = queries[i++ & 1023];
    benchmark::DoNotOptimize(model.Predict(q));
    const double actual = udf->Execute(q).cpu_work;
    model.Observe(q, actual);
  }
}
BENCHMARK(BM_EndToEndSelfTuningStep);

}  // namespace
}  // namespace mlq

// Custom main instead of BENCHMARK_MAIN(): translates the repo-wide
// `--json <path>` convention into google-benchmark's JSON reporter flags,
// so every bench binary exposes the same machine-readable switch.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  const std::string json_path = mlq::ArgValue(argc, argv, "json");
  if (!json_path.empty()) {
    // Drop the --json tokens and inject the benchmark_out equivalents.
    std::vector<char*> kept;
    for (int i = 0; i < argc; ++i) {
      const std::string_view arg = args[static_cast<size_t>(i)];
      if (arg.rfind("--json=", 0) == 0) continue;
      if (arg == "--json") {
        ++i;  // Skip the value token as well.
        continue;
      }
      kept.push_back(args[static_cast<size_t>(i)]);
    }
    out_flag = "--benchmark_out=" + json_path;
    kept.push_back(out_flag.data());
    kept.push_back(format_flag.data());
    args = std::move(kept);
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

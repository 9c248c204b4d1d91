// catalog_scale — the fleet-level bench: one global byte pool, thousands
// of models, Zipf-skewed traffic.
//
// Two catalogs serve the identical op sequence from identical starting
// budgets (global_budget / models per entry):
//
//   equal_split — budgets never move. This is the baseline the paper's
//     single-model tuning implies when scaled naively: every UDF gets the
//     same slice regardless of traffic.
//   governed — a CatalogGovernor redistributes the same global pool by
//     observed accuracy-per-byte demand (traffic share x error boost x
//     staleness) on the maintenance tick stream.
//
// Four exit-enforced gates:
//
//  1. Accuracy: the governed catalog's aggregate windowed NAE (traffic-
//     weighted, measured over the serving phase) must beat equal_split.
//     Skewed traffic is the whole argument for a governor — hot models
//     deserve the bytes cold models waste — so losing this comparison
//     means the subsystem does not pay for itself.
//  2. Tick overhead: registering a governor adds one atomic load + counter
//     to every maintenance tick on the serving path. Measured as
//     back-to-back (detached, attached) pairs; the minimum pairwise delta
//     must stay under 2% (noise only ever inflates a pair's delta).
//  3. Rebalance amortization: a full rebalance (health scan + allocation +
//     budget application) costs real microseconds. At the production
//     cadence modeled here — one rebalance per 512*models serving ops,
//     i.e. ticks_per_rebalance scaled with fleet size — the amortized
//     per-op share must stay under 2%. Both sides of the ratio scale
//     linearly with the fleet, so the verdict holds from 256 models to
//     10k.
//  4. Lookup at fleet scale: a catalog predict over the whole fleet
//     (Zipf ranks mapped to entries through a seeded permutation, so hot
//     models sit anywhere in registration order) must cost within 1.5x of
//     a predict on a one-model catalog. Median ratio of 7 back-to-back
//     pairs, no maintenance ticks in either loop. What remains above 1x is
//     the fleet's trees missing in cache, not the entry lookup.
//
// The accuracy phase itself runs an intentionally aggressive cadence (one
// rebalance per 256 ops) so the allocation converges within the bench's op
// budget; gate 3 is what licenses the slower production cadence.
//
//   catalog_scale [--models=256] [--tenants=4] [--warm-ops=150000]
//                 [--measure-ops=120000] [--overhead-ops=60000]
//                 [--repeats=3] [--zipf=1.1] [--budget-per-model=400]
//                 [--json=FILE]
//
// CI runs the default (CI-sized) shape; the nightly workflow runs
// --models=10000 for the full catalog-scale stress.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/bench_report.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "engine/catalog_governor.h"
#include "engine/cost_catalog.h"
#include "engine/maintenance_scheduler.h"
#include "eval/experiment_setup.h"

namespace mlq {
namespace {

template <typename T>
inline void KeepAlive(T& value) {
  asm volatile("" : "+r"(value));
}

constexpr size_t kPointMask = 1024 - 1;
constexpr int kOpsPerTick = 64;

// One catalog plus its fleet of uniquely named synthetic UDFs (distinct
// peak layouts via the seed) and the scheduler that drives maintenance.
struct Fleet {
  std::vector<std::unique_ptr<RenamedUdf>> udfs;
  std::unique_ptr<CostCatalog> catalog;
  std::unique_ptr<MaintenanceScheduler> scheduler;
};

Fleet MakeFleet(int models, int tenants, int64_t per_model_budget,
                uint64_t seed) {
  Fleet f;
  f.udfs.reserve(static_cast<size_t>(models));
  for (int i = 0; i < models; ++i) {
    f.udfs.push_back(std::make_unique<RenamedUdf>(
        "m" + std::to_string(i),
        MakePaperSyntheticUdf(/*num_peaks=*/20, /*noise_probability=*/0.0,
                              seed + static_cast<uint64_t>(i))));
  }
  f.catalog = std::make_unique<CostCatalog>(per_model_budget);
  for (int i = 0; i < models; ++i) {
    f.catalog->For(f.udfs[static_cast<size_t>(i)].get(),
                   "tenant" + std::to_string(i % tenants));
  }
  f.scheduler =
      std::make_unique<MaintenanceScheduler>(f.catalog.get(),
                                             MaintenancePolicy{});
  return f;
}

// Seeded Fisher-Yates permutation of [0, n): which model serves which
// Zipf rank. Fixed per fleet so every sequence agrees on the hot models.
std::vector<uint32_t> RankPermutation(int n, uint64_t seed) {
  std::vector<uint32_t> perm(static_cast<size_t>(n));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  Rng rng(seed);
  for (size_t i = perm.size(); i > 1; --i) {
    const auto j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

// The op sequence both scenarios replay: model indices drawn by Zipf rank
// through `rank_to_model`, so the hot models are scattered over the
// registration order instead of being the ones registered first.
std::vector<uint32_t> MakeSequence(const std::vector<uint32_t>& rank_to_model,
                                   double z, size_t ops, uint64_t seed) {
  ZipfDistribution zipf(static_cast<int>(rank_to_model.size()), z);
  Rng rng(seed);
  std::vector<uint32_t> seq(ops);
  for (uint32_t& s : seq) {
    s = rank_to_model[static_cast<size_t>(zipf.Sample(rng) - 1)];
  }
  return seq;
}

// Serving loop: every op predicts; every 2nd op executes the UDF and feeds
// the outcome back. Accumulates the traffic-weighted aggregate NAE
// (sum |pred - actual| / sum actual over the executed ops) when `nae_out`
// is non-null.
void Serve(Fleet& f, const std::vector<uint32_t>& seq,
           const std::vector<Point>& points, double* nae_out) {
  double err = 0.0;
  double denom = 0.0;
  double sink = 0.0;
  for (size_t i = 0; i < seq.size(); ++i) {
    CostedUdf* udf = f.udfs[seq[i]].get();
    const Point& p = points[i & kPointMask];
    const double pred = f.catalog->PredictCostMicros(udf, p);
    sink += pred;
    if ((i & 1) == 0) {
      const UdfCost cost = udf->Execute(p);
      const double actual = cost.NominalMicros();
      err += std::abs(pred - actual);
      denom += actual;
      f.catalog->RecordExecution(udf, p, cost, (i % 3) == 0);
    }
    if (i % kOpsPerTick == 0) f.catalog->MaintenanceTick();
  }
  KeepAlive(sink);
  if (nae_out != nullptr) *nae_out = denom > 0.0 ? err / denom : 0.0;
}

// Individually timed predicts over the Zipf sequence; returns the p99 in
// ns. Identical instruction stream across scenarios, so the (constant)
// timer overhead cancels out of the comparison.
double PredictP99Ns(Fleet& f, const std::vector<uint32_t>& seq,
                    const std::vector<Point>& points, size_t samples) {
  std::vector<double> ns;
  ns.reserve(samples);
  double sink = 0.0;
  for (size_t i = 0; i < samples; ++i) {
    CostedUdf* udf = f.udfs[seq[i % seq.size()]].get();
    const Point& p = points[i & kPointMask];
    WallTimer timer;
    sink += f.catalog->PredictCostMicros(udf, p);
    ns.push_back(timer.ElapsedSeconds() * 1e9);
  }
  KeepAlive(sink);
  std::sort(ns.begin(), ns.end());
  return ns[std::min(ns.size() - 1,
                     static_cast<size_t>(static_cast<double>(ns.size()) *
                                         0.99))];
}

// Timed predict-only pass, with the maintenance tick stream running when
// `tick` is set (the overhead gate's unit of work). Returns ns per op.
double PredictLoopOnce(Fleet& f, const std::vector<uint32_t>& seq,
                       const std::vector<Point>& points, size_t ops,
                       bool tick = true) {
  WallTimer timer;
  double sink = 0.0;
  for (size_t i = 0; i < ops; ++i) {
    CostedUdf* udf = f.udfs[seq[i % seq.size()]].get();
    sink += f.catalog->PredictCostMicros(udf, points[i & kPointMask]);
    if (tick && i % kOpsPerTick == 0) f.catalog->MaintenanceTick();
  }
  KeepAlive(sink);
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(ops);
}

int Main(int argc, char** argv) {
  const int models = std::atoi(ArgValue(argc, argv, "models", "256").c_str());
  const int tenants =
      std::atoi(ArgValue(argc, argv, "tenants", "4").c_str());
  const auto warm_ops = static_cast<size_t>(
      std::atoll(ArgValue(argc, argv, "warm-ops", "150000").c_str()));
  const auto measure_ops = static_cast<size_t>(
      std::atoll(ArgValue(argc, argv, "measure-ops", "120000").c_str()));
  const auto overhead_ops = static_cast<size_t>(
      std::atoll(ArgValue(argc, argv, "overhead-ops", "60000").c_str()));
  const int repeats =
      std::atoi(ArgValue(argc, argv, "repeats", "3").c_str());
  const double zipf_z =
      std::atof(ArgValue(argc, argv, "zipf", "1.1").c_str());
  const int64_t per_model_budget =
      std::atoll(ArgValue(argc, argv, "budget-per-model", "400").c_str());
  if (models <= 1 || tenants <= 0 || warm_ops == 0 || measure_ops == 0 ||
      overhead_ops == 0 || repeats <= 0 || per_model_budget <= 0) {
    std::fprintf(stderr, "invalid flag value\n");
    return 1;
  }
  // The scarcity the governor arbitrates: both scenarios start from (and
  // the governed one must stay within) this pool.
  const int64_t global_budget = 3 * per_model_budget * models;
  constexpr double kBudgetPct = 2.0;
  constexpr uint64_t kSeed = 42;

  std::printf("== Catalog scale: %d models, %d tenants, zipf %.2f, "
              "global budget %lld bytes ==\n\n",
              models, tenants, zipf_z,
              static_cast<long long>(global_budget));

  const std::vector<uint32_t> rank_to_model =
      RankPermutation(models, kSeed ^ 0x5EED);
  const std::vector<uint32_t> warm_seq =
      MakeSequence(rank_to_model, zipf_z, warm_ops, kSeed ^ 0xA11CE);
  const std::vector<uint32_t> measure_seq =
      MakeSequence(rank_to_model, zipf_z, measure_ops, kSeed ^ 0xB0B);
  // Every synthetic surface shares the paper's model space, so one point
  // pool serves the whole fleet.
  const std::vector<Point> points = MakePaperWorkload(
      MakePaperSyntheticUdf(20, 0.0, kSeed)->model_space(),
      QueryDistributionKind::kUniform, kPointMask + 1, kSeed ^ 0xF00D);

  // --- equal_split: budgets never move. ---
  Fleet equal = MakeFleet(models, tenants, per_model_budget, kSeed);
  Serve(equal, warm_seq, points, nullptr);
  double equal_nae = 0.0;
  Serve(equal, measure_seq, points, &equal_nae);
  const double equal_p99 = PredictP99Ns(equal, measure_seq, points, 20000);

  // --- governed: same pool, governor redistributes. ---
  Fleet governed = MakeFleet(models, tenants, per_model_budget, kSeed);
  GovernorPolicy policy;
  policy.global_budget_bytes = global_budget;
  // Aggressive convergence cadence for the accuracy phase (see header
  // comment): one rebalance per 4 ticks = 256 ops.
  policy.ticks_per_rebalance = 4;
  CatalogGovernor governor(governed.catalog.get(), policy);
  governed.scheduler->SetGovernor(&governor);
  Serve(governed, warm_seq, points, nullptr);
  double governed_nae = 0.0;
  Serve(governed, measure_seq, points, &governed_nae);
  const double governed_p99 =
      PredictP99Ns(governed, measure_seq, points, 20000);

  const GovernorStats gstats = governor.stats();
  const bool nae_pass = governed_nae < equal_nae;

  // --- Gate 2: tick forwarding on the serving path. The attached
  // governor's cadence is effectively infinite, so the pairs isolate the
  // per-tick cost (atomic load + mutex + counter), not a rebalance. ---
  governed.scheduler->SetGovernor(nullptr);
  GovernorPolicy idle_policy;
  idle_policy.global_budget_bytes = global_budget;
  idle_policy.ticks_per_rebalance = int64_t{1} << 40;
  CatalogGovernor idle_governor(governed.catalog.get(), idle_policy);
  const auto delta_pct = [](double base, double with) {
    return base > 0.0 ? (with - base) / base * 100.0 : 0.0;
  };
  double detached_ns = 0.0;
  double attached_ns = 0.0;
  double tick_delta_pct = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    governed.scheduler->SetGovernor(nullptr);
    const double base = PredictLoopOnce(governed, measure_seq, points,
                                        overhead_ops);
    governed.scheduler->SetGovernor(&idle_governor);
    const double with = PredictLoopOnce(governed, measure_seq, points,
                                        overhead_ops);
    const double pair = delta_pct(base, with);
    if (rep == 0 || pair < tick_delta_pct) tick_delta_pct = pair;
    if (rep == 0 || base < detached_ns) detached_ns = base;
    if (rep == 0 || with < attached_ns) attached_ns = with;
  }
  governed.scheduler->SetGovernor(nullptr);
  const bool tick_pass = tick_delta_pct < kBudgetPct;

  // --- Gate 3: rebalance cost, amortized at the production cadence (one
  // rebalance per 512*models serving ops — ticks_per_rebalance scaled to
  // 8*models at 64 ops/tick). Best of `repeats` rebalances on the warm
  // catalog: the first may still apply budget deltas left over from the
  // overhead legs, the rest measure the health scan + demand computation —
  // the fixed recurring term every cadence window pays whether or not
  // traffic shifted. ---
  double rebalance_us = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    WallTimer timer;
    governor.RebalanceNow();
    const double us = timer.ElapsedSeconds() * 1e6;
    if (rep == 0 || us < rebalance_us) rebalance_us = us;
  }
  const double cadence_ops = 512.0 * static_cast<double>(models);
  const double amortized_pct =
      rebalance_us * 1000.0 / (cadence_ops * detached_ns) * 100.0;
  const bool amortized_pass = amortized_pct < kBudgetPct;

  // --- Gate 4: lookup cost at fleet scale. A one-model catalog with the
  // same per-model budget, warmed to its budget on the same points, is the
  // reference; the fleet side replays the permuted measure sequence on the
  // equal-split catalog (whose budgets never moved). ---
  Fleet single = MakeFleet(1, 1, per_model_budget, kSeed);
  const std::vector<uint32_t> single_seq(warm_ops / 4, 0);
  Serve(single, single_seq, points, nullptr);
  // The host's speed drifts by tens of percent over seconds, so the gate
  // compares the two sides within each back-to-back pair and takes the
  // median pair ratio over an odd number of pairs.
  constexpr int kLookupPairs = 7;
  double one_model_ns = 0.0;
  double fleet_ns = 0.0;
  std::vector<double> pair_ratios;
  for (int rep = 0; rep < kLookupPairs; ++rep) {
    const double one = PredictLoopOnce(single, single_seq, points,
                                       overhead_ops, /*tick=*/false);
    const double fleet = PredictLoopOnce(equal, measure_seq, points,
                                         overhead_ops, /*tick=*/false);
    pair_ratios.push_back(fleet / one);
    if (rep == 0 || one < one_model_ns) one_model_ns = one;
    if (rep == 0 || fleet < fleet_ns) fleet_ns = fleet;
  }
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double lookup_ratio = pair_ratios[pair_ratios.size() / 2];
  constexpr double kLookupRatio = 1.5;
  const bool lookup_pass = lookup_ratio < kLookupRatio;

  TablePrinter scenarios(
      {"scenario", "agg_nae", "predict_p99_ns", "predict ops/s"});
  scenarios.AddRow({"equal_split", TablePrinter::Num(equal_nae, 4),
                    TablePrinter::Num(equal_p99, 0),
                    TablePrinter::Num(1e9 / detached_ns, 0)});
  scenarios.AddRow({"governed", TablePrinter::Num(governed_nae, 4),
                    TablePrinter::Num(governed_p99, 0),
                    TablePrinter::Num(1e9 / attached_ns, 0)});
  scenarios.Print(std::cout);

  std::printf("\n");
  TablePrinter activity({"governor", "rebalances", "granted_kb",
                         "reclaimed_kb", "evictions", "rebalance_us"});
  activity.AddRow(
      {"activity", TablePrinter::Num(gstats.rebalances, 0),
       TablePrinter::Num(static_cast<double>(gstats.bytes_granted) / 1024.0,
                         1),
       TablePrinter::Num(static_cast<double>(gstats.bytes_reclaimed) /
                             1024.0,
                         1),
       TablePrinter::Num(gstats.evictions, 0),
       TablePrinter::Num(rebalance_us, 1)});
  activity.Print(std::cout);

  std::printf("\n");
  TablePrinter lookup({"catalog", "models", "predict ns/op"});
  lookup.AddRow({"one_model", "1", TablePrinter::Num(one_model_ns, 1)});
  lookup.AddRow({"fleet_permuted", std::to_string(models),
                 TablePrinter::Num(fleet_ns, 1)});
  lookup.Print(std::cout);

  std::printf("\n");
  TablePrinter gates({"gate", "measured", "budget", "verdict"});
  gates.AddRow({"governed_vs_equal_nae",
                TablePrinter::Num(equal_nae > 0.0
                                      ? governed_nae / equal_nae
                                      : 1.0,
                                  3),
                "<1", nae_pass ? "PASS" : "FAIL"});
  gates.AddRow({"tick_overhead_min_pair_pct",
                TablePrinter::Num(tick_delta_pct, 2),
                TablePrinter::Num(kBudgetPct, 1),
                tick_pass ? "PASS" : "FAIL"});
  gates.AddRow({"rebalance_amortized_pct",
                TablePrinter::Num(amortized_pct, 2),
                TablePrinter::Num(kBudgetPct, 1),
                amortized_pass ? "PASS" : "FAIL"});
  gates.AddRow({"fleet_vs_one_model_predict",
                TablePrinter::Num(lookup_ratio, 3),
                TablePrinter::Num(kLookupRatio, 1),
                lookup_pass ? "PASS" : "FAIL"});
  gates.Print(std::cout);

  const bool pass = nae_pass && tick_pass && amortized_pass && lookup_pass;
  std::printf("\n%s: governed nae %.4f vs equal %.4f, tick %+.2f%%, "
              "rebalance %.1f us (%.2f%% amortized), fleet predict %.2fx "
              "one-model\n",
              pass ? "PASS" : "FAIL", governed_nae, equal_nae,
              tick_delta_pct, rebalance_us, amortized_pct, lookup_ratio);

  const int json_status = MaybeWriteBenchJson(argc, argv, "catalog_scale");
  return pass ? json_status : 1;
}

}  // namespace
}  // namespace mlq

int main(int argc, char** argv) { return mlq::Main(argc, argv); }

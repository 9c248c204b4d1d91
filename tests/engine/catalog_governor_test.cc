// CatalogGovernor tests: the fleet-level budget controller must conserve
// the global byte pool, shrink cold models monotonically to the floor,
// keep tenants inside their quotas under skewed traffic, hold still under
// stationary traffic yet follow a real shift, round-trip evicted models
// bit-exactly through the snapshot store, and stay clean while serving
// threads hammer a catalog it is re-budgeting (this binary is a TSan
// tier-2 target).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "engine/catalog_governor.h"
#include "engine/cost_catalog.h"
#include "engine/maintenance_scheduler.h"
#include "eval/experiment_setup.h"
#include "obs/telemetry.h"

namespace mlq {
namespace {

std::vector<std::unique_ptr<RenamedUdf>> MakeFleet(int n, uint64_t seed) {
  std::vector<std::unique_ptr<RenamedUdf>> udfs;
  udfs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    udfs.push_back(std::make_unique<RenamedUdf>(
        "gov-" + std::to_string(i),
        MakePaperSyntheticUdf(/*num_peaks=*/10, /*noise_probability=*/0.0,
                              seed + static_cast<uint64_t>(i))));
  }
  return udfs;
}

// `ops` predicts (plus an execution feedback every 4th) against one model.
void Drive(CostCatalog& catalog, CostedUdf* udf,
           const std::vector<Point>& points, int ops) {
  for (int i = 0; i < ops; ++i) {
    const Point& p = points[static_cast<size_t>(i) % points.size()];
    catalog.PredictCostMicros(udf, p);
    if (i % 4 == 0) {
      catalog.RecordExecution(udf, p, udf->Execute(p), (i % 3) == 0);
    }
  }
}

int64_t BudgetOf(const std::vector<obs::ModelHealth>& health,
                 const std::string& model) {
  for (const obs::ModelHealth& h : health) {
    if (h.model == model) return h.budget_bytes;
  }
  return -1;
}

int64_t TotalBudget(const std::vector<obs::ModelHealth>& health) {
  int64_t total = 0;
  for (const obs::ModelHealth& h : health) total += h.budget_bytes;
  return total;
}

TEST(CatalogGovernorTest, ConservesGlobalBudgetUnderSkew) {
  auto udfs = MakeFleet(8, 11);
  CostCatalog catalog(1800);
  for (auto& u : udfs) catalog.For(u.get());
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 128, 7);

  // Entries start at 3 * 1800 = 5400 bytes each — 43200 in total, more
  // than double the governed pool, so the first rebalance must shrink.
  GovernorPolicy policy;
  policy.global_budget_bytes = 20000;
  policy.min_change_bytes = 1;
  CatalogGovernor governor(&catalog, policy);

  for (int round = 0; round < 6; ++round) {
    for (size_t i = 0; i < udfs.size(); ++i) {
      Drive(catalog, udfs[i].get(), points, 512 >> i);
    }
    governor.RebalanceNow();
    const auto health = catalog.ReadModelHealth();
    EXPECT_LE(TotalBudget(health), policy.global_budget_bytes)
        << "round " << round;
  }

  // Skew must show up in the allocation: the hottest model out-budgets the
  // coldest.
  const auto health = catalog.ReadModelHealth();
  EXPECT_GT(BudgetOf(health, "gov-0"), BudgetOf(health, "gov-7"));
  EXPECT_GE(governor.stats().rebalances, 6);
}

// Two distinct UDFs that share a name (every un-renamed synthetic UDF is
// "SYNTH-<n>p"). Traffic flips from the first to the second between
// rebalances; the second rebalance must see each entry's own delta. Keyed
// by name, the first entry's delta would be measured against the second
// one's old total and absorb its whole history, out-bidding the hot one.
TEST(CatalogGovernorTest, TrafficBaselineIsPerUdfNotPerName) {
  auto first = MakePaperSyntheticUdf(10, 0.0, 301);
  auto second = MakePaperSyntheticUdf(10, 0.0, 302);
  ASSERT_EQ(first->name(), second->name());
  CostCatalog catalog(1800);
  catalog.For(first.get());
  catalog.For(second.get());
  const auto points = MakePaperWorkload(
      first->model_space(), QueryDistributionKind::kUniform, 128, 37);

  // Traffic alone drives demand; no hysteresis clamp beyond 2x per round.
  GovernorPolicy policy;
  policy.global_budget_bytes = 8000;
  policy.min_change_bytes = 1;
  policy.error_weight = 0.0;
  policy.staleness_cap = 1.0;
  policy.max_step_fraction = 1.0;
  CatalogGovernor governor(&catalog, policy);

  const auto budget_of = [&catalog](const CostedUdf* udf) {
    std::vector<CostedUdf*> udfs;
    const auto health = catalog.ReadModelHealth(&udfs);
    for (size_t i = 0; i < udfs.size(); ++i) {
      if (udfs[i] == udf) return health[i].budget_bytes;
    }
    return int64_t{-1};
  };

  Drive(catalog, first.get(), points, 4000);
  Drive(catalog, second.get(), points, 100);
  governor.RebalanceNow();
  const int64_t second_before = budget_of(second.get());
  EXPECT_GT(budget_of(first.get()), second_before);

  Drive(catalog, second.get(), points, 2000);
  Drive(catalog, first.get(), points, 100);
  governor.RebalanceNow();
  EXPECT_GT(budget_of(second.get()), second_before);
  EXPECT_GT(budget_of(second.get()), budget_of(first.get()));
}

TEST(CatalogGovernorTest, ShrinksZeroTrafficModelsMonotonicallyToFloor) {
  auto udfs = MakeFleet(4, 23);
  CostCatalog catalog(1800);
  for (auto& u : udfs) catalog.For(u.get());
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 128, 9);

  GovernorPolicy policy;
  policy.global_budget_bytes = 12000;
  policy.min_change_bytes = 1;
  CatalogGovernor governor(&catalog, policy);

  int64_t prev = catalog.ReadModelHealth()[0].budget_bytes;
  ASSERT_GT(prev, policy.min_entry_bytes);
  int64_t cold = -1;
  for (int round = 0; round < 8; ++round) {
    Drive(catalog, udfs[0].get(), points, 512);  // Only gov-0 sees traffic.
    governor.RebalanceNow();
    cold = BudgetOf(catalog.ReadModelHealth(), "gov-3");
    ASSERT_GE(cold, 0);
    EXPECT_LE(cold, prev) << "round " << round;
    EXPECT_GE(cold, policy.min_entry_bytes);
    prev = cold;
  }
  // Fully converged: a zero-traffic model sits exactly on the floor.
  EXPECT_EQ(cold, policy.min_entry_bytes);
}

TEST(CatalogGovernorTest, EnforcesTenantQuotaUnderSkew) {
  auto udfs = MakeFleet(6, 37);
  CostCatalog catalog(1800);
  for (size_t i = 0; i < udfs.size(); ++i) {
    catalog.For(udfs[i].get(), i < 3 ? "alpha" : "beta");
  }
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 128, 13);

  // All the traffic lands on alpha, whose quota is far below its demand-
  // proportional share of the pool.
  GovernorPolicy policy;
  policy.global_budget_bytes = 30000;
  policy.tenant_quota_bytes["alpha"] = 6000;
  policy.min_change_bytes = 1;
  policy.max_step_fraction = 1.0;
  CatalogGovernor governor(&catalog, policy);

  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < 3; ++i) Drive(catalog, udfs[i].get(), points, 400);
    governor.RebalanceNow();
    int64_t alpha = 0;
    for (const obs::ModelHealth& h : catalog.ReadModelHealth()) {
      if (h.tenant == "alpha") alpha += h.budget_bytes;
    }
    EXPECT_LE(alpha, policy.tenant_quota_bytes["alpha"]) << "round " << round;
  }
  EXPECT_LE(TotalBudget(catalog.ReadModelHealth()),
            policy.global_budget_bytes);
}

// One rebalance interval of catalog_fleet-like read traffic: `ops`
// predicts, each on the entry `pick` draws.
template <typename Pick>
void DriveReads(CostCatalog& catalog,
                const std::vector<std::unique_ptr<RenamedUdf>>& udfs,
                const std::vector<Point>& points, int ops, Rng& rng,
                Pick pick) {
  for (int i = 0; i < ops; ++i) {
    const Point& p = points[static_cast<size_t>(i) % points.size()];
    catalog.PredictCostMicros(udfs[static_cast<size_t>(pick(rng))].get(), p);
  }
}

// Stationary Zipf traffic with the default dead band: once the step clamp
// has walked the allocation to its shares, a 1,024-op traffic delta is
// mostly sampling noise, and the evidence band must keep all but a few
// entries still. Conservation must hold exactly in every round.
TEST(CatalogGovernorTest, StationaryTrafficHoldsBudgetsStill) {
  constexpr int kModels = 64;
  constexpr int kRounds = 40;
  constexpr int kConverged = 20;
  auto udfs = MakeFleet(kModels, 131);
  CostCatalog catalog(1800);
  for (auto& u : udfs) catalog.For(u.get());
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 128, 43);

  GovernorPolicy policy;
  policy.global_budget_bytes = kModels * 5400;
  ASSERT_EQ(policy.min_change_bytes, GovernorPolicy{}.min_change_bytes);
  CatalogGovernor governor(&catalog, policy);

  const ZipfDistribution zipf(kModels, 1.1);
  Rng rng(7);
  int most_changed = 0;
  for (int round = 0; round < kRounds; ++round) {
    DriveReads(catalog, udfs, points, 1024, rng,
               [&zipf](Rng& r) { return zipf.Sample(r) - 1; });
    const int changed = governor.RebalanceNow();
    EXPECT_LE(TotalBudget(catalog.ReadModelHealth()),
              policy.global_budget_bytes)
        << "round " << round;
    if (round >= kConverged) most_changed = std::max(most_changed, changed);
  }
  EXPECT_LE(most_changed, kModels / 10);
  // The allocation still follows the skew it settled on.
  const auto health = catalog.ReadModelHealth();
  EXPECT_GT(BudgetOf(health, "gov-0"), 4 * BudgetOf(health, "gov-63"));
}

// Holding still must not mean ignoring a real shift: after the allocation
// settles on A, moving A's traffic to B makes B out-budget A within a few
// rebalances (the step clamp alone needs about three).
TEST(CatalogGovernorTest, FollowsATrafficShift) {
  constexpr int kModels = 8;
  auto udfs = MakeFleet(kModels, 151);
  CostCatalog catalog(1800);
  for (auto& u : udfs) catalog.For(u.get());
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 128, 47);

  GovernorPolicy policy;
  policy.global_budget_bytes = kModels * 5400;
  CatalogGovernor governor(&catalog, policy);
  // `hot` draws 60% of the traffic; the rest is uniform over the others.
  const auto skewed_to = [](int hot) {
    return [hot](Rng& r) {
      if (r.NextDouble() < 0.6) return hot;
      const int other = static_cast<int>(r.UniformInt(0, kModels - 2));
      return other >= hot ? other + 1 : other;
    };
  };
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    DriveReads(catalog, udfs, points, 1024, rng, skewed_to(0));
    governor.RebalanceNow();
  }
  ASSERT_GT(BudgetOf(catalog.ReadModelHealth(), "gov-0"),
            2 * BudgetOf(catalog.ReadModelHealth(), "gov-1"));

  int rounds_to_cross = 0;
  while (rounds_to_cross < 20) {
    DriveReads(catalog, udfs, points, 1024, rng, skewed_to(1));
    governor.RebalanceNow();
    ++rounds_to_cross;
    const auto health = catalog.ReadModelHealth();
    EXPECT_LE(TotalBudget(health), policy.global_budget_bytes);
    if (BudgetOf(health, "gov-1") > BudgetOf(health, "gov-0")) break;
  }
  EXPECT_LE(rounds_to_cross, 6);
}

TEST(CatalogGovernorTest, EvictReloadRoundTripsPredictionsBitExactly) {
  auto udfs = MakeFleet(1, 53);
  CostedUdf* udf = udfs[0].get();
  CostCatalog catalog(1800);
  catalog.For(udf, "solo");
  const auto points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kUniform, 256, 17);
  Drive(catalog, udf, points, 2000);

  std::vector<double> cost_before;
  std::vector<double> sel_before;
  for (const Point& p : points) {
    cost_before.push_back(catalog.PredictCostMicros(udf, p));
    sel_before.push_back(catalog.PredictSelectivity(udf, p));
  }
  const int64_t traffic_before = catalog.ReadModelHealth()[0].traffic;

  ASSERT_TRUE(catalog.EvictEntry(udf));
  EXPECT_EQ(catalog.evicted_count(), 1);
  EXPECT_GT(catalog.evicted_snapshot_bytes(), 0);
  EXPECT_EQ(catalog.Find(udf), nullptr);
  EXPECT_FALSE(catalog.EvictEntry(udf));  // Already gone.

  // The next predict lazily reloads the snapshot; every prediction — cost
  // and selectivity, across the whole probe set — must come back bit-
  // identical, and the entry's identity (tenant, traffic) must survive.
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(catalog.PredictCostMicros(udf, points[i]), cost_before[i]);
    EXPECT_EQ(catalog.PredictSelectivity(udf, points[i]), sel_before[i]);
  }
  EXPECT_EQ(catalog.evicted_count(), 0);
  const auto health = catalog.ReadModelHealth();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].tenant, "solo");
  EXPECT_GT(health[0].traffic, traffic_before);
}

TEST(CatalogGovernorTest, AdmissionControlEvictsColdestAndReloadsOnDemand) {
  auto udfs = MakeFleet(6, 71);
  CostCatalog catalog(1800);
  for (auto& u : udfs) catalog.For(u.get());
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 128, 19);
  for (size_t i = 0; i < udfs.size(); ++i) {
    Drive(catalog, udfs[i].get(), points, 600 >> i);
  }

  GovernorPolicy policy;
  policy.global_budget_bytes = 20000;
  policy.max_resident_models = 3;
  CatalogGovernor governor(&catalog, policy);
  governor.RebalanceNow();

  EXPECT_EQ(catalog.evicted_count(), 3);
  const auto health = catalog.ReadModelHealth();
  ASSERT_EQ(health.size(), 3u);
  // LRU-by-traffic: the hot half stays, the cold half went to the store.
  for (const obs::ModelHealth& h : health) {
    EXPECT_TRUE(h.model == "gov-0" || h.model == "gov-1" ||
                h.model == "gov-2")
        << h.model;
  }
  // Touching an evicted model brings it straight back.
  catalog.PredictCostMicros(udfs[5].get(), points[0]);
  EXPECT_EQ(catalog.evicted_count(), 2);
  EXPECT_EQ(catalog.ReadModelHealth().size(), 4u);
}

TEST(CatalogGovernorTest, GovernedServingChurnIsThreadSafe) {
  auto udfs = MakeFleet(8, 97);
  CostCatalog catalog(1800, CatalogConcurrency::kGlobalMutex);
  for (auto& u : udfs) catalog.For(u.get());
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 128, 29);

  GovernorPolicy policy;
  policy.global_budget_bytes = 24000;
  policy.min_change_bytes = 1;
  // Rebalance every few serving ticks so re-budgeting genuinely overlaps
  // the predict/observe traffic.
  policy.ticks_per_rebalance = 2;
  CatalogGovernor governor(&catalog, policy);
  MaintenanceScheduler scheduler(&catalog, MaintenancePolicy{});
  scheduler.SetGovernor(&governor);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const size_t m = static_cast<size_t>(i * 7 + t) % udfs.size();
        const Point& p = points[static_cast<size_t>(i + t) % points.size()];
        catalog.PredictCostMicros(udfs[m].get(), p);
        if (i % 4 == t) {
          catalog.RecordExecution(udfs[m].get(), p, udfs[m]->Execute(p),
                                  (i % 3) == 0);
        }
        if (i % 64 == 0) catalog.MaintenanceTick();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  scheduler.SetGovernor(nullptr);

  EXPECT_GT(governor.stats().rebalances, 0);
  EXPECT_LE(TotalBudget(catalog.ReadModelHealth()),
            policy.global_budget_bytes);
  // The catalog still serves sanely after the churn.
  for (auto& u : udfs) {
    const double pred = catalog.PredictCostMicros(u.get(), points[0]);
    EXPECT_GE(pred, 0.0);
    EXPECT_TRUE(std::isfinite(pred));
  }
}

}  // namespace
}  // namespace mlq

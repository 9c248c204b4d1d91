// CostCatalog entry table and pins: serving calls find resident entries
// without a lock while registration grows the lookup table, and eviction
// waits for the serving calls pinning an entry before it destroys the
// entry's models. Every mode is covered; kSingleThread runs on one thread
// only, as its contract requires. This binary is a TSan tier-2 target.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cost_catalog.h"
#include "eval/experiment_setup.h"

namespace mlq {
namespace {

std::vector<std::unique_ptr<RenamedUdf>> MakeFleet(int n, uint64_t seed) {
  std::vector<std::unique_ptr<RenamedUdf>> udfs;
  udfs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    udfs.push_back(std::make_unique<RenamedUdf>(
        "cc-" + std::to_string(i),
        MakePaperSyntheticUdf(/*num_peaks=*/10, /*noise_probability=*/0.0,
                              seed + static_cast<uint64_t>(i))));
  }
  return udfs;
}

// Execution outcomes computed up front, so serving threads only call the
// catalog.
struct Probe {
  Point point;
  UdfCost cost;
};

std::vector<Probe> MakeProbes(CostedUdf* udf, int n, uint64_t seed) {
  const std::vector<Point> points = MakePaperWorkload(
      udf->model_space(), QueryDistributionKind::kUniform, n, seed);
  std::vector<Probe> probes;
  probes.reserve(points.size());
  for (const Point& p : points) probes.push_back({p, udf->Execute(p)});
  return probes;
}

// One serving op: a cost and a selectivity prediction, plus feedback on
// every `feedback_every`-th op. Returns false on a non-finite prediction.
bool ServeOnce(CostCatalog& catalog, CostedUdf* udf, const Probe& probe,
               int op, int feedback_every) {
  const double cost = catalog.PredictCostMicros(udf, probe.point);
  const double sel = catalog.PredictSelectivity(udf, probe.point);
  if (op % feedback_every == 0) {
    catalog.RecordExecution(udf, probe.point, probe.cost, op % 3 == 0);
  }
  return std::isfinite(cost) && cost >= 0.0 && std::isfinite(sel);
}

// Registers `udfs` one by one (tenant-qualified, growing the table through
// several doublings) while serving threads hammer both registered and
// not-yet-registered UDFs; a serving call on an unregistered UDF races
// the registrar to create the same entry.
void RaceServingWithRegistration(CatalogConcurrency mode) {
  constexpr int kModels = 96;
  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 1500;
  auto udfs = MakeFleet(kModels, 500);
  const std::vector<Probe> probes = MakeProbes(udfs[0].get(), 64, 41);
  CostCatalog catalog(1800, mode);

  std::atomic<bool> all_finite{true};
  std::vector<std::thread> threads;
  threads.emplace_back([&]() {
    for (int i = 0; i < kModels; ++i) {
      catalog.For(udfs[static_cast<size_t>(i)].get(),
                  "tenant" + std::to_string(i % 3));
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const size_t m = static_cast<size_t>(i * 7 + t * 13) % udfs.size();
        const Probe& probe = probes[static_cast<size_t>(i) % probes.size()];
        if (!ServeOnce(catalog, udfs[m].get(), probe, i, 8)) {
          all_finite.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(all_finite.load());
  EXPECT_EQ(catalog.size(), kModels);
  for (const auto& udf : udfs) {
    const CostCatalog::Entry* entry = catalog.Find(udf.get());
    ASSERT_NE(entry, nullptr) << udf->name();
    EXPECT_EQ(entry->udf, udf.get());
  }
  // Exactly one entry per UDF: health lists each (unique) name once.
  std::set<std::string> names;
  for (const obs::ModelHealth& h : catalog.ReadModelHealth()) {
    names.insert(h.model);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kModels));
}

TEST(CatalogConcurrencyTest, GlobalMutexServingRacesRegistration) {
  RaceServingWithRegistration(CatalogConcurrency::kGlobalMutex);
}

TEST(CatalogConcurrencyTest, ShardedServingRacesRegistration) {
  RaceServingWithRegistration(CatalogConcurrency::kSharded);
}

// kSingleThread shares the lookup code; on one thread, interleaving
// registration with serving must find every entry through each doubling.
TEST(CatalogConcurrencyTest, SingleThreadServingInterleavesRegistration) {
  constexpr int kModels = 200;
  auto udfs = MakeFleet(kModels, 700);
  const std::vector<Probe> probes = MakeProbes(udfs[0].get(), 32, 43);
  CostCatalog catalog(1800);
  for (int i = 0; i < kModels; ++i) {
    catalog.For(udfs[static_cast<size_t>(i)].get());
    for (int k = 0; k <= i; k += 17) {
      const Probe& probe = probes[static_cast<size_t>(k) % probes.size()];
      ASSERT_TRUE(
          ServeOnce(catalog, udfs[static_cast<size_t>(k)].get(), probe, k, 4));
    }
    ASSERT_EQ(catalog.size(), i + 1);
  }
  for (const auto& udf : udfs) {
    ASSERT_NE(catalog.Find(udf.get()), nullptr);
    EXPECT_EQ(&catalog.For(udf.get()), catalog.Find(udf.get()));
  }
}

// kGlobalMutex: an evictor repeatedly evicts entries while four threads
// serve them; each serving call either finishes before the eviction images
// the trees or reloads the entry. `frozen` gets predictions only, so its
// trees never change: every prediction served from it, whichever reload
// it came from, must equal the pre-race value bit for bit. The other
// entries also take feedback; no execution may be lost across evictions.
TEST(CatalogConcurrencyTest, GlobalMutexEvictReloadRacesServing) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1200;
  constexpr int kFeedbackEvery = 4;
  auto udfs = MakeFleet(4, 900);
  CostedUdf* frozen = udfs[0].get();
  const std::vector<Probe> probes = MakeProbes(frozen, 64, 47);
  CostCatalog catalog(1800, CatalogConcurrency::kGlobalMutex);
  for (const auto& udf : udfs) {
    for (int i = 0; i < 400; ++i) {
      const Probe& probe = probes[static_cast<size_t>(i) % probes.size()];
      catalog.RecordExecution(udf.get(), probe.point, probe.cost, i % 2 == 0);
    }
  }
  std::vector<double> expected;
  for (const Probe& probe : probes) {
    expected.push_back(catalog.PredictCostMicros(frozen, probe.point));
  }
  std::vector<int64_t> observations_before;
  for (const auto& udf : udfs) {
    observations_before.push_back(
        catalog.ReadWindowedActuals(udf.get()).observations);
  }

  std::atomic<bool> serving{true};
  std::atomic<bool> all_finite{true};
  std::atomic<bool> frozen_exact{true};
  std::atomic<int> evictions{0};
  std::thread evictor([&]() {
    int k = 0;
    while (serving.load(std::memory_order_relaxed)) {
      if (catalog.EvictEntry(udfs[static_cast<size_t>(k) % udfs.size()].get())) {
        evictions.fetch_add(1, std::memory_order_relaxed);
      }
      ++k;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const size_t p = static_cast<size_t>(i + t) % probes.size();
        const double got = catalog.PredictCostMicros(frozen, probes[p].point);
        if (got != expected[p]) frozen_exact.store(false);
        // Feedback goes to the other entries only.
        CostedUdf* udf = udfs[1 + static_cast<size_t>(i + t) % 3].get();
        if (!ServeOnce(catalog, udf, probes[p], i, kFeedbackEvery)) {
          all_finite.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  serving.store(false);
  evictor.join();

  EXPECT_GT(evictions.load(), 0);
  EXPECT_TRUE(all_finite.load());
  EXPECT_TRUE(frozen_exact.load());
  // Every feedback call landed in its entry's windowed state exactly once.
  std::vector<int64_t> sent(udfs.size(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; i += kFeedbackEvery) {
      ++sent[1 + static_cast<size_t>(i + t) % 3];
    }
  }
  for (size_t m = 0; m < udfs.size(); ++m) {
    catalog.For(udfs[m].get());  // Reload if the evictor left it parked.
    EXPECT_EQ(catalog.ReadWindowedActuals(udfs[m].get()).observations,
              observations_before[m] + sent[m])
        << udfs[m]->name();
  }
  // A final quiet round trip is still bit-exact on an entry that took
  // feedback during the race.
  CostedUdf* fed = udfs[1].get();
  std::vector<double> before;
  for (const Probe& probe : probes) {
    before.push_back(catalog.PredictCostMicros(fed, probe.point));
  }
  ASSERT_TRUE(catalog.EvictEntry(fed));
  for (size_t p = 0; p < probes.size(); ++p) {
    EXPECT_EQ(catalog.PredictCostMicros(fed, probes[p].point), before[p]);
  }
}

// Eviction stays unavailable in kSharded (one image per shard is not
// implemented); the entry keeps serving.
TEST(CatalogConcurrencyTest, ShardedRefusesEviction) {
  auto udfs = MakeFleet(1, 950);
  CostCatalog catalog(1800, CatalogConcurrency::kSharded);
  catalog.For(udfs[0].get());
  EXPECT_FALSE(catalog.EvictEntry(udfs[0].get()));
  EXPECT_NE(catalog.Find(udfs[0].get()), nullptr);
  EXPECT_EQ(catalog.evicted_count(), 0);
}

}  // namespace
}  // namespace mlq

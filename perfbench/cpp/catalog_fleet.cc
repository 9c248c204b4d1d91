// catalog_fleet: the serving mode at fleet scale. A kSharded catalog
// (4 shards) holds 512 distinct 20-peak synthetic UDFs across 2 tenants,
// under a MaintenanceScheduler with its default policy and a
// CatalogGovernor over a global pool of 512 x 5.4 KB. Two clients issue
// reads (cost + selectivity prediction) for Zipf(1.1)-drawn models; every
// 16th op also executes the UDF and feeds back, and every 64th op ticks
// maintenance. Nothing here is driven by the wall clock.
//
// The fleet itself (the 512 surfaces and which of them is hot) is fixed by
// kFleetSeed; --seed draws the traffic: the Zipf ranks, the uniform points
// and the pass outcomes.

#include <cmath>
#include <string>
#include <vector>

#include "engine/catalog_governor.h"
#include "engine/cost_catalog.h"
#include "engine/maintenance_scheduler.h"
#include "eval/experiment_setup.h"
#include "model/sharded_model.h"
#include "op_sequences.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kFleetSeed = 2004;
constexpr int kModels = 512;
constexpr int kTenants = 2;
constexpr int kPeaks = 20;
constexpr int kShards = 4;
constexpr int kClients = 2;
constexpr double kZipf = 1.1;
constexpr int64_t kEntryPoolBytes = 5400;
constexpr uint32_t kPoints = 1u << 20;
constexpr int64_t kWriteEvery = 16;
constexpr int64_t kTickEvery = 64;
constexpr int64_t kWarmupOps = 16384;
constexpr int64_t kScoredOps = 1000000;
// Distinct ops per client before the sequence repeats: the whole scored
// window, so the heavy-tailed UDF costs are sampled a million times.
constexpr size_t kRingOps = kScoredOps;

class CatalogFleet final : public Workload {
 public:
  explicit CatalogFleet(uint64_t seed)
      : catalog_(mlq::kPaperMemoryBytes, mlq::CatalogConcurrency::kSharded,
                 kShards) {
    for (int i = 0; i < kModels; ++i) {
      udfs_.push_back(std::make_unique<mlq::RenamedUdf>(
          "m" + std::to_string(i),
          mlq::MakePaperSyntheticUdf(kPeaks, /*noise_probability=*/0.0,
                                     MixSeed(kFleetSeed, 100 + i))));
      catalog_.For(udfs_.back().get(), "tenant" + std::to_string(i % kTenants));
    }

    const mlq::Box space = udfs_[0]->model_space();
    mlq::Rng point_rng(MixSeed(seed, 4));
    points_.resize(kPoints);
    for (Point4f& p : points_) {
      for (int d = 0; d < 4; ++d) {
        p[d] = static_cast<float>(
            point_rng.Uniform(space.lo()[d], space.hi()[d]));
      }
    }
    const std::vector<uint32_t> permutation =
        SeededPermutation(kModels, MixSeed(kFleetSeed, 5));
    for (int c = 0; c < kClients; ++c) {
      clients_[c].ops = FleetOps(permutation, kZipf, kPoints, kRingOps,
                                 MixSeed(seed, 10 + c));
    }
    const std::vector<FleetOp> warmup =
        FleetOps(permutation, kZipf, kPoints, kWarmupOps,
                 MixSeed(seed, 9));
    for (int64_t i = 0; i < kWarmupOps; ++i) {
      Op(warmup[static_cast<size_t>(i)], i, nullptr);
    }
    // Attached after the warm-up, whose ticks are then no-ops, so their
    // lifetime stats (epochs, max pause, rebalances) cover exactly the
    // measured phase.
    mlq::GovernorPolicy governor_policy;
    governor_policy.global_budget_bytes = kModels * kEntryPoolBytes;
    governor_ = std::make_unique<mlq::CatalogGovernor>(&catalog_,
                                                       governor_policy);
    scheduler_ = std::make_unique<mlq::MaintenanceScheduler>(
        &catalog_, mlq::MaintenancePolicy{});
    scheduler_->SetGovernor(governor_.get());
  }

  int clients() const override { return kClients; }
  int64_t scored_ops() const override { return kScoredOps; }
  // Odd, so traced ops are a fair mix of reads, writes and ticks.
  int64_t trace_every() const override { return 7; }

  void BeginMeasured() override { before_ = Totals(); }

  bool RunOp(int client, int64_t i) override {
    Client& c = clients_[client];
    return Op(c.ops[static_cast<size_t>(i) % kRingOps], i,
              i < kScoredOps ? &c.nae : nullptr);
  }

  bool FinalCheck() override {
    catalog_.FlushFeedback();
    if (catalog_.evicted_count() != 0) return false;
    for (const auto& udf : udfs_) {
      const mlq::CostCatalog::Entry* entry = catalog_.Find(udf.get());
      if (entry == nullptr) return false;
      for (const mlq::CostModel* model :
           {entry->cpu_model.get(), entry->io_model.get(),
            entry->selectivity_model.get()}) {
        const auto* sharded = dynamic_cast<const mlq::ShardedCostModel*>(model);
        if (sharded == nullptr) return false;
        const mlq::ShardedModelStats s = sharded->stats();
        if (s.pending != 0 || s.observations_submitted !=
                                  s.observations_applied +
                                      s.observations_dropped) {
          return false;
        }
      }
    }
    return true;
  }

  void Collect(int64_t ops, MetricSet& e2e, MetricSet& layer) override {
    NaeSum nae;
    for (const Client& c : clients_) {
      nae.abs_error += c.nae.abs_error;
      nae.actual += c.nae.actual;
    }
    e2e.Set("nae", nae.Value());
    const int64_t scored_writes =
        kClients * ((kScoredOps + kWriteEvery - 1) / kWriteEvery);
    e2e.Set("udf_cost_us_per_row",
            nae.actual / static_cast<double>(scored_writes));

    SetQuadtreeMetrics(catalog_, before_, Totals(), ops, layer);
    int64_t submitted = 0;
    int64_t dropped = 0;
    for (const auto& udf : udfs_) {
      const mlq::CostCatalog::Entry* entry = catalog_.Find(udf.get());
      for (const mlq::CostModel* model :
           {entry->cpu_model.get(), entry->io_model.get(),
            entry->selectivity_model.get()}) {
        const mlq::ShardedModelStats s =
            static_cast<const mlq::ShardedCostModel*>(model)->stats();
        submitted += s.observations_submitted;
        dropped += s.observations_dropped;
      }
    }
    layer.Set("model.feedback_dropped_frac",
              submitted > 0 ? static_cast<double>(dropped) / submitted : 0.0);
    const mlq::MaintenanceSchedulerStats sched = scheduler_->stats();
    layer.Set("maintenance.epochs", static_cast<double>(sched.epochs));
    layer.Set("maintenance.max_pause_us",
              static_cast<double>(sched.max_pause_us));
    const mlq::GovernorStats gov = governor_->stats();
    layer.Set("governor.rebalances", static_cast<double>(gov.rebalances));
    layer.Set("governor.moved_kb",
              static_cast<double>(gov.bytes_granted + gov.bytes_reclaimed) /
                  1024.0);
  }

 private:
  struct alignas(64) Client {
    std::vector<FleetOp> ops;
    NaeSum nae;
  };

  // One fleet op; scores the write into `nae` when non-null.
  bool Op(const FleetOp& op, int64_t i, NaeSum* nae) {
    mlq::CostedUdf* udf = udfs_[op.model].get();
    const Point4f& c = points_[op.point];
    const mlq::Point p{c[0], c[1], c[2], c[3]};
    double cost;
    double selectivity;
    {
      SpanScope span(SpanName::kCatalogPredict);
      cost = catalog_.PredictCostMicros(udf, p);
    }
    {
      SpanScope span(SpanName::kCatalogSelectivity);
      selectivity = catalog_.PredictSelectivity(udf, p);
    }
    if (i % kWriteEvery == 0) {
      mlq::UdfCost actual;
      {
        SpanScope span(SpanName::kUdfExecute);
        actual = udf->Execute(p);
      }
      {
        SpanScope span(SpanName::kCatalogRecord);
        catalog_.RecordExecution(udf, p, actual, op.passed);
      }
      if (nae != nullptr) nae->Add(cost, actual.NominalMicros());
    }
    if (i % kTickEvery == 0) {
      SpanScope span(SpanName::kCatalogTick);
      catalog_.MaintenanceTick();
    }
    return std::isfinite(cost) && cost >= 0.0 && selectivity >= 0.01 &&
           selectivity <= 1.0;
  }

  QuadtreeTotals Totals() const {
    std::vector<const mlq::CostedUdf*> udfs;
    for (const auto& udf : udfs_) udfs.push_back(udf.get());
    return ReadQuadtreeTotals(catalog_, udfs);
  }

  // Declaration order is teardown order in reverse: the scheduler
  // unregisters before the governor and catalog go, and the catalog goes
  // before the UDFs it points to.
  std::vector<std::unique_ptr<mlq::RenamedUdf>> udfs_;
  mlq::CostCatalog catalog_;
  std::unique_ptr<mlq::CatalogGovernor> governor_;
  std::unique_ptr<mlq::MaintenanceScheduler> scheduler_;
  std::vector<Point4f> points_;
  Client clients_[kClients];
  QuadtreeTotals before_;
};

}  // namespace

std::unique_ptr<Workload> MakeCatalogFleet(uint64_t seed) {
  return std::make_unique<CatalogFleet>(seed);
}

}  // namespace perfbench

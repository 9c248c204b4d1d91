// paper_stream: the paper's own experiment run as a stream. One 50-peak
// synthetic UDF (d = 4, no noise), one single-threaded catalog at the
// paper's 1.8 KB per model, and one client that predicts, executes and
// feeds back at the next point of the Gaussian-sequential distribution.
// Every op writes, so quadtree insertion/compression and catalog feedback
// do nearly all the work.
//
// The UDF's surface and the stream's centroids are fixed; --seed draws the
// points around them and the pass outcomes. Where centroids fall on a
// 50-peak surface moves the mean cost by tens of percent even over
// hundreds of centroids, so seeding them would make every seed a
// different workload.

#include <cmath>
#include <vector>

#include "engine/cost_catalog.h"
#include "eval/experiment_setup.h"
#include "op_sequences.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kPeaks = 50;
constexpr uint64_t kSurfaceSeed = 2004;
constexpr uint64_t kLayoutSeed = 2004;
constexpr int kChunks = 256;
constexpr int kChunkPoints = 5000;  // One paper workload per chunk.
constexpr int64_t kWarmupOps = kChunkPoints;
// One pass over the stream after the warm-up chunk.
constexpr int64_t kScoredOps = int64_t{kChunks} * kChunkPoints - kWarmupOps;

class PaperStream final : public Workload {
 public:
  explicit PaperStream(uint64_t seed)
      : udf_(mlq::MakePaperSyntheticUdf(kPeaks, /*noise_probability=*/0.0,
                                        kSurfaceSeed)),
        metered_(udf_.get()),
        catalog_(mlq::kPaperMemoryBytes,
                 mlq::CatalogConcurrency::kSingleThread),
        points_(PaperStreamPoints(udf_->model_space(), kChunks, kChunkPoints,
                                  kLayoutSeed, MixSeed(seed, 2))) {
    mlq::Rng rng(MixSeed(seed, 3));
    passed_.resize(points_.size());
    for (auto& p : passed_) p = rng.NextBool(0.3) ? 1 : 0;
    for (int64_t k = 0; k < kWarmupOps; ++k) Step(k);
  }

  int clients() const override { return 1; }
  int64_t scored_ops() const override { return kScoredOps; }
  int64_t trace_every() const override { return 31; }

  void BeginMeasured() override { before_ = Totals(); }

  bool RunOp(int /*client*/, int64_t i) override {
    const auto [predicted, actual] = Step(kWarmupOps + i);
    if (i < kScoredOps) nae_.Add(predicted, actual);
    return std::isfinite(predicted) && predicted >= 0.0;
  }

  bool FinalCheck() override {
    const mlq::CostCatalog::Entry* entry = catalog_.Find(&metered_);
    if (entry == nullptr) return false;
    const int64_t budget = entry->budget_bytes / 3;
    return entry->cpu_model->MemoryBytes() <= budget &&
           entry->io_model->MemoryBytes() <= budget &&
           entry->selectivity_model->MemoryBytes() <= budget;
  }

  void Collect(int64_t ops, MetricSet& e2e, MetricSet& layer) override {
    e2e.Set("nae", nae_.Value());
    e2e.Set("udf_cost_us_per_row",
            nae_.actual / static_cast<double>(kScoredOps));
    SetQuadtreeMetrics(catalog_, before_, Totals(), ops, layer);
  }

 private:
  struct Outcome {
    double predicted;
    double actual;
  };

  // One stream step at sequence position k: predict, execute, feed back.
  Outcome Step(int64_t k) {
    const size_t at = static_cast<size_t>(k) % points_.size();
    const Point4f& c = points_[at];
    const mlq::Point p{c[0], c[1], c[2], c[3]};
    double predicted;
    {
      SpanScope span(SpanName::kCatalogPredict);
      predicted = catalog_.PredictCostMicros(&metered_, p);
    }
    const mlq::UdfCost cost = metered_.Execute(p);
    {
      SpanScope span(SpanName::kCatalogRecord);
      catalog_.RecordExecution(&metered_, p, cost, passed_[at] != 0);
    }
    return {predicted, cost.NominalMicros()};
  }

  QuadtreeTotals Totals() const {
    const mlq::CostedUdf* udfs[] = {&metered_};
    return ReadQuadtreeTotals(catalog_, udfs);
  }

  std::unique_ptr<mlq::SyntheticUdf> udf_;
  MeteredUdf metered_;
  mlq::CostCatalog catalog_;
  std::vector<Point4f> points_;
  std::vector<uint8_t> passed_;
  NaeSum nae_;
  QuadtreeTotals before_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperStream(uint64_t seed) {
  return std::make_unique<PaperStream>(seed);
}

}  // namespace perfbench

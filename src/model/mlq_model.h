#ifndef MLQ_MODEL_MLQ_MODEL_H_
#define MLQ_MODEL_MLQ_MODEL_H_

#include <memory>
#include <string>

#include "model/cost_model.h"
#include "quadtree/memory_limited_quadtree.h"

namespace mlq {

// CostModel adapter over the memory-limited quadtree: the paper's MLQ-E
// (eager) and MLQ-L (lazy) methods, depending on config.strategy.
class MlqModel : public CostModel {
 public:
  MlqModel(const Box& space, const MlqConfig& config);

  // Same, drawing nodes from a shared catalog arena (may be null).
  MlqModel(const Box& space, const MlqConfig& config,
           std::shared_ptr<SharedNodeArena> arena);

  // Adopts an existing tree (catalog reload of a serialized snapshot:
  // DeserializeQuadtree rebuilds the tree, this wraps it back into a
  // servable model with bit-identical predictions). `tree` must be
  // non-null.
  explicit MlqModel(std::unique_ptr<MemoryLimitedQuadtree> tree);

  std::string_view name() const override { return name_; }
  void Observe(const Point& point, double actual_cost) override;
  void ObserveBatch(std::span<const Observation> batch) override {
    tree_->InsertBatch(batch);
  }
  // Gather form of ObserveBatch: applies all[indices[...]] in index order
  // without copying the selected observations (see the tree's gather
  // InsertBatch overload).
  void ObserveGather(std::span<const Observation> all,
                     std::span<const uint32_t> indices) {
    tree_->InsertBatch(all, indices);
  }
  int64_t MemoryBytes() const override { return tree_->memory_used(); }
  int64_t NodeCount() const override { return tree_->num_nodes(); }
  bool IsSelfTuning() const override { return true; }
  void AdvanceDecayEpoch(int64_t epochs) override {
    tree_->AdvanceDecayEpoch(epochs);
  }
  bool SetByteBudget(int64_t limit_bytes) override {
    tree_->SetMemoryLimit(limit_bytes);
    return true;
  }
  ModelUpdateBreakdown update_breakdown() const override;

  // One descent; the stored sum-of-squares makes stddev free.
  Prediction PredictDetailed(const Point& point) const override {
    return tree_->Predict(point);
  }

  // Batched descent straight into the pooled tree.
  void PredictBatch(std::span<const Point> points,
                    std::span<Prediction> out) const override {
    tree_->PredictBatch(points, out);
  }

  const MemoryLimitedQuadtree& tree() const { return *tree_; }

 private:
  std::unique_ptr<MemoryLimitedQuadtree> tree_;
  std::string name_;
};

}  // namespace mlq

#endif  // MLQ_MODEL_MLQ_MODEL_H_

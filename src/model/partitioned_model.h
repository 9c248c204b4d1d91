#ifndef MLQ_MODEL_PARTITIONED_MODEL_H_
#define MLQ_MODEL_PARTITIONED_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "quadtree/quadtree_config.h"
#include "quadtree/shared_node_arena.h"

namespace mlq {

// Extension beyond the paper (its "future work": nominal input arguments).
//
// A nominal argument (e.g. an enum-like category, an index choice, a file
// format) has no meaningful order, so it cannot be a quadtree dimension.
// The standard treatment is to *partition*: one sub-model per distinct
// nominal value, over the remaining ordinal model variables. This class
// manages that partitioning under a single total memory budget:
//
//   * the first (max_partitions) distinct keys each get a private
//     sub-model with budget total / (max_partitions + 1);
//   * all later keys share one overflow sub-model (same budget slice), so
//     memory stays bounded no matter how many distinct values appear.
class PartitionedCostModel {
 public:
  // Builds one sub-model with the given byte budget.
  using ModelFactory =
      std::function<std::unique_ptr<CostModel>(int64_t budget_bytes)>;

  PartitionedCostModel(ModelFactory factory, int max_partitions,
                       int64_t total_budget_bytes);

  PartitionedCostModel(const PartitionedCostModel&) = delete;
  PartitionedCostModel& operator=(const PartitionedCostModel&) = delete;

  // Predicted cost of the UDF with nominal value `key` at ordinal point
  // `point`. Unseen keys predict via the overflow model (0 when nothing has
  // been observed at all).
  double Predict(int64_t key, const Point& point) const;

  // Feedback for one execution.
  void Observe(int64_t key, const Point& point, double actual_cost);

  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  int max_partitions() const { return max_partitions_; }
  int64_t MemoryBytes() const;
  int64_t partition_budget_bytes() const { return partition_budget_; }

  // The sub-model serving `key` right now, or nullptr if none would (no
  // private partition and no overflow model yet).
  const CostModel* ModelForKey(int64_t key) const;

 private:
  CostModel* FindOrCreate(int64_t key);

  struct Partition {
    int64_t key;
    std::unique_ptr<CostModel> model;
  };

  ModelFactory factory_;
  int max_partitions_;
  int64_t partition_budget_;
  std::vector<Partition> partitions_;        // Private per-key models.
  std::unique_ptr<CostModel> overflow_;      // Shared by all other keys.
};

// A ModelFactory whose sub-models are MLQ trees drawing physical node
// blocks from `arena` (typically the owning catalog's, via ArenaForDims).
// Without this, every FindOrCreate growth step would spin up a private
// arena — hundreds of nominal keys each paying their own slab high-water —
// instead of reusing the catalog slab that CompactStep() keeps tight. Each
// sub-model still gets its own *logical* budget_bytes cap.
PartitionedCostModel::ModelFactory MakeSharedArenaMlqFactory(
    const Box& space, const MlqConfig& base_config,
    std::shared_ptr<SharedNodeArena> arena);

}  // namespace mlq

#endif  // MLQ_MODEL_PARTITIONED_MODEL_H_

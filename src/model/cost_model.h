#ifndef MLQ_MODEL_COST_MODEL_H_
#define MLQ_MODEL_COST_MODEL_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/geometry.h"
#include "quadtree/memory_limited_quadtree.h"

namespace mlq {

// Breakdown of the time a model spent updating itself, matching the
// modeling-cost decomposition of Experiment 2 (Fig. 10): IC = insertion
// cost, CC = compression cost, MUC = IC + CC.
struct ModelUpdateBreakdown {
  double insert_seconds = 0.0;
  double compress_seconds = 0.0;
  int64_t insertions = 0;
  int64_t compressions = 0;

  double UpdateSeconds() const { return insert_seconds + compress_seconds; }
};

// A UDF execution-cost model: maps a point in model-variable space to a
// predicted cost (Section 3 of the paper). One instance models one cost
// kind (CPU or disk IO) of one UDF.
//
// Self-tuning models (MLQ) learn from Observe feedback delivered by the
// execution engine after each UDF call; static models (SH) are trained
// a-priori and ignore feedback.
//
// Predictions travel in one currency, Prediction: a value and the
// uncertainty that comes with it from the same lookup (for MLQ, the
// chosen node's S/C and sqrt(SSE/C), Fig. 3). Models implement two
// prediction virtuals, PredictDetailed and PredictBatch; Predict is a
// non-virtual value-only shim over PredictDetailed. The scalar virtual is
// kept beside the batch one because batching is not free for every model:
// ShardedCostModel::PredictBatch builds per-shard buckets on each call,
// which a one-point probe should not pay.
class CostModel {
 public:
  virtual ~CostModel() = default;

  // Short display name, e.g. "MLQ-E", "SH-H".
  virtual std::string_view name() const = 0;

  // Prediction at `point`: the value together with the uncertainty the
  // model can attach to it (stddev, supporting count, depth, reliability;
  // see Prediction). Never fails: models fall back to coarser information
  // (up to a global average, or 0 when nothing is known) and flag the
  // fallback through `count`/`reliable`.
  virtual Prediction PredictDetailed(const Point& point) const = 0;

  // Batched prediction: out[i] = PredictDetailed(points[i]), field for
  // field, with `out.size() == points.size()`. Models that can amortize
  // per-call costs over the batch (lock acquisition, shard dispatch,
  // cache-resident tree descents) override this; the default is a plain
  // loop, so batching is never worse than point-at-a-time.
  virtual void PredictBatch(std::span<const Point> points,
                            std::span<Prediction> out) const {
    for (size_t i = 0; i < points.size(); ++i) {
      out[i] = PredictDetailed(points[i]);
    }
  }

  // Value-only shim for variance-blind callers: exactly
  // PredictDetailed(point).value, bit for bit.
  double Predict(const Point& point) const {
    return PredictDetailed(point).value;
  }

  // Query feedback: the actual cost observed at `point`. Static models
  // ignore this.
  virtual void Observe(const Point& point, double actual_cost) = 0;

  // Batched feedback: applies the observations in order, semantically
  // identical to calling Observe per element. Models that can amortize
  // per-call costs (one lock per batch, one shard dispatch per batch, one
  // timed tree entry per batch) override this; the default is a plain
  // loop, so every model — static histograms included — takes batches
  // unmodified.
  virtual void ObserveBatch(std::span<const Observation> batch) {
    for (const Observation& o : batch) Observe(o.point, o.value);
  }

  // Locks that quiesce this model for maintenance (one shared-arena
  // compaction step): once every returned lock is held, no thread can be
  // inside the model holding node indices. Models without internal locking
  // return nothing — their owner is responsible for exclusivity, as with
  // any other call on a thread-compatible model.
  virtual std::vector<std::unique_lock<std::mutex>> LockForMaintenance() {
    return {};
  }

  // Forces any internally buffered feedback to be applied (models that
  // queue observations, e.g. ShardedCostModel). Default: feedback is
  // applied synchronously in Observe, nothing to do.
  virtual void Flush() {}

  // Advances the model's summary-decay clock by `epochs` (windowed-summary
  // extension; see MlqConfig::decay_half_life). The maintenance layer is
  // the clock source: one epoch per scheduler tick in steady state, a
  // burst after a detected drift to accelerate forgetting. Models without
  // decay (static histograms, decay-off quadtrees) ignore it.
  virtual void AdvanceDecayEpoch(int64_t /*epochs*/) {}

  // Re-targets the model's logical byte budget (catalog governors
  // redistribute budget across entries at runtime). Shrinking triggers an
  // eviction-compression pass until the model fits; growing raises the
  // ceiling for future learning. Returns false for models with a fixed
  // footprint (static histograms), which ignore the call.
  virtual bool SetByteBudget(int64_t /*limit_bytes*/) { return false; }

  // Logical bytes currently charged against the model's budget.
  virtual int64_t MemoryBytes() const = 0;

  // Materialized tree nodes backing the model; 0 for models without a
  // node structure (static histograms). Health telemetry reads this
  // alongside MemoryBytes for a bytes-per-node view.
  virtual int64_t NodeCount() const { return 0; }

  // True when Observe actually updates the model.
  virtual bool IsSelfTuning() const = 0;

  // Update-cost accounting; static models report zeros.
  virtual ModelUpdateBreakdown update_breakdown() const { return {}; }
};

}  // namespace mlq

#endif  // MLQ_MODEL_COST_MODEL_H_

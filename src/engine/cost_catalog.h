#ifndef MLQ_ENGINE_COST_CATALOG_H_
#define MLQ_ENGINE_COST_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/drift_detector.h"
#include "model/cost_model.h"
#include "obs/telemetry.h"
#include "quadtree/shared_node_arena.h"
#include "udf/costed_udf.h"

namespace mlq {

class MaintenanceScheduler;
class MlqModel;

// How the catalog's models are protected against concurrent access.
enum class CatalogConcurrency {
  // Bare single-threaded models, zero locking — the paper's setting and
  // the default. One planner/executor thread only.
  kSingleThread,
  // Every model behind one mutex (ConcurrentCostModel). Correct under any
  // interleaving; throughput capped at one core per model.
  kGlobalMutex,
  // Sharded serving models (ShardedCostModel): striped locks, queued
  // feedback. Prediction throughput scales across threads; Observe never
  // blocks the prediction path. See docs/concurrency.md.
  kSharded,
};

// The optimizer-side metadata for UDFs: for every UDF, the two cost
// estimators the paper prescribes (one CPU, one disk-IO; Section 1) plus —
// reusing the same machinery — a self-tuning *selectivity* estimator, an
// MLQ whose "cost" values are the 0/1 pass outcomes of the predicate, so
// its block averages are local pass probabilities.
//
// Every executed predicate feeds all three models (the Fig. 1 feedback
// loop); the optimizer reads them when costing plans. In the concurrent
// modes, predictions and feedback may come from many threads at once.
class CostCatalog {
 public:
  // Exponentially weighted windows over recently observed ACTUAL execution
  // outcomes of one UDF — not model re-estimates. This is what the estimate
  // audit compares plan estimates against: a converged model's re-estimate
  // tracks the plan no matter what the workload does, while these windows
  // follow the executions themselves, so drift stays visible after millions
  // of stable observations (see docs/drift.md).
  struct WindowedActuals {
    // Per-call cost in nominal microseconds (CPU + IO combined, the same
    // unit PredictCostMicros reports), on two horizons.
    double fast_cost_micros = 0.0;
    double slow_cost_micros = 0.0;
    // Pass fraction on the same two horizons.
    double fast_selectivity = 0.0;
    double slow_selectivity = 0.0;
    // Executions folded in (0 = no feedback yet, windows meaningless).
    int64_t observations = 0;
  };

  // EWMA weights for WindowedActuals: the fast window reacts within ~5
  // observations, the slow window remembers the last ~50.
  static constexpr double kFastAlpha = 0.2;
  static constexpr double kSlowAlpha = 0.02;

  // One registered UDF. The Entry object itself (the "shell") lives as long
  // as the catalog: eviction destroys only its three models, so a pointer or
  // reference to an Entry never dangles. Its models are non-null exactly
  // while `resident` is set.
  //
  // The fields every serving call touches (key, models, traffic, pin,
  // residency) come first and the entry is cache-line aligned, so a warm
  // lookup reads one line of the shell.
  struct alignas(64) Entry {
    CostedUdf* udf;
    std::unique_ptr<CostModel> cpu_model;
    std::unique_ptr<CostModel> io_model;
    std::unique_ptr<CostModel> selectivity_model;
    // Predictions served through this entry since registration — the
    // governor's traffic / LRU-by-traffic signal. Relaxed: an approximate
    // count read racily by the governor is exactly what is needed. Kept
    // across eviction and reload.
    mutable std::atomic<int64_t> traffic{0};
    // Serving calls in flight on this entry's models (see Pin in
    // cost_catalog.cc). EvictEntry waits for it to drain before it destroys
    // the models.
    mutable std::atomic<int64_t> pins{0};
    // Set once the models are built; cleared by EvictEntry before it waits
    // for pins, set again by the reload. Written under entries_mutex_.
    std::atomic<bool> resident{false};
    // Owning tenant id (multi-tenant quota accounting; "default" unless
    // the UDF was registered through the tenant-qualified For overload).
    std::string tenant;
    // Entry-level byte budget currently granted (split evenly across the
    // three models by SetEntryByteBudget). Guarded by entries_mutex_ in
    // the concurrent modes.
    int64_t budget_bytes = 0;
    // Windowed actual-outcome tracking plus the per-model drift detectors,
    // updated on the feedback path. Guarded by windowed_mutex; kept across
    // eviction and reload. Lock order: entries_mutex_ (when held at all)
    // before windowed_mutex; nothing may take entries_mutex_ while holding
    // a windowed_mutex.
    mutable std::mutex windowed_mutex;
    WindowedActuals windowed;
    DriftDetector cost_detector;
    DriftDetector selectivity_detector;
  };

  // One execution outcome, buffered by the batched executor path and
  // delivered through RecordExecutionBatch.
  struct ExecutionRecord {
    Point model_point;
    UdfCost cost;
    bool passed = false;
  };

  // Result of one maintenance epoch (a CompactArenas run of bounded steps),
  // summed over all of the catalog's shared arenas.
  struct ArenaMaintenanceStats {
    int64_t physical_bytes_before = 0;
    int64_t physical_bytes_after = 0;
    int64_t bytes_reclaimed = 0;
    int64_t blocks_moved = 0;
    int arenas_compacted = 0;
    // Quiesce windows taken (>= 1; 1 when one step converged).
    int steps = 0;
    // Longest / cumulative single quiesce window (locks held) in micros —
    // the serving pause the epoch imposed.
    int64_t max_pause_us = 0;
    int64_t total_pause_us = 0;
  };

  // Observable maintenance signals aggregated over the catalog's arenas;
  // what a MaintenanceScheduler policy decides from.
  struct ArenaSignals {
    // Tree compressions recorded by any model in any shared arena since the
    // catalog was created (monotonic).
    int64_t tree_compressions = 0;
    // Worst (highest) reclaimable slot fraction across arenas, in [0, 1].
    double max_fragmentation = 0.0;
    // Live (occupied) node slots across arenas; a cheap change detector.
    int64_t live_nodes = 0;
    // Bytes an unbounded compaction would return across arenas (whole
    // slabs past each arena's dense extent; SharedNodeArena::
    // ReclaimableBytes). 0 means an epoch could move blocks but free
    // nothing, so the scheduler does not quiesce for one.
    int64_t reclaimable_bytes = 0;
  };

  // `memory_limit_bytes` is the per-model budget (the paper's 1.8 KB each).
  // `num_shards` only applies to CatalogConcurrency::kSharded.
  explicit CostCatalog(
      int64_t memory_limit_bytes = 1800,
      CatalogConcurrency concurrency = CatalogConcurrency::kSingleThread,
      int num_shards = 4);

  CostCatalog(const CostCatalog&) = delete;
  CostCatalog& operator=(const CostCatalog&) = delete;

  // Lazily creates the entry for a UDF (tenant "default"), or — when the
  // UDF was evicted by the governor — restores its models from the
  // snapshot. A resident entry is found without taking a lock; creation and
  // reload take entries_mutex_. Thread-safe in the concurrent modes. The
  // returned shell lives as long as the catalog, but the reference does not
  // pin it: its models may be evicted while the caller holds it. The
  // serving calls below pin their entry instead.
  Entry& For(CostedUdf* udf);
  // Same, registering the UDF under an explicit tenant id. The tenant is
  // fixed at first registration; later calls (with any tenant) return the
  // existing entry unchanged.
  Entry& For(CostedUdf* udf, std::string_view tenant);
  // Lock-free read-only lookup; nullptr if the UDF has never been
  // registered or is currently evicted (Find never triggers a reload). Like
  // For, the result is not pinned.
  const Entry* Find(const CostedUdf* udf) const;

  // Records one execution outcome for the UDF at the given model point.
  void RecordExecution(CostedUdf* udf, const Point& model_point,
                       const UdfCost& cost, bool passed);

  // Batched feedback: applies every record to the UDF's three models with
  // one ObserveBatch call each (one lock round-trip per model in the
  // concurrent modes) instead of three virtual dispatches per record. The
  // per-model insert sequences — hence the trees — are identical to calling
  // RecordExecution in a loop.
  void RecordExecutionBatch(CostedUdf* udf,
                            std::span<const ExecutionRecord> records);

  // Predicted per-call cost in nominal microseconds (CPU + IO combined).
  double PredictCostMicros(CostedUdf* udf, const Point& model_point);

  // Predicted pass probability in [0.01, 1] (clamped away from 0 so plan
  // cost formulas stay finite); 0.5 when nothing is known yet.
  double PredictSelectivity(CostedUdf* udf, const Point& model_point);

  // Batched predictors in the Prediction currency, the form the
  // optimizer, the join enumerator, the audit and the batched executor
  // use: out[i] is the estimate at model_points[i]. One entry lookup and
  // one batched model call per underlying model instead of 2-3 virtual
  // dispatches (plus, in the concurrent modes, lock round-trips) per point.
  // Each out[i].value is bit-identical to the scalar call above (same
  // model probes, same arithmetic); the other fields carry per-point
  // uncertainty for risk-aware planning:
  //   * cost: CPU and IO estimates combine as independent scaled terms —
  //     value = cpu*kMicrosPerWorkUnit + io*kMicrosPerPageMiss, stddev is
  //     the root-sum-square of the scaled stddevs, count and depth are the
  //     weaker support, reliable requires both. When the fast and slow
  //     windows of OBSERVED costs disagree strongly (the workload is
  //     moving), in-node variance understates true uncertainty, so the
  //     windowed disagreement is folded into stddev and `reliable` is
  //     dropped.
  //   * selectivity: the unknown-UDF fallback reports the max-uncertainty
  //     prior {0.5, stddev 0.5, count 0, unreliable}.
  void PredictCostBatch(CostedUdf* udf, std::span<const Point> model_points,
                        std::span<Prediction> out);
  void PredictSelectivityBatch(CostedUdf* udf,
                               std::span<const Point> model_points,
                               std::span<Prediction> out);

  // Snapshot of the windowed actual-outcome EWMAs for `udf` (all zeros when
  // the UDF is unknown or has never executed).
  WindowedActuals ReadWindowedActuals(const CostedUdf* udf) const;

  // Decay policy for the catalog's models: entries created AFTER this call
  // build their trees with the given summary half-life (in decay epochs;
  // 0 disables — the default, matching the paper's unbounded-memory-of-the-
  // past summaries). Set it before the first For() on a UDF; existing
  // entries keep the config they were built with.
  void SetModelDecayHalfLife(double half_life);
  double model_decay_half_life() const;

  // Advances every model's summary-decay clock by `epochs`. Called by the
  // maintenance scheduler: one epoch per steady-state interval, a burst
  // after the drift detector fires. No-op for decay-off models.
  void AdvanceDecayEpochs(int64_t epochs);

  // Worst drift-detector staleness (fast/slow windowed-error ratio) across
  // all entries; 1.0 when stable or when no entry has data.
  double MaxModelStaleness() const;

  // Applies any queued feedback in every model (kSharded); no-op in the
  // synchronous modes.
  void FlushFeedback();

  // The shared arena all models over a `dims`-dimensional space allocate
  // from (fanout 2^dims). Lazily created; stable for the catalog's life.
  // Exposed so callers can hand the same slabs to models they build
  // outside the catalog (e.g. PartitionedCostModel sub-models).
  std::shared_ptr<SharedNodeArena> ArenaForDims(int dims);

  // One bounded compaction step: flush feedback, quiesce every model, and
  // run SharedNodeArena::CompactStep(budget_slots) on every shared arena,
  // then release all locks. Serving proceeds between steps. Accumulates
  // into *stats (steps, pauses, blocks moved, bytes reclaimed). Returns
  // true once every arena is fully dense; predictions and serialized trees
  // never change.
  bool CompactArenasStep(int64_t budget_slots, ArenaMaintenanceStats* stats);

  // A maintenance epoch: loops CompactArenasStep until every arena is
  // dense, releasing every lock between steps so traffic interleaves with
  // maintenance, and returns what was reclaimed. A budget of
  // std::numeric_limits<int64_t>::max() compacts in one quiesce window.
  ArenaMaintenanceStats CompactArenas(int64_t budget_slots);

  // Snapshot of the scheduler-facing maintenance signals.
  ArenaSignals ReadArenaSignals() const;

  // Per-entry health snapshot for the telemetry exporter and the governor:
  // footprint (bytes, nodes over all three models), windowed NAE (normalized
  // fast-vs-slow deviation of the WindowedActuals cost windows),
  // staleness (worst detector fast/slow ratio), the entry's arena
  // fragmentation, and the derived accuracy-per-byte score. One vector
  // element per resident entry, in registration order. Takes
  // entries_mutex_ and each entry's windowed_mutex but no model or shard
  // lock: footprints are the models' lock-free published sizes, so the
  // scan never waits on a serving or quiesced model. Intended as the
  // exporter's health provider:
  //   exporter.SetHealthProvider([&] { return catalog.ReadModelHealth(); });
  std::vector<obs::ModelHealth> ReadModelHealth() const;

  // Same snapshot, additionally filling `udfs` (when non-null) with the
  // matching CostedUdf handle per element — one consistent pass under the
  // catalog lock, so the governor can act on exactly the entries it
  // scored (a plain ReadModelHealth + name lookup would race with
  // registration and be O(n^2) at catalog scale).
  std::vector<obs::ModelHealth> ReadModelHealth(
      std::vector<CostedUdf*>* udfs) const;

  // --- Governor hooks (catalog-level budget redistribution) ---------------

  // Re-targets one entry's TOTAL byte budget: each of the entry's three
  // models is resized to max(entry_bytes / 3, kNodeBaseBytes), triggering
  // an eviction-compression pass when shrinking. Returns false when the
  // UDF has no resident entry. Thread-safe in the concurrent modes (same
  // lock order as the maintenance epochs: entries_mutex_, then the models'
  // own synchronization).
  bool SetEntryByteBudget(CostedUdf* udf, int64_t entry_bytes);

  // Evicts a whole resident entry: unpublishes it so new serving calls take
  // the locked reload path, waits for the serving calls already pinning it
  // to finish, flushes its queued feedback, serializes its three trees
  // (serialization v2/v3) into the in-memory snapshot store, and destroys
  // the models. The entry's tenant, traffic, budget and windowed/drift
  // state stay in its shell. The next serving call or For() on the UDF
  // restores it with bit-identical predictions. Returns false for
  // unknown/already-evicted UDFs and in kSharded mode (shard trees don't
  // round-trip through a single serialized image).
  bool EvictEntry(CostedUdf* udf);

  // Entries currently parked in the snapshot store.
  int evicted_count() const;

  // Sum of serialized snapshot bytes currently parked in the store.
  int64_t evicted_snapshot_bytes() const;

  // Safe point for autonomous maintenance: forwards to the registered
  // scheduler's Tick(), unless a maintenance epoch (or feedback flush) is
  // already running on this thread or another — then it returns
  // immediately (skipping a tick is always safe; re-entering would
  // deadlock on entries_mutex_). Called by the batched executor at block
  // boundaries and by ShardedCostModel's post-drain hook.
  void MaintenanceTick();

  // Registers (or, with nullptr, unregisters) the scheduler MaintenanceTick
  // forwards to. The scheduler must outlive all ticks: unregister (or
  // destroy the scheduler, which unregisters itself) only after serving
  // traffic has quiesced.
  void SetMaintenanceScheduler(MaintenanceScheduler* scheduler);

  // Current physical footprint of the catalog's shared arenas (slab bytes
  // actually allocated — distinct from the per-model logical budgets).
  int64_t ArenaPhysicalBytes() const;

  // Resident entries (evicted ones are not counted).
  int size() const;
  int64_t memory_limit_bytes() const { return memory_limit_bytes_; }
  CatalogConcurrency concurrency() const { return concurrency_; }

 private:
  // The serialized trees of an evicted entry (everything else stays in its
  // shell). Keyed by CostedUdf pointer in evicted_.
  struct EvictedEntry {
    std::vector<uint8_t> cpu_image;
    std::vector<uint8_t> io_image;
    std::vector<uint8_t> selectivity_image;

    int64_t ImageBytes() const {
      return static_cast<int64_t>(cpu_image.size() + io_image.size() +
                                  selectivity_image.size());
    }
  };

  // One open-addressed (udf -> entry shell) lookup table: a power-of-two
  // slot array probed linearly from the Fibonacci hash of the UDF pointer.
  // Slots are only ever filled (shells are never removed), a slot's entry
  // is stored before its key, and the table is kept at most half full, so
  // a lock-free probe always ends at its key or at an empty slot.
  struct EntryTable {
    struct Slot {
      std::atomic<const CostedUdf*> udf{nullptr};
      std::atomic<Entry*> entry{nullptr};
    };
    explicit EntryTable(int log2_slots);
    size_t SlotOf(const CostedUdf* udf) const;
    // Writers only (entries_mutex_ held): fills the first free slot.
    void Insert(Entry* entry);

    int shift;    // 64 - log2(slots): the hash keeps the product's top bits.
    size_t mask;  // slots - 1.
    std::unique_ptr<Slot[]> slots;
  };

  // An entry pinned for the duration of one serving call (see Pin).
  class PinnedEntry {
   public:
    explicit PinnedEntry(Entry& entry) : entry_(entry) {}
    ~PinnedEntry() { entry_.pins.fetch_sub(1, std::memory_order_release); }
    PinnedEntry(const PinnedEntry&) = delete;
    PinnedEntry& operator=(const PinnedEntry&) = delete;
    Entry& operator*() const { return entry_; }
    Entry* operator->() const { return &entry_; }

   private:
    Entry& entry_;
  };

  // Lock-free probe of the published table; nullptr when the UDF has no
  // shell (in the table this thread can see — callers fall back to the
  // locked path, which re-probes the current one).
  Entry* Lookup(const CostedUdf* udf) const;

  // The serving calls' entry access: a resident entry is pinned without a
  // lock; an unknown or evicted one is created or reloaded under
  // entries_mutex_ and pinned before the lock is released.
  PinnedEntry Pin(CostedUdf* udf);

  // Adds a new shell to entries_ and to the lookup table, doubling the
  // table first when it would become more than half full. Caller holds
  // entries_mutex_ in the concurrent modes.
  void PublishLocked(std::unique_ptr<Entry> entry);

  // Calls fn(Entry&) for every resident entry in registration order.
  // Caller holds entries_mutex_ in the concurrent modes.
  template <typename Fn>
  void ForEachResidentLocked(Fn&& fn) const {
    for (const auto& entry : entries_) {
      if (entry->resident.load(std::memory_order_relaxed)) fn(*entry);
    }
  }

  // Takes every resident model's maintenance lock(s) so no prediction or
  // drain can observe a node mid-move; they release together when the
  // returned vector dies. Caller holds entries_mutex_ in the concurrent
  // modes.
  std::vector<std::unique_lock<std::mutex>> LockModelsLocked();

  // Wraps a freshly configured MLQ model according to concurrency_.
  std::unique_ptr<CostModel> MakeModel(const Box& space, int64_t beta);

  // Rebuilds one model from a serialized tree image (reload path); null on
  // malformed input. Caller holds entries_mutex_ in the concurrent modes.
  std::unique_ptr<CostModel> MakeModelFromImage(
      const std::vector<uint8_t>& image, int dims);

  // The bare quadtree model behind `model` under concurrency_ (the catalog
  // built every model, so the wrapping is known). Null in kSharded mode.
  const MlqModel* BareModel(const CostModel* model) const;

  // For(udf, tenant) body with entries_mutex_ already held as required.
  Entry& ForLocked(CostedUdf* udf, std::string_view tenant);

  // Folds one execution outcome into the entry's windowed EWMAs and feeds
  // the drift detectors. Takes entry.windowed_mutex; returns the worst
  // drift classification this outcome triggered.
  DriftKind UpdateWindowed(Entry& entry, const UdfCost& cost, bool passed);

  // Cross-check input for PredictCostBatch: how far the entry's fast and
  // slow windowed-actual cost EWMAs disagree (in micros), or 0 when the
  // windows agree / lack support. Takes entry.windowed_mutex briefly, once
  // per batch, not per point.
  double WindowedCostDisagreement(const Entry& entry) const;

  // Forwards a non-kNone detector verdict to the registered scheduler.
  // Must be called with no catalog or entry lock held.
  void NotifyDriftDetected(DriftKind kind);

  // ArenaForDims body with entries_mutex_ already held (concurrent modes).
  std::shared_ptr<SharedNodeArena>& ArenaForDimsLocked(int dims);

  // Flushes one entry's three models (any queued feedback applied inline).
  static void FlushEntry(Entry& entry);

  // Builds a resident entry's models: from the UDF's snapshot when it has
  // one (reload), fresh otherwise. Caller holds entries_mutex_.
  void BuildModelsLocked(Entry& entry);

  // Marks a maintenance epoch / feedback flush as running for the guarded
  // scope so MaintenanceTick() backs off instead of re-entering
  // entries_mutex_ from inside one.
  class BusyScope;

  int64_t memory_limit_bytes_;
  CatalogConcurrency concurrency_;
  int num_shards_;
  // Summary half-life applied to models created from now on (guarded by
  // entries_mutex_ in the concurrent modes, like entries_).
  double model_decay_half_life_ = 0.0;
  // Serializes registration, reload, eviction, budget changes and the
  // catalog-wide walks (maintenance epochs, health reads) in the concurrent
  // modes; guards entries_, resident_count_, tables_, evicted_ and
  // arenas_. Lookups of resident entries never take it. The models carry
  // their own synchronization.
  mutable std::mutex entries_mutex_;
  // Every entry shell ever registered, in registration order. Shells are
  // never removed, so Entry pointers stay valid for the catalog's life.
  std::vector<std::unique_ptr<Entry>> entries_;
  int resident_count_ = 0;
  // Lookup tables, smallest first. The last one is current and published
  // through table_ (release store; readers acquire). Tables retired by
  // doubling stay allocated until the catalog is destroyed — a reader may
  // still be probing one — and together stay smaller than the current one.
  std::vector<std::unique_ptr<EntryTable>> tables_;
  std::atomic<const EntryTable*> table_{nullptr};
  // Snapshot store for governor-evicted entries (guarded by entries_mutex_
  // in the concurrent modes). In-memory: the serialized images ARE the
  // catalog-persistence format, so spilling them to files is a plain
  // write; the store keeps the round-trip testable without filesystem
  // dependencies.
  std::map<const CostedUdf*, EvictedEntry> evicted_;
  // One shared arena per node fanout (= 2^dims): every model whose space
  // has the same dimensionality draws physical slabs from the same arena,
  // while each tree keeps its own logical byte budget.
  std::map<int, std::shared_ptr<SharedNodeArena>> arenas_;
  // Scheduler MaintenanceTick() forwards to; nullptr when none registered.
  std::atomic<MaintenanceScheduler*> scheduler_{nullptr};
  // > 0 while a maintenance epoch or feedback flush is in flight anywhere;
  // MaintenanceTick() treats that as "not a safe point" and returns.
  std::atomic<int> maintenance_busy_{0};
};

}  // namespace mlq

#endif  // MLQ_ENGINE_COST_CATALOG_H_

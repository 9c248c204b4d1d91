#include "engine/cost_catalog.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

#include "common/timer.h"
#include "engine/maintenance_scheduler.h"
#include "model/concurrent_model.h"
#include "model/mlq_model.h"
#include "model/serialization.h"
#include "model/sharded_model.h"
#include "obs/obs.h"

namespace mlq {
namespace {

// The paper's tuning (Section 5.1) with the beta appropriate to what the
// model predicts: 1 for deterministic CPU costs, 10 for cache-noisy IO
// costs, 5 for Bernoulli-noisy pass outcomes.
MlqConfig CatalogModelConfig(int64_t memory_limit_bytes, int64_t beta) {
  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.max_depth = 6;
  config.alpha = 0.05;
  config.gamma = 0.001;
  config.beta = beta;
  config.memory_limit_bytes = memory_limit_bytes;
  return config;
}

}  // namespace

// RAII marker for "a maintenance epoch or feedback flush is running".
// MaintenanceTick() checks the counter and backs off, which (a) prevents a
// sharded model's post-drain hook — fired while an epoch's flush drains its
// queues — from re-entering entries_mutex_, and (b) keeps other threads'
// ticks from piling onto an epoch already in flight.
class CostCatalog::BusyScope {
 public:
  explicit BusyScope(CostCatalog& catalog) : catalog_(catalog) {
    catalog_.maintenance_busy_.fetch_add(1, std::memory_order_relaxed);
  }
  ~BusyScope() {
    catalog_.maintenance_busy_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  CostCatalog& catalog_;
};

CostCatalog::CostCatalog(int64_t memory_limit_bytes,
                         CatalogConcurrency concurrency, int num_shards)
    : memory_limit_bytes_(memory_limit_bytes),
      concurrency_(concurrency),
      num_shards_(std::max(num_shards, 1)) {
  tables_.push_back(std::make_unique<EntryTable>(/*log2_slots=*/3));
  table_.store(tables_.back().get(), std::memory_order_release);
}

CostCatalog::EntryTable::EntryTable(int log2_slots)
    : shift(64 - log2_slots),
      mask((size_t{1} << log2_slots) - 1),
      slots(new Slot[size_t{1} << log2_slots]) {}

size_t CostCatalog::EntryTable::SlotOf(const CostedUdf* udf) const {
  // Fibonacci hashing: multiply by 2^64 / phi and keep the top bits, which
  // mixes every bit of the (aligned) pointer without a division.
  const auto key = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(udf));
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

void CostCatalog::EntryTable::Insert(Entry* entry) {
  size_t i = SlotOf(entry->udf);
  while (slots[i].udf.load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & mask;
  }
  // Entry before key: a reader that acquires the key sees the entry (and
  // everything written to the shell before it was published).
  slots[i].entry.store(entry, std::memory_order_relaxed);
  slots[i].udf.store(entry->udf, std::memory_order_release);
}

CostCatalog::Entry* CostCatalog::Lookup(const CostedUdf* udf) const {
  const EntryTable* table = table_.load(std::memory_order_acquire);
  for (size_t i = table->SlotOf(udf);; i = (i + 1) & table->mask) {
    const CostedUdf* key = table->slots[i].udf.load(std::memory_order_acquire);
    if (key == udf) return table->slots[i].entry.load(std::memory_order_relaxed);
    if (key == nullptr) return nullptr;
  }
}

void CostCatalog::PublishLocked(std::unique_ptr<Entry> entry) {
  const EntryTable& current = *tables_.back();
  if ((entries_.size() + 1) * 2 > current.mask + 1) {
    // Twice the slots: log2(slots) is 64 - shift.
    auto grown = std::make_unique<EntryTable>(64 - current.shift + 1);
    for (const auto& e : entries_) grown->Insert(e.get());
    table_.store(grown.get(), std::memory_order_release);
    tables_.push_back(std::move(grown));
  }
  tables_.back()->Insert(entry.get());
  entries_.push_back(std::move(entry));
}

std::unique_ptr<CostModel> CostCatalog::MakeModel(const Box& space,
                                                  int64_t beta) {
  MlqConfig config = CatalogModelConfig(memory_limit_bytes_, beta);
  config.decay_half_life = model_decay_half_life_;
  std::shared_ptr<SharedNodeArena> arena = ArenaForDimsLocked(space.dims());
  switch (concurrency_) {
    case CatalogConcurrency::kSingleThread:
      return std::make_unique<MlqModel>(space, config, std::move(arena));
    case CatalogConcurrency::kGlobalMutex:
      return std::make_unique<ConcurrentCostModel>(
          std::make_unique<MlqModel>(space, config, std::move(arena)));
    case CatalogConcurrency::kSharded: {
      ShardedModelOptions options;
      options.num_shards = num_shards_;
      options.arena = std::move(arena);
      // Every completed feedback drain is a safe point for autonomous
      // arena maintenance. The hook fires with no shard lock held and
      // never from Flush(), so epochs (which flush) cannot recurse; it is
      // safe for the catalog's whole life because ~ShardedCostModel only
      // flushes. MaintenanceTick additionally backs off while an epoch or
      // FlushFeedback is already on the stack.
      options.post_drain_hook = [this] { MaintenanceTick(); };
      return std::make_unique<ShardedCostModel>(space, config, options);
    }
  }
  return nullptr;  // Unreachable.
}

std::unique_ptr<CostModel> CostCatalog::MakeModelFromImage(
    const std::vector<uint8_t>& image, int dims) {
  std::string error;
  std::unique_ptr<MemoryLimitedQuadtree> tree =
      DeserializeQuadtree(image, ArenaForDimsLocked(dims), &error);
  if (tree == nullptr) return nullptr;
  auto model = std::make_unique<MlqModel>(std::move(tree));
  switch (concurrency_) {
    case CatalogConcurrency::kSingleThread:
      return model;
    case CatalogConcurrency::kGlobalMutex:
      return std::make_unique<ConcurrentCostModel>(std::move(model));
    case CatalogConcurrency::kSharded:
      // Sharded entries are never evicted (EvictEntry refuses), so there
      // is nothing to reload.
      return nullptr;
  }
  return nullptr;  // Unreachable.
}

const MlqModel* CostCatalog::BareModel(const CostModel* model) const {
  switch (concurrency_) {
    case CatalogConcurrency::kSingleThread:
      return static_cast<const MlqModel*>(model);
    case CatalogConcurrency::kGlobalMutex:
      return static_cast<const MlqModel*>(
          &const_cast<ConcurrentCostModel*>(
               static_cast<const ConcurrentCostModel*>(model))
               ->inner());
    case CatalogConcurrency::kSharded:
      return nullptr;
  }
  return nullptr;  // Unreachable.
}

std::shared_ptr<SharedNodeArena>& CostCatalog::ArenaForDimsLocked(int dims) {
  const int fanout = 1 << dims;
  std::shared_ptr<SharedNodeArena>& arena = arenas_[fanout];
  if (arena == nullptr) arena = std::make_shared<SharedNodeArena>(fanout);
  return arena;
}

std::shared_ptr<SharedNodeArena> CostCatalog::ArenaForDims(int dims) {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return ArenaForDimsLocked(dims);
}

CostCatalog::Entry& CostCatalog::For(CostedUdf* udf) {
  return For(udf, "default");
}

CostCatalog::Entry& CostCatalog::For(CostedUdf* udf, std::string_view tenant) {
  assert(udf != nullptr);
  Entry* entry = Lookup(udf);
  if (entry != nullptr && entry->resident.load(std::memory_order_acquire)) {
    return *entry;
  }
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return ForLocked(udf, tenant);
}

// Pin protocol. A reader increments `pins` and then reads `resident`; the
// evictor clears `resident` and then reads `pins`. All four accesses are
// seq_cst, so at least one side sees the other: either the reader sees the
// flag cleared (and backs off to the locked path) or the evictor sees the
// pin (and waits for it). The shell itself is never freed, so a pin on an
// entry that is being evicted touches valid memory.
CostCatalog::PinnedEntry CostCatalog::Pin(CostedUdf* udf) {
  assert(udf != nullptr);
  if (Entry* entry = Lookup(udf); entry != nullptr) {
    entry->pins.fetch_add(1, std::memory_order_seq_cst);
    if (entry->resident.load(std::memory_order_seq_cst)) {
      return PinnedEntry(*entry);
    }
    entry->pins.fetch_sub(1, std::memory_order_release);
  }
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  Entry& entry = ForLocked(udf, "default");
  // Eviction needs entries_mutex_, so it cannot start before this pin.
  entry.pins.fetch_add(1, std::memory_order_relaxed);
  return PinnedEntry(entry);
}

CostCatalog::Entry& CostCatalog::ForLocked(CostedUdf* udf,
                                           std::string_view tenant) {
  Entry* entry = Lookup(udf);
  if (entry == nullptr) {
    auto shell = std::make_unique<Entry>();
    shell->udf = udf;
    shell->tenant = std::string(tenant);
    entry = shell.get();
    PublishLocked(std::move(shell));
  } else if (entry->resident.load(std::memory_order_relaxed)) {
    return *entry;
  }
  BuildModelsLocked(*entry);
  ++resident_count_;
  // Publishes the models: a reader that sees the flag set sees them.
  entry->resident.store(true, std::memory_order_seq_cst);
  return *entry;
}

void CostCatalog::BuildModelsLocked(Entry& entry) {
  CostedUdf* udf = entry.udf;
  const Box space = udf->model_space();

  // Reload path: the governor evicted this UDF; rebuild its models from the
  // serialized snapshot so predictions resume bit-identically.
  if (const auto it = evicted_.find(udf); it != evicted_.end()) {
    const EvictedEntry& snap = it->second;
    auto cpu = MakeModelFromImage(snap.cpu_image, space.dims());
    auto io = MakeModelFromImage(snap.io_image, space.dims());
    auto sel = MakeModelFromImage(snap.selectivity_image, space.dims());
    const double image_bytes = static_cast<double>(snap.ImageBytes());
    evicted_.erase(it);
    if (cpu != nullptr && io != nullptr && sel != nullptr) {
      entry.cpu_model = std::move(cpu);
      entry.io_model = std::move(io);
      entry.selectivity_model = std::move(sel);
      if (obs::Enabled()) {
        obs::Core().governor_reloads.Inc();
        obs::GlobalEventLog().Append(obs::EventKind::kModelReload,
                                     udf->name(), image_bytes);
      }
      return;
    }
    // A malformed snapshot falls through to fresh models: serving
    // correctness beats preserving a corrupt image.
  }

  entry.cpu_model = MakeModel(space, /*beta=*/1);
  entry.io_model = MakeModel(space, /*beta=*/10);
  entry.selectivity_model = MakeModel(space, /*beta=*/5);
  entry.budget_bytes = 3 * memory_limit_bytes_;
  obs::GlobalEventLog().Append(obs::EventKind::kModelLoad, udf->name(),
                               static_cast<double>(memory_limit_bytes_));
}

const CostCatalog::Entry* CostCatalog::Find(const CostedUdf* udf) const {
  const Entry* entry = Lookup(udf);
  if (entry == nullptr || !entry->resident.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return entry;
}

void CostCatalog::RecordExecution(CostedUdf* udf, const Point& model_point,
                                  const UdfCost& cost, bool passed) {
  DriftKind drift = DriftKind::kNone;
  {
    const PinnedEntry entry = Pin(udf);
    entry->cpu_model->Observe(model_point, cost.cpu_work);
    entry->io_model->Observe(model_point, cost.io_pages);
    entry->selectivity_model->Observe(model_point, passed ? 1.0 : 0.0);
    drift = UpdateWindowed(*entry, cost, passed);
  }
  if (obs::Enabled()) obs::Core().catalog_feedback.Inc();
  // Unpinned first: the drift burst takes entries_mutex_, which an evictor
  // may hold while it waits for this entry's pins.
  if (drift != DriftKind::kNone) NotifyDriftDetected(drift);
}

void CostCatalog::RecordExecutionBatch(
    CostedUdf* udf, std::span<const ExecutionRecord> records) {
  if (records.empty()) return;
  // Three parallel observation vectors, one per model; insert order within
  // each model matches a RecordExecution loop exactly.
  std::vector<Observation> cpu;
  std::vector<Observation> io;
  std::vector<Observation> selectivity;
  cpu.reserve(records.size());
  io.reserve(records.size());
  selectivity.reserve(records.size());
  for (const ExecutionRecord& r : records) {
    cpu.push_back({r.model_point, r.cost.cpu_work});
    io.push_back({r.model_point, r.cost.io_pages});
    selectivity.push_back({r.model_point, r.passed ? 1.0 : 0.0});
  }
  // Fold the windowed EWMAs in record order; keep only the worst verdict
  // and notify once per batch, after the entry is unpinned.
  DriftKind worst = DriftKind::kNone;
  {
    const PinnedEntry entry = Pin(udf);
    entry->cpu_model->ObserveBatch(cpu);
    entry->io_model->ObserveBatch(io);
    entry->selectivity_model->ObserveBatch(selectivity);
    for (const ExecutionRecord& r : records) {
      const DriftKind drift = UpdateWindowed(*entry, r.cost, r.passed);
      if (static_cast<int>(drift) > static_cast<int>(worst)) worst = drift;
    }
  }
  if (obs::Enabled()) {
    obs::Core().catalog_feedback.Inc(static_cast<int64_t>(records.size()));
  }
  if (worst != DriftKind::kNone) NotifyDriftDetected(worst);
}

CostCatalog::WindowedActuals CostCatalog::ReadWindowedActuals(
    const CostedUdf* udf) const {
  const Entry* entry = Find(udf);
  if (entry == nullptr) return {};
  std::lock_guard<std::mutex> lock(entry->windowed_mutex);
  return entry->windowed;
}

DriftKind CostCatalog::UpdateWindowed(Entry& entry, const UdfCost& cost,
                                      bool passed) {
  const double cost_micros = cost.cpu_work * kMicrosPerWorkUnit +
                             cost.io_pages * kMicrosPerPageMiss;
  const double selectivity = passed ? 1.0 : 0.0;
  std::lock_guard<std::mutex> lock(entry.windowed_mutex);
  WindowedActuals& w = entry.windowed;
  // The detectors judge each sample against the PRE-update slow baseline:
  // once the baseline has folded the sample in, a step change would be
  // partially absorbed before it is measured.
  DriftKind cost_drift = DriftKind::kNone;
  DriftKind selectivity_drift = DriftKind::kNone;
  if (w.observations == 0) {
    w.fast_cost_micros = w.slow_cost_micros = cost_micros;
    w.fast_selectivity = w.slow_selectivity = selectivity;
  } else {
    cost_drift = entry.cost_detector.Observe(w.slow_cost_micros, cost_micros);
    // Pass outcomes are 0/1 Bernoulli samples: a relative error against a 0
    // sample explodes, so the selectivity detector judges the absolute
    // deviation from the baseline pass rate (already in [0, 1]).
    selectivity_drift = entry.selectivity_detector.ObserveError(
        std::abs(w.slow_selectivity - selectivity));
    if (cost_drift != DriftKind::kNone) {
      obs::GlobalEventLog().Append(
          obs::EventKind::kDriftFired, entry.udf->name(),
          static_cast<double>(cost_drift),
          entry.cost_detector.last_fire_ratio(),
          static_cast<double>(entry.cost_detector.observations()));
    }
    if (selectivity_drift != DriftKind::kNone) {
      obs::GlobalEventLog().Append(
          obs::EventKind::kDriftFired, entry.udf->name(),
          static_cast<double>(selectivity_drift),
          entry.selectivity_detector.last_fire_ratio(),
          static_cast<double>(entry.selectivity_detector.observations()));
    }
    w.fast_cost_micros += kFastAlpha * (cost_micros - w.fast_cost_micros);
    w.slow_cost_micros += kSlowAlpha * (cost_micros - w.slow_cost_micros);
    w.fast_selectivity += kFastAlpha * (selectivity - w.fast_selectivity);
    w.slow_selectivity += kSlowAlpha * (selectivity - w.slow_selectivity);
  }
  ++w.observations;
  return static_cast<int>(cost_drift) > static_cast<int>(selectivity_drift)
             ? cost_drift
             : selectivity_drift;
}

void CostCatalog::NotifyDriftDetected(DriftKind kind) {
  MaintenanceScheduler* scheduler = scheduler_.load(std::memory_order_acquire);
  if (scheduler != nullptr) scheduler->NotifyDrift(kind);
}

void CostCatalog::SetModelDecayHalfLife(double half_life) {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  model_decay_half_life_ = half_life > 0.0 ? half_life : 0.0;
}

double CostCatalog::model_decay_half_life() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return model_decay_half_life_;
}

void CostCatalog::AdvanceDecayEpochs(int64_t epochs) {
  if (epochs <= 0) return;
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  // Same lock order as the compaction epochs: entries_mutex_, then each
  // model's own synchronization (inside AdvanceDecayEpoch).
  ForEachResidentLocked([epochs](Entry& entry) {
    entry.cpu_model->AdvanceDecayEpoch(epochs);
    entry.io_model->AdvanceDecayEpoch(epochs);
    entry.selectivity_model->AdvanceDecayEpoch(epochs);
  });
  obs::GlobalEventLog().Append(obs::EventKind::kDecayEpochs, "catalog",
                               static_cast<double>(epochs));
}

double CostCatalog::MaxModelStaleness() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  double staleness = 1.0;
  ForEachResidentLocked([&staleness](const Entry& entry) {
    std::lock_guard<std::mutex> windowed_lock(entry.windowed_mutex);
    staleness = std::max(staleness, entry.cost_detector.staleness());
    staleness = std::max(staleness, entry.selectivity_detector.staleness());
  });
  return staleness;
}

double CostCatalog::PredictCostMicros(CostedUdf* udf,
                                      const Point& model_point) {
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(1, std::memory_order_relaxed);
  return entry->cpu_model->Predict(model_point) * kMicrosPerWorkUnit +
         entry->io_model->Predict(model_point) * kMicrosPerPageMiss;
}

double CostCatalog::PredictSelectivity(CostedUdf* udf,
                                       const Point& model_point) {
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(1, std::memory_order_relaxed);
  const Prediction p = entry->selectivity_model->PredictDetailed(model_point);
  if (!p.reliable && p.count == 0) return 0.5;  // Nothing known yet.
  return std::clamp(p.value, 0.01, 1.0);
}

void CostCatalog::PredictCostMicrosBatch(CostedUdf* udf,
                                         std::span<const Point> model_points,
                                         std::span<double> out) {
  assert(model_points.size() == out.size());
  if (model_points.empty()) return;
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(static_cast<int64_t>(model_points.size()),
                          std::memory_order_relaxed);
  std::vector<Prediction> cpu(model_points.size());
  std::vector<Prediction> io(model_points.size());
  entry->cpu_model->PredictBatch(model_points, cpu);
  entry->io_model->PredictBatch(model_points, io);
  for (size_t i = 0; i < model_points.size(); ++i) {
    out[i] = cpu[i].value * kMicrosPerWorkUnit +
             io[i].value * kMicrosPerPageMiss;
  }
}

void CostCatalog::PredictSelectivityBatch(CostedUdf* udf,
                                          std::span<const Point> model_points,
                                          std::span<double> out) {
  assert(model_points.size() == out.size());
  if (model_points.empty()) return;
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(static_cast<int64_t>(model_points.size()),
                          std::memory_order_relaxed);
  std::vector<Prediction> predictions(model_points.size());
  entry->selectivity_model->PredictBatch(model_points, predictions);
  for (size_t i = 0; i < model_points.size(); ++i) {
    const Prediction& p = predictions[i];
    out[i] = (!p.reliable && p.count == 0) ? 0.5
                                           : std::clamp(p.value, 0.01, 1.0);
  }
}

namespace {

// Combines independent CPU and IO predictions into one micros-denominated
// estimate: value matches PredictCostMicros bit for bit; the stddev of a
// sum of independently scaled estimates is the root-sum-square of the
// scaled stddevs; support is the weaker of the two.
CostEstimate CombineCostStats(const Prediction& cpu, const Prediction& io) {
  CostEstimate e;
  e.value = cpu.value * kMicrosPerWorkUnit + io.value * kMicrosPerPageMiss;
  const double cs = cpu.stddev * kMicrosPerWorkUnit;
  const double is = io.stddev * kMicrosPerPageMiss;
  e.stddev = std::sqrt(cs * cs + is * is);
  e.count = std::min(cpu.count, io.count);
  e.reliable = cpu.reliable && io.reliable;
  return e;
}

// Selectivity stats with the scalar path's clamp and fallback: an unknown
// UDF answers the max-uncertainty prior (0.5 +/- 0.5, unsupported).
CostEstimate SelectivityStats(const Prediction& p) {
  if (!p.reliable && p.count == 0) return CostEstimate{0.5, 0.5, 0, false};
  return CostEstimate{std::clamp(p.value, 0.01, 1.0), p.stddev, p.count,
                      p.reliable};
}

// mlq_predict_stddev sample, in milli-units so sub-micro uncertainty does
// not all collapse into the 0 bucket of the log2 histogram.
void RecordStddevObs(const CostEstimate& e) {
  obs::Core().predict_stddev.Record(
      static_cast<int64_t>(std::llround(e.stddev * 1000.0)));
}

}  // namespace

// Windowed-actuals cross-check: estimates come from the models, but the
// entry's fast/slow EWMAs track what executions actually did. When those
// two horizons disagree by more than kWindowDisagreement the workload is
// moving faster than the model converges, so the in-node variance
// understates true uncertainty: the stats predictors fold the returned
// disagreement into the stddev (root-sum-square, treating it as an
// independent error source) and drop the reliable bit. A handful of
// observations prove nothing, so the check arms only past
// kMinWindowObservations.
double CostCatalog::WindowedCostDisagreement(const Entry& entry) const {
  constexpr int64_t kMinWindowObservations = 8;
  constexpr double kWindowDisagreement = 1.5;
  double fast = 0.0;
  double slow = 0.0;
  {
    std::lock_guard<std::mutex> lock(entry.windowed_mutex);
    if (entry.windowed.observations < kMinWindowObservations) return 0.0;
    fast = entry.windowed.fast_cost_micros;
    slow = entry.windowed.slow_cost_micros;
  }
  const double lo = std::min(fast, slow);
  const double hi = std::max(fast, slow);
  if (lo <= 0.0 || hi / lo <= kWindowDisagreement) return 0.0;
  return hi - lo;
}

CostEstimate CostCatalog::PredictCostStats(CostedUdf* udf,
                                           const Point& model_point) {
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(1, std::memory_order_relaxed);
  const Prediction cpu = entry->cpu_model->PredictDetailed(model_point);
  const Prediction io = entry->io_model->PredictDetailed(model_point);
  CostEstimate e = CombineCostStats(cpu, io);
  const double disagreement = WindowedCostDisagreement(*entry);
  if (disagreement > 0.0) {
    e.stddev = std::sqrt(e.stddev * e.stddev + disagreement * disagreement);
    e.reliable = false;
  }
  if (obs::Enabled()) RecordStddevObs(e);
  return e;
}

CostEstimate CostCatalog::PredictSelectivityStats(CostedUdf* udf,
                                                  const Point& model_point) {
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(1, std::memory_order_relaxed);
  return SelectivityStats(
      entry->selectivity_model->PredictDetailed(model_point));
}

void CostCatalog::PredictCostStatsBatch(CostedUdf* udf,
                                        std::span<const Point> model_points,
                                        std::span<CostEstimate> out) {
  assert(model_points.size() == out.size());
  if (model_points.empty()) return;
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(static_cast<int64_t>(model_points.size()),
                          std::memory_order_relaxed);
  std::vector<Prediction> cpu(model_points.size());
  std::vector<Prediction> io(model_points.size());
  entry->cpu_model->PredictBatch(model_points, cpu);
  entry->io_model->PredictBatch(model_points, io);
  const bool obs_on = obs::Enabled();
  const double disagreement = WindowedCostDisagreement(*entry);
  for (size_t i = 0; i < model_points.size(); ++i) {
    out[i] = CombineCostStats(cpu[i], io[i]);
    if (disagreement > 0.0) {
      out[i].stddev = std::sqrt(out[i].stddev * out[i].stddev +
                                disagreement * disagreement);
      out[i].reliable = false;
    }
    if (obs_on) RecordStddevObs(out[i]);
  }
}

void CostCatalog::PredictSelectivityStatsBatch(
    CostedUdf* udf, std::span<const Point> model_points,
    std::span<CostEstimate> out) {
  assert(model_points.size() == out.size());
  if (model_points.empty()) return;
  const PinnedEntry entry = Pin(udf);
  entry->traffic.fetch_add(static_cast<int64_t>(model_points.size()),
                          std::memory_order_relaxed);
  std::vector<Prediction> predictions(model_points.size());
  entry->selectivity_model->PredictBatch(model_points, predictions);
  for (size_t i = 0; i < model_points.size(); ++i) {
    out[i] = SelectivityStats(predictions[i]);
  }
}

void CostCatalog::FlushEntry(Entry& entry) {
  entry.cpu_model->Flush();
  entry.io_model->Flush();
  entry.selectivity_model->Flush();
}

void CostCatalog::FlushFeedback() {
  BusyScope busy(*this);
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  ForEachResidentLocked(FlushEntry);
  obs::GlobalEventLog().Append(obs::EventKind::kModelFlush, "catalog",
                               static_cast<double>(resident_count_));
}

std::vector<std::unique_lock<std::mutex>> CostCatalog::LockModelsLocked() {
  std::vector<std::unique_lock<std::mutex>> locks;
  ForEachResidentLocked([&locks](Entry& entry) {
    for (auto* model : {entry.cpu_model.get(), entry.io_model.get(),
                        entry.selectivity_model.get()}) {
      for (auto& l : model->LockForMaintenance()) locks.push_back(std::move(l));
    }
  });
  return locks;
}

CostCatalog::ArenaMaintenanceStats CostCatalog::CompactArenas() {
  BusyScope busy(*this);
  ArenaMaintenanceStats stats;
  // The whole epoch runs under entries_mutex_ so no new models (or arenas)
  // can appear mid-compaction. Per-entry feedback is flushed inline — NOT
  // via FlushFeedback(), which would re-take this mutex — so the trees are
  // quiescent before their node blocks move.
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  ForEachResidentLocked(FlushEntry);
  WallTimer pause;
  {
    const auto locks = LockModelsLocked();
    for (auto& [fanout, arena] : arenas_) {
      const SharedNodeArena::CompactionStats c = arena->Compact();
      stats.physical_bytes_before += c.physical_bytes_before;
      stats.physical_bytes_after += c.physical_bytes_after;
      stats.bytes_reclaimed += c.bytes_reclaimed;
      stats.blocks_moved += c.blocks_moved;
      ++stats.arenas_compacted;
    }
  }
  const auto pause_us = static_cast<int64_t>(pause.ElapsedMicros());
  stats.steps = 1;
  stats.max_pause_us = pause_us;
  stats.total_pause_us = pause_us;
  if (obs::Enabled()) {
    obs::Core().maintenance_epochs.Inc();
    obs::Core().maintenance_steps.Inc();
    obs::Core().maintenance_pause_ns.Record(pause_us * 1000);
    double max_frag = 0.0;
    for (auto& [fanout, arena] : arenas_) {
      max_frag = std::max(max_frag, arena->FragmentationRatio());
    }
    obs::Core().arena_fragmentation.Set(max_frag);
    obs::GlobalEventLog().Append(obs::EventKind::kMaintenanceEpoch, "full",
                                 /*a=*/0.0, static_cast<double>(pause_us),
                                 static_cast<double>(stats.bytes_reclaimed));
  }
  return stats;
}

bool CostCatalog::CompactArenasStep(int64_t budget_slots,
                                    ArenaMaintenanceStats* stats) {
  BusyScope busy(*this);
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  // Flush before quiescing: queued feedback holds Points, not node
  // indices, but applying it now keeps the trees identical to what a
  // stop-the-world epoch would have produced at this instant.
  ForEachResidentLocked(FlushEntry);
  WallTimer pause;
  bool all_done = true;
  double max_frag = 0.0;
  {
    const auto locks = LockModelsLocked();
    for (auto& [fanout, arena] : arenas_) {
      const SharedNodeArena::CompactStepStats c =
          arena->CompactStep(budget_slots);
      stats->blocks_moved += c.blocks_moved;
      stats->bytes_reclaimed += c.bytes_reclaimed;
      all_done = all_done && c.done;
      max_frag = std::max(max_frag, arena->FragmentationRatio());
    }
    stats->arenas_compacted = static_cast<int>(arenas_.size());
  }
  const auto pause_us = static_cast<int64_t>(pause.ElapsedMicros());
  ++stats->steps;
  stats->max_pause_us = std::max(stats->max_pause_us, pause_us);
  stats->total_pause_us += pause_us;
  if (obs::Enabled()) {
    obs::Core().maintenance_steps.Inc();
    obs::Core().maintenance_pause_ns.Record(pause_us * 1000);
    obs::Core().arena_fragmentation.Set(max_frag);
  }
  return all_done;
}

CostCatalog::ArenaMaintenanceStats CostCatalog::CompactArenasIncremental(
    int64_t budget_slots) {
  ArenaMaintenanceStats stats;
  stats.physical_bytes_before = ArenaPhysicalBytes();
  // Every lock (entries_mutex_ and all model locks) is released between
  // steps, so predictions and feedback interleave with the epoch.
  while (!CompactArenasStep(budget_slots, &stats)) {
  }
  stats.physical_bytes_after = ArenaPhysicalBytes();
  if (obs::Enabled()) {
    obs::Core().maintenance_epochs.Inc();
    obs::GlobalEventLog().Append(
        obs::EventKind::kMaintenanceEpoch, "incremental", /*a=*/1.0,
        static_cast<double>(stats.total_pause_us),
        static_cast<double>(stats.bytes_reclaimed));
  }
  return stats;
}

CostCatalog::ArenaSignals CostCatalog::ReadArenaSignals() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  ArenaSignals signals;
  for (const auto& [fanout, arena] : arenas_) {
    signals.tree_compressions += arena->tree_compressions();
    signals.max_fragmentation =
        std::max(signals.max_fragmentation, arena->FragmentationRatio());
    signals.live_nodes +=
        static_cast<int64_t>(arena->slot_count()) - arena->free_count();
  }
  return signals;
}

std::vector<obs::ModelHealth> CostCatalog::ReadModelHealth() const {
  return ReadModelHealth(nullptr);
}

std::vector<obs::ModelHealth> CostCatalog::ReadModelHealth(
    std::vector<CostedUdf*>* udfs) const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  std::vector<obs::ModelHealth> out;
  out.reserve(static_cast<size_t>(resident_count_));
  if (udfs != nullptr) {
    udfs->clear();
    udfs->reserve(static_cast<size_t>(resident_count_));
  }
  ForEachResidentLocked([&](const Entry& entry) {
    obs::ModelHealth h;
    h.model = entry.udf->name();
    h.tenant = entry.tenant;
    h.traffic = entry.traffic.load(std::memory_order_relaxed);
    h.budget_bytes = entry.budget_bytes;
    // Same lock order as the compaction epochs: entries_mutex_, then the
    // models' own synchronization (inside MemoryBytes / NodeCount).
    for (const auto* model :
         {entry.cpu_model.get(), entry.io_model.get(),
          entry.selectivity_model.get()}) {
      h.bytes += model->MemoryBytes();
      h.nodes += model->NodeCount();
    }
    {
      std::lock_guard<std::mutex> windowed_lock(entry.windowed_mutex);
      h.observations = entry.windowed.observations;
      // Normalized deviation of the fast actual-cost window from the slow
      // baseline — bounded and zero-at-stability, unlike the detector's
      // raw relative-error EWMA, which explodes on near-zero actuals.
      const double slow = std::abs(entry.windowed.slow_cost_micros);
      h.windowed_nae =
          slow > 0.0 ? std::abs(entry.windowed.fast_cost_micros -
                                entry.windowed.slow_cost_micros) /
                           slow
                     : 0.0;
      h.staleness = std::max(entry.cost_detector.staleness(),
                             entry.selectivity_detector.staleness());
    }
    const auto arena_it = arenas_.find(1 << entry.udf->model_space().dims());
    if (arena_it != arenas_.end()) {
      h.fragmentation = arena_it->second->FragmentationRatio();
    }
    h.accuracy_per_byte =
        1.0 / ((1.0 + h.windowed_nae) *
               static_cast<double>(std::max<int64_t>(h.bytes, 1)));
    if (udfs != nullptr) udfs->push_back(entry.udf);
    out.push_back(std::move(h));
  });
  return out;
}

bool CostCatalog::SetEntryByteBudget(CostedUdf* udf, int64_t entry_bytes) {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  Entry* entry = Lookup(udf);
  if (entry == nullptr || !entry->resident.load(std::memory_order_relaxed)) {
    return false;
  }
  // Even three-way split; each model keeps at least the root's charge so
  // every budget is enforceable. Same lock order as the maintenance
  // epochs: entries_mutex_, then each model's own synchronization (inside
  // SetByteBudget).
  const int64_t per_model = std::max<int64_t>(entry_bytes / 3, kNodeBaseBytes);
  entry->cpu_model->SetByteBudget(per_model);
  entry->io_model->SetByteBudget(per_model);
  entry->selectivity_model->SetByteBudget(per_model);
  entry->budget_bytes = entry_bytes;
  return true;
}

bool CostCatalog::EvictEntry(CostedUdf* udf) {
  if (concurrency_ == CatalogConcurrency::kSharded) return false;
  BusyScope busy(*this);
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  Entry* entry = Lookup(udf);
  if (entry == nullptr || !entry->resident.load(std::memory_order_relaxed)) {
    return false;
  }
  // Unpublish, then wait out the serving calls that pinned the entry before
  // they could see the flag (see Pin). New calls back off to the locked
  // path and block on entries_mutex_ until the eviction is done.
  entry->resident.store(false, std::memory_order_seq_cst);
  --resident_count_;
  while (entry->pins.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  // Queued feedback (none in the evictable modes today, but Flush is the
  // documented quiesce step) must land in the trees before they are imaged.
  FlushEntry(*entry);
  EvictedEntry snap;
  snap.cpu_image = SerializeQuadtree(BareModel(entry->cpu_model.get())->tree());
  snap.io_image = SerializeQuadtree(BareModel(entry->io_model.get())->tree());
  snap.selectivity_image =
      SerializeQuadtree(BareModel(entry->selectivity_model.get())->tree());
  if (obs::Enabled()) {
    obs::Core().governor_evictions.Inc();
    obs::GlobalEventLog().Append(
        obs::EventKind::kModelEvict, udf->name(),
        static_cast<double>(snap.ImageBytes()),
        static_cast<double>(entry->traffic.load(std::memory_order_relaxed)));
  }
  evicted_[udf] = std::move(snap);
  entry->cpu_model.reset();
  entry->io_model.reset();
  entry->selectivity_model.reset();
  return true;
}

int CostCatalog::evicted_count() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return static_cast<int>(evicted_.size());
}

int64_t CostCatalog::evicted_snapshot_bytes() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  int64_t total = 0;
  for (const auto& [udf, snap] : evicted_) total += snap.ImageBytes();
  return total;
}

void CostCatalog::MaintenanceTick() {
  if (maintenance_busy_.load(std::memory_order_relaxed) > 0) return;
  MaintenanceScheduler* scheduler = scheduler_.load(std::memory_order_acquire);
  if (scheduler != nullptr) scheduler->Tick();
}

void CostCatalog::SetMaintenanceScheduler(MaintenanceScheduler* scheduler) {
  scheduler_.store(scheduler, std::memory_order_release);
}

int64_t CostCatalog::ArenaPhysicalBytes() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  int64_t total = 0;
  for (const auto& [fanout, arena] : arenas_) {
    total += arena->PhysicalCapacityBytes();
  }
  return total;
}

int CostCatalog::size() const {
  std::unique_lock<std::mutex> lock(entries_mutex_, std::defer_lock);
  if (concurrency_ != CatalogConcurrency::kSingleThread) lock.lock();
  return resident_count_;
}

}  // namespace mlq

#include "engine/maintenance_scheduler.h"

#include <algorithm>

#include "engine/catalog_governor.h"
#include "obs/obs.h"

namespace mlq {

MaintenanceScheduler::MaintenanceScheduler(CostCatalog* catalog,
                                           const MaintenancePolicy& policy)
    : catalog_(catalog), policy_(policy) {
  catalog_->SetMaintenanceScheduler(this);
}

MaintenanceScheduler::~MaintenanceScheduler() {
  catalog_->SetMaintenanceScheduler(nullptr);
}

void MaintenanceScheduler::Tick() {
  // Snapshot the signals before taking mutex_: ReadArenaSignals takes the
  // catalog's entries_mutex_, and holding both at once would order this
  // mutex after the catalog's — while RunEpochLocked orders it before.
  const CostCatalog::ArenaSignals signals = catalog_->ReadArenaSignals();
  if (obs::Enabled()) {
    obs::Core().arena_fragmentation.Set(signals.max_fragmentation);
    // The staleness gauge is refreshed here (once per tick, not per
    // feedback record) because the tick already pays for a catalog scan.
    obs::Core().model_staleness.Set(catalog_->MaxModelStaleness());
  }

  bool advance_decay = false;
  bool flush_only = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++ticks_;
    ++stats_.ticks;
    // The decay clock runs on the raw tick stream, independent of the
    // compaction triggers below (it must advance even when no epoch ever
    // fires). The advance itself happens after mutex_ is released:
    // AdvanceDecayEpochs takes entries_mutex_ plus model locks, which this
    // mutex must never be held across (same ordering rule as
    // ReadArenaSignals above).
    if (policy_.ticks_per_decay_epoch > 0 &&
        ticks_ % policy_.ticks_per_decay_epoch == 0) {
      advance_decay = true;
      ++stats_.decay_epochs;
    }
    const bool idle = signals.tree_compressions == last_compressions_ &&
                      signals.live_nodes == last_live_nodes_;
    idle_ticks_ = idle ? idle_ticks_ + 1 : 0;
    last_compressions_ = signals.tree_compressions;
    last_live_nodes_ = signals.live_nodes;

    // An epoch already in flight on another thread absorbs this tick's
    // churn; back-pressure caps epoch frequency regardless of triggers.
    const bool eligible =
        !running_ &&
        ticks_ - ticks_at_last_epoch_ >= policy_.min_ticks_between_epochs;
    if (eligible) {
      const int64_t compressions_since =
          signals.tree_compressions - compressions_at_last_epoch_;
      bool trigger = false;
      if (policy_.compression_trigger > 0 &&
          compressions_since >= policy_.compression_trigger) {
        trigger = true;
      }
      // The fragmentation and idle triggers are levels an epoch could not
      // clear while no whole slab is reclaimable, so they fire only when
      // one is; otherwise they would re-fire every back-pressure window
      // (and a quiet system would compact no-op forever).
      if (policy_.fragmentation_trigger > 0 &&
          signals.max_fragmentation >= policy_.fragmentation_trigger &&
          signals.reclaimable_bytes > 0) {
        trigger = true;
      }
      if (policy_.idle_tick_trigger > 0 &&
          idle_ticks_ >= policy_.idle_tick_trigger &&
          signals.reclaimable_bytes > 0) {
        trigger = true;
      }
      if (trigger && signals.reclaimable_bytes > 0) {
        RunEpochLocked(lock);
      } else if (trigger) {
        // The compression trigger fired, but no whole slab can come back,
        // so an epoch would quiesce every model to shuffle blocks and free
        // nothing. Absorb the trigger instead: reset its counters as an
        // epoch would, and keep only
        // the epoch's feedback flush (after mutex_ is released, like the
        // other catalog calls below), which drains the queues on this
        // maintenance tick rather than on the next predicts.
        ticks_at_last_epoch_ = ticks_;
        compressions_at_last_epoch_ = last_compressions_;
        idle_ticks_ = 0;
        flush_only = true;
      }
    }
  }
  if (flush_only) catalog_->FlushFeedback();
  if (advance_decay) catalog_->AdvanceDecayEpochs(1);
  // Governor last, with no lock held: a rebalance takes the catalog's
  // entries_mutex_ and model locks, which mutex_ must never be held
  // across (the same ordering rule as the decay advance above).
  CatalogGovernor* governor = governor_.load(std::memory_order_acquire);
  if (governor != nullptr) governor->OnTick();
}

void MaintenanceScheduler::SetGovernor(CatalogGovernor* governor) {
  governor_.store(governor, std::memory_order_release);
}

void MaintenanceScheduler::NotifyDrift(DriftKind kind) {
  if (kind == DriftKind::kNone) return;
  const int64_t epochs = kind == DriftKind::kAbrupt
                             ? policy_.abrupt_drift_epochs
                             : policy_.gradual_drift_epochs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.drift_notifications;
    stats_.decay_epochs += epochs > 0 ? epochs : 0;
  }
  // Outside mutex_, like the tick-driven advance: the burst takes the
  // catalog's entries_mutex_ and every model's locks.
  if (epochs > 0) catalog_->AdvanceDecayEpochs(epochs);
}

CostCatalog::ArenaMaintenanceStats MaintenanceScheduler::RunEpochNow() {
  std::unique_lock<std::mutex> lock(mutex_);
  return RunEpochLocked(lock);
}

CostCatalog::ArenaMaintenanceStats MaintenanceScheduler::RunEpochLocked(
    std::unique_lock<std::mutex>& lock) {
  running_ = true;
  ticks_at_last_epoch_ = ticks_;
  // Compressions up to the trigger are absorbed by this epoch; churn that
  // lands DURING the epoch counts toward the next trigger.
  const int64_t compressions_at_trigger = last_compressions_;
  lock.unlock();

  const CostCatalog::ArenaMaintenanceStats epoch =
      catalog_->CompactArenas(policy_.step_budget_slots);

  lock.lock();
  running_ = false;
  compressions_at_last_epoch_ = compressions_at_trigger;
  idle_ticks_ = 0;
  ++stats_.epochs;
  stats_.steps += epoch.steps;
  stats_.bytes_reclaimed += epoch.bytes_reclaimed;
  stats_.max_pause_us = std::max(stats_.max_pause_us, epoch.max_pause_us);
  return epoch;
}

MaintenanceSchedulerStats MaintenanceScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mlq

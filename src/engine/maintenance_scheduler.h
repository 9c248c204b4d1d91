#ifndef MLQ_ENGINE_MAINTENANCE_SCHEDULER_H_
#define MLQ_ENGINE_MAINTENANCE_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "engine/cost_catalog.h"

namespace mlq {

class CatalogGovernor;

// When and how MaintenanceScheduler runs a compaction epoch. All triggers
// are evaluated at Tick(); a value of 0 disables that trigger.
struct MaintenancePolicy {
  // Run an epoch once this many tree compressions have happened (across
  // all catalog arenas) since the last epoch. Compressions are the MLQ's
  // churn signal: every SSEG-guided compression releases node blocks back
  // to the arena, so compression count is a direct proxy for new
  // fragmentation.
  int64_t compression_trigger = 256;

  // Run an epoch once the worst arena's reclaimable slot fraction reaches
  // this value (0 < trigger <= 1 to enable).
  double fragmentation_trigger = 0.6;

  // Run an epoch after this many consecutive idle ticks (ticks where no
  // compression or live-node change was observed) IF there is anything to
  // reclaim. Lets a quiet system tidy up without waiting for churn.
  int idle_tick_trigger = 0;

  // Back-pressure: at least this many ticks must pass between epochs, no
  // matter what the triggers say. Keeps a pathological workload (e.g.
  // compressions every batch) from turning every tick into an epoch.
  int64_t min_ticks_between_epochs = 8;

  // Per-step relocation budget in node slots: an epoch is a run of
  // bounded CompactArenasStep pauses, and traffic interleaves between them.
  int64_t step_budget_slots = 4096;

  // Summary-decay clock: advance the catalog's decay epochs by 1 every
  // this many ticks (0 disables — the default; meaningful only when the
  // catalog's models were built with a decay half-life). The tick stream
  // comes from the serving loop itself (executor block boundaries, sharded
  // drains), so the clock advances with traffic, not wall time: an idle
  // model does not forget.
  int64_t ticks_per_decay_epoch = 0;

  // Decay-epoch burst applied when the drift detector fires (NotifyDrift):
  // a step change ages the stale summaries several half-lives at once so
  // re-learning dominates immediately; a gradual shift nudges the clock.
  int64_t abrupt_drift_epochs = 8;
  int64_t gradual_drift_epochs = 1;
};

// Cumulative scheduler activity (monotonic; read via stats()).
struct MaintenanceSchedulerStats {
  int64_t ticks = 0;
  int64_t epochs = 0;
  int64_t steps = 0;
  int64_t bytes_reclaimed = 0;
  int64_t max_pause_us = 0;
  // Summary-decay epochs advanced (steady-state ticks + drift bursts).
  int64_t decay_epochs = 0;
  // NotifyDrift calls that carried a non-kNone classification.
  int64_t drift_notifications = 0;
};

// Self-driving arena maintenance: decides *when* the catalog compacts from
// observable signals (compressions since the last epoch, arena
// fragmentation, idle ticks) instead of requiring callers to place
// CompactArenas calls by hand.
//
// The scheduler registers itself with the catalog on construction; the
// serving stack then drives it through CostCatalog::MaintenanceTick() —
// called by the batched executor at block boundaries and by the sharded
// model's post-drain hook. Tick() is cheap when no trigger fires (one
// signal snapshot + one mutex); when one does, THE CALLING THREAD runs the
// epoch inline through the catalog's normal quiesce path
// (LockForMaintenance + Flush), so no extra thread exists and epochs can
// never overlap (a running_ flag makes concurrent ticks no-ops).
//
// Lifetime: destroy only after serving traffic has quiesced (workers
// joined); the destructor unregisters from the catalog, but ticks already
// past the registration check may still be running.
class MaintenanceScheduler {
 public:
  MaintenanceScheduler(CostCatalog* catalog, const MaintenancePolicy& policy);
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  // Evaluates the policy against the catalog's current signals and runs a
  // compaction epoch inline when one fires. Safe to call from any thread
  // at a point where the caller holds no model or catalog lock.
  void Tick();

  // Forces an epoch now (with the policy's step budget). For tools.
  CostCatalog::ArenaMaintenanceStats RunEpochNow();

  // Drift-detector callback (via CostCatalog::NotifyDriftDetected): ages
  // the catalog's windowed summaries by the policy's burst for `kind`, so
  // stale pre-drift evidence stops dominating predictions and fresh
  // feedback re-converges the models. Call with no model or catalog lock
  // held (same contract as Tick). kNone is a no-op.
  void NotifyDrift(DriftKind kind);

  // Registers (or, with nullptr, unregisters) a catalog governor whose
  // OnTick() is forwarded every scheduler tick — after the compaction /
  // decay logic, with no scheduler or catalog lock held, so the governor
  // rides the same serving-driven tick stream as everything else. The
  // governor must outlive all ticks (same lifetime contract as the
  // scheduler's own catalog registration).
  void SetGovernor(CatalogGovernor* governor);

  MaintenanceSchedulerStats stats() const;
  const MaintenancePolicy& policy() const { return policy_; }

 private:
  // Runs one epoch, accumulating into stats_. Caller holds mutex_; the
  // lock is released for the epoch itself (running_ set) and retaken.
  CostCatalog::ArenaMaintenanceStats RunEpochLocked(
      std::unique_lock<std::mutex>& lock);

  CostCatalog* const catalog_;
  const MaintenancePolicy policy_;
  // Governor to forward ticks to; nullptr when none registered.
  std::atomic<CatalogGovernor*> governor_{nullptr};

  mutable std::mutex mutex_;
  // All below guarded by mutex_.
  bool running_ = false;
  int64_t ticks_ = 0;
  int64_t ticks_at_last_epoch_ = 0;
  int64_t compressions_at_last_epoch_ = 0;
  int idle_ticks_ = 0;
  int64_t last_compressions_ = 0;
  int64_t last_live_nodes_ = 0;
  MaintenanceSchedulerStats stats_;
};

}  // namespace mlq

#endif  // MLQ_ENGINE_MAINTENANCE_SCHEDULER_H_

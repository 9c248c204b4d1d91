#ifndef MLQ_ENGINE_CATALOG_GOVERNOR_H_
#define MLQ_ENGINE_CATALOG_GOVERNOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/cost_catalog.h"

namespace mlq {

// How CatalogGovernor redistributes byte budget. All byte values are
// entry-level totals (summed over the entry's three models); see
// docs/governor.md for tuning guidance.
struct GovernorPolicy {
  // Total logical bytes the catalog's entries may hold between them. The
  // single invariant the governor enforces unconditionally: the sum of
  // granted entry budgets never exceeds this.
  int64_t global_budget_bytes = 0;

  // No entry is ever shrunk below this (cold models keep a coarse summary
  // so a returning workload warm-starts instead of relearning from zero).
  // Clamped to at least 3 roots' charge — below that a budget cannot be
  // enforced at all.
  int64_t min_entry_bytes = 256;

  // Optional per-entry ceiling (0 = no ceiling beyond the global budget).
  // Keeps one hot tenant from absorbing the entire pool.
  int64_t max_entry_bytes = 0;

  // Per-tenant byte quotas. An absent tenant is unconstrained (up to the
  // global budget). When a tenant's proportional allocations exceed its
  // quota, they are scaled down to fit and the freed bytes go to the
  // other tenants' entries in the same rebalance.
  std::map<std::string, int64_t> tenant_quota_bytes;

  // Rebalance cadence: OnTick() runs a rebalance every this many ticks.
  int64_t ticks_per_rebalance = 16;

  // Per-rebalance change clamp, as a fraction of the entry's current
  // budget (hysteresis: 0.5 means an entry can at most halve or grow by
  // half per rebalance). Keeps allocations from oscillating when traffic
  // shares jitter.
  double max_step_fraction = 0.5;

  // Budget changes smaller than this many bytes are not applied (dead
  // band; a SetEntryByteBudget that shrinks triggers compression, so
  // chasing noise has a real cost).
  int64_t min_change_bytes = 64;

  // Weight of the error signals in an entry's demand score:
  //   demand = traffic_share * (1 + error_weight * windowed_nae)
  //            * min(staleness, staleness_cap)
  // Drifting entries (staleness > 1, NAE > 0) bid for more bytes than
  // their traffic share alone.
  double error_weight = 1.0;
  double staleness_cap = 8.0;

  // Whole-model admission control: when > 0, at most this many entries
  // stay resident; beyond it the governor evicts the lowest-traffic
  // entries (snapshot-to-store, lazily reloaded by the next serving call).
  // Safe under live serving: eviction waits for in-flight calls on the
  // entry (see CostCatalog::EvictEntry). Refused in kSharded catalogs.
  int max_resident_models = 0;
};

// Cumulative governor activity (monotonic; read via stats()).
struct GovernorStats {
  int64_t ticks = 0;
  int64_t rebalances = 0;
  // Sum over rebalances of bytes granted to entries that grew / taken
  // from entries that shrank.
  int64_t bytes_granted = 0;
  int64_t bytes_reclaimed = 0;
  // Entries whose budget changed across all rebalances.
  int64_t entries_rebalanced = 0;
  int64_t evictions = 0;
  // Allocation state after the most recent rebalance.
  int64_t allocated_bytes = 0;
  int resident_models = 0;
};

// The fleet-level budget controller: where the paper tunes ONE model under
// ONE byte budget, the governor tunes the catalog — thousands of models
// across many tenants sharing one global byte pool.
//
// Driven by MaintenanceScheduler ticks (SetGovernor wires it into the
// serving loop's tick stream) or called directly via RebalanceNow(). Each
// rebalance reads CostCatalog::ReadModelHealth() and:
//
//  1. Scores every entry's demand: traffic share, boosted by the windowed
//     NAE error signal and the drift detector's staleness ratio — hot or
//     drifting models bid up, cold converged models bid down.
//  2. Computes proportional target budgets over the global pool (floor +
//     demand share of the remainder), clamps per-entry ceilings and the
//     per-round step fraction, then scales tenants down to their quotas.
//  3. Enforces conservation (sum of grants <= global budget) and applies
//     the changed budgets via CostCatalog::SetEntryByteBudget — shrinking
//     entries run eviction-compression passes down to their new limit.
//  4. When admission control is on, evicts the lowest-traffic entries
//     beyond max_resident_models (flush + serialize to the snapshot
//     store; the next For() on the UDF reloads bit-identically).
//
// Thread-safe: ticks and rebalances serialize on an internal mutex, and
// the catalog calls take their own locks (never held together with it).
class CatalogGovernor {
 public:
  // `catalog` must outlive the governor. A zero/negative global budget
  // disables rebalancing (ticks count, nothing moves).
  CatalogGovernor(CostCatalog* catalog, const GovernorPolicy& policy);

  CatalogGovernor(const CatalogGovernor&) = delete;
  CatalogGovernor& operator=(const CatalogGovernor&) = delete;

  // One scheduler tick: runs a rebalance every ticks_per_rebalance ticks.
  // Cheap otherwise (one mutex, one counter).
  void OnTick();

  // Forces a rebalance now, regardless of cadence. Returns the number of
  // entries whose budget changed.
  int RebalanceNow();

  GovernorStats stats() const;
  const GovernorPolicy& policy() const { return policy_; }

 private:
  // The rebalance body. Caller holds mutex_.
  int RebalanceLocked();

  CostCatalog* const catalog_;
  const GovernorPolicy policy_;

  mutable std::mutex mutex_;
  // All below guarded by mutex_.
  int64_t ticks_ = 0;
  // Traffic totals at the previous rebalance, keyed by UDF identity like
  // the catalog's own tables (names need not be unique): the demand score
  // uses the traffic DELTA since last time, so an entry that was hot last
  // month and idle now reads as cold.
  std::map<const CostedUdf*, int64_t> traffic_at_last_rebalance_;
  GovernorStats stats_;
};

}  // namespace mlq

#endif  // MLQ_ENGINE_CATALOG_GOVERNOR_H_

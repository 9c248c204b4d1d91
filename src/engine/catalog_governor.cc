#include "engine/catalog_governor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.h"
#include "quadtree/quadtree_config.h"

namespace mlq {

CatalogGovernor::CatalogGovernor(CostCatalog* catalog,
                                 const GovernorPolicy& policy)
    : catalog_(catalog), policy_(policy) {}

void CatalogGovernor::OnTick() {
  std::unique_lock<std::mutex> lock(mutex_);
  ++ticks_;
  ++stats_.ticks;
  const int64_t cadence = std::max<int64_t>(policy_.ticks_per_rebalance, 1);
  if (ticks_ % cadence != 0) return;
  RebalanceLocked();
}

int CatalogGovernor::RebalanceNow() {
  std::unique_lock<std::mutex> lock(mutex_);
  return RebalanceLocked();
}

int CatalogGovernor::RebalanceLocked() {
  if (policy_.global_budget_bytes <= 0) return 0;
  // The health read takes the catalog's entries_mutex_; this governor's
  // mutex_ is never held by anything that calls back into the governor,
  // so the order (mutex_ before catalog locks) is acyclic.
  std::vector<CostedUdf*> udfs;
  const std::vector<obs::ModelHealth> health =
      catalog_->ReadModelHealth(&udfs);
  const size_t n = health.size();
  if (n == 0) return 0;

  // An entry budget below three roots' charge is not enforceable (each of
  // the entry's three models keeps at least its root).
  const int64_t floor_bytes =
      std::max<int64_t>(policy_.min_entry_bytes, 3 * kNodeBaseBytes);
  const int64_t global = policy_.global_budget_bytes;

  // 1. Demand scores: traffic share since the previous rebalance, boosted
  // by the error signals. The DELTA matters — lifetime traffic would keep
  // yesterday's hot models fat forever.
  std::vector<int64_t> traffic_delta(n, 0);
  int64_t total_delta = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto it = traffic_at_last_rebalance_.find(udfs[i]);
    const int64_t prev =
        it == traffic_at_last_rebalance_.end() ? 0 : it->second;
    traffic_delta[i] = std::max<int64_t>(health[i].traffic - prev, 0);
    total_delta += traffic_delta[i];
  }
  // No traffic since the last rebalance means no new evidence: moving
  // budget now would redistribute toward a uniform split (the zero-delta
  // fallback below) and thrash compression for nothing, so hold the
  // current allocation. A catalog that has NEVER served reads all-zero
  // lifetime traffic and parks here too, which is fine — allocations only
  // matter once predictions flow, and the first served op unblocks the
  // next rebalance.
  if (total_delta == 0 && !traffic_at_last_rebalance_.empty()) return 0;
  std::vector<double> demand(n, 0.0);
  double total_demand = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const obs::ModelHealth& h = health[i];
    const double share =
        total_delta > 0
            ? static_cast<double>(traffic_delta[i]) /
                  static_cast<double>(total_delta)
            : 1.0 / static_cast<double>(n);
    const double error_boost =
        1.0 + policy_.error_weight * std::max(h.windowed_nae, 0.0);
    const double staleness_boost =
        std::clamp(h.staleness, 1.0, std::max(policy_.staleness_cap, 1.0));
    demand[i] = share * error_boost * staleness_boost;
    total_demand += demand[i];
  }

  // 2. Proportional targets over the pool above the floors. When the
  // floors alone exceed the global budget the pool is empty and every
  // entry gets an equal split instead (the floor is a goal, conservation
  // is the invariant).
  const int64_t sum_floors = floor_bytes * static_cast<int64_t>(n);
  std::vector<int64_t> target(n, 0);
  if (sum_floors >= global) {
    const int64_t equal = global / static_cast<int64_t>(n);
    std::fill(target.begin(), target.end(), equal);
  } else {
    const double pool = static_cast<double>(global - sum_floors);
    for (size_t i = 0; i < n; ++i) {
      const double share = total_demand > 0.0 ? demand[i] / total_demand
                                              : 1.0 / static_cast<double>(n);
      target[i] = floor_bytes + static_cast<int64_t>(pool * share);
      if (policy_.max_entry_bytes > 0) {
        target[i] = std::min(target[i], policy_.max_entry_bytes);
      }
      // Hysteresis: clamp the per-round change to a fraction of the
      // current budget so jittering traffic shares cannot thrash
      // compression.
      const double step = std::clamp(policy_.max_step_fraction, 0.0, 1.0);
      const int64_t cur = std::max<int64_t>(health[i].budget_bytes, 1);
      const auto lo = static_cast<int64_t>(
          std::floor(static_cast<double>(cur) * (1.0 - step)));
      const auto hi = static_cast<int64_t>(
          std::ceil(static_cast<double>(cur) * (1.0 + step)));
      target[i] = std::clamp(target[i], lo, hi);
      target[i] = std::max(target[i], floor_bytes);
    }
  }

  // 3. Tenant quotas: scale every entry of an over-quota tenant down
  // proportionally (but never below the floor — quotas smaller than their
  // tenants' summed floors are satisfied best-effort).
  if (!policy_.tenant_quota_bytes.empty()) {
    std::map<std::string, int64_t> tenant_sum;
    for (size_t i = 0; i < n; ++i) tenant_sum[health[i].tenant] += target[i];
    for (size_t i = 0; i < n; ++i) {
      const auto quota = policy_.tenant_quota_bytes.find(health[i].tenant);
      if (quota == policy_.tenant_quota_bytes.end()) continue;
      const int64_t sum = tenant_sum[health[i].tenant];
      if (sum <= quota->second) continue;
      const double scale = static_cast<double>(quota->second) /
                           static_cast<double>(sum);
      target[i] = std::max<int64_t>(
          static_cast<int64_t>(static_cast<double>(target[i]) * scale),
          std::min(floor_bytes, quota->second));
    }
  }

  // 4. Conservation: sum of grants must not exceed the global budget.
  // Integer truncation above keeps the proportional sum under the pool;
  // the step clamp and quota floors can push it over, so scale the
  // above-floor portion back down if needed.
  int64_t total = std::accumulate(target.begin(), target.end(), int64_t{0});
  if (total > global && total > sum_floors && sum_floors < global) {
    const double scale = static_cast<double>(global - sum_floors) /
                         static_cast<double>(total - sum_floors);
    total = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t above = target[i] - floor_bytes;
      target[i] = floor_bytes +
                  static_cast<int64_t>(static_cast<double>(above) * scale);
      total += target[i];
    }
  }

  // 5. Apply. Entries within the dead band keep their current budget (and
  // still count toward the allocation total).
  int changed = 0;
  int64_t granted = 0;
  int64_t reclaimed = 0;
  int64_t allocated = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t cur = health[i].budget_bytes;
    const int64_t delta = target[i] - cur;
    if (std::llabs(delta) < policy_.min_change_bytes) {
      allocated += cur;
      continue;
    }
    if (!catalog_->SetEntryByteBudget(udfs[i], target[i])) {
      allocated += cur;
      continue;  // Evicted or deregistered since the health read.
    }
    allocated += target[i];
    ++changed;
    if (delta > 0) {
      granted += delta;
    } else {
      reclaimed -= delta;
    }
  }

  // 6. Admission control: evict the coldest entries beyond the resident
  // cap, coldest-first by traffic delta (LRU-by-traffic).
  int evicted = 0;
  if (policy_.max_resident_models > 0 &&
      static_cast<int>(n) > policy_.max_resident_models) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (traffic_delta[a] != traffic_delta[b]) {
        return traffic_delta[a] < traffic_delta[b];
      }
      return health[a].traffic < health[b].traffic;
    });
    const int excess = static_cast<int>(n) - policy_.max_resident_models;
    for (int k = 0; k < excess; ++k) {
      if (catalog_->EvictEntry(udfs[order[static_cast<size_t>(k)]])) {
        ++evicted;
      }
    }
  }

  // Remember this rebalance's traffic totals (evicted entries keep theirs
  // in the snapshot store and resume the same counter on reload).
  for (size_t i = 0; i < n; ++i) {
    traffic_at_last_rebalance_[udfs[i]] = health[i].traffic;
  }

  ++stats_.rebalances;
  stats_.bytes_granted += granted;
  stats_.bytes_reclaimed += reclaimed;
  stats_.entries_rebalanced += changed;
  stats_.evictions += evicted;
  stats_.allocated_bytes = allocated;
  stats_.resident_models = static_cast<int>(n) - evicted;

  if (obs::Enabled()) {
    obs::CoreMetrics& core = obs::Core();
    core.governor_rebalances.Inc();
    core.governor_bytes_granted.Inc(granted);
    core.governor_bytes_reclaimed.Inc(reclaimed);
    core.governor_resident_models.Set(
        static_cast<double>(stats_.resident_models));
    core.governor_allocated_bytes.Set(static_cast<double>(allocated));
    obs::GlobalEventLog().Append(obs::EventKind::kGovernorDecision, "catalog",
                                 static_cast<double>(granted),
                                 static_cast<double>(reclaimed),
                                 static_cast<double>(changed));
  }
  return changed;
}

GovernorStats CatalogGovernor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mlq

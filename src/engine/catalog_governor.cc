#include "engine/catalog_governor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

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

namespace {

// Width of the evidence dead band in standard deviations of the share
// estimate: a budget moves only on a 3-sigma disagreement.
constexpr double kNoiseZ = 3.0;

}  // namespace

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

  // 1. Evidence. The per-entry increment since the previous rebalance
  // feeds the running total (and the LRU order of admission control).
  std::vector<int64_t> traffic_delta(n, 0);
  int64_t total_delta = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto it = windows_.find(udfs[i]);
    const int64_t prev = it == windows_.end() ? 0 : it->second.last_traffic;
    traffic_delta[i] = std::max<int64_t>(health[i].traffic - prev, 0);
    total_delta += traffic_delta[i];
  }
  // No traffic since the last rebalance means no new evidence: moving
  // budget now would redistribute toward a uniform split (the zero-traffic
  // fallback below) and thrash compression for nothing, so hold the
  // current allocation. A catalog that has NEVER served reads all-zero
  // lifetime traffic and parks here too, which is fine — allocations only
  // matter once predictions flow, and the first served op unblocks the
  // next rebalance.
  if (total_delta == 0 && !windows_.empty()) return 0;
  // An entry seen for the first time opens its window at the previous
  // rebalance, with all of its lifetime traffic as evidence.
  const int64_t total_before = total_traffic_;
  total_traffic_ += total_delta;
  std::vector<EvidenceWindow*> window(n);
  std::vector<int64_t> hits(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto [it, fresh] = windows_.try_emplace(udfs[i]);
    if (fresh) it->second.start_total = total_before;
    window[i] = &it->second;
    hits[i] = std::max<int64_t>(health[i].traffic - it->second.start_traffic, 0);
  }

  // Demand scores: traffic share over the entry's window, boosted by the
  // error signals.
  std::vector<double> demand(n, 0.0);
  double total_demand = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const obs::ModelHealth& h = health[i];
    const int64_t window_traffic = total_traffic_ - window[i]->start_total;
    const double share =
        window_traffic > 0 ? static_cast<double>(hits[i]) /
                                 static_cast<double>(window_traffic)
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
  // is the invariant). `proportional` keeps the unclamped target: the
  // noise band below is a property of the share estimate, not of the
  // step clamp.
  const int64_t sum_floors = floor_bytes * static_cast<int64_t>(n);
  std::vector<int64_t> proportional(n, 0);
  std::vector<int64_t> target(n, 0);
  if (sum_floors >= global) {
    const int64_t equal = global / static_cast<int64_t>(n);
    std::fill(proportional.begin(), proportional.end(), equal);
    std::fill(target.begin(), target.end(), equal);
  } else {
    const double pool = static_cast<double>(global - sum_floors);
    for (size_t i = 0; i < n; ++i) {
      const double share = total_demand > 0.0 ? demand[i] / total_demand
                                              : 1.0 / static_cast<double>(n);
      proportional[i] = floor_bytes + static_cast<int64_t>(pool * share);
      target[i] = proportional[i];
      if (policy_.max_entry_bytes > 0) {
        target[i] = std::min(target[i], policy_.max_entry_bytes);
      }
      // Hysteresis: clamp the per-round change to a fraction of the
      // current budget so a large shift lands over several rounds.
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

  // Tenant quotas: scale every entry of an over-quota tenant down
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

  // 3. Evidence dead band. The above-floor part of a target is the pool
  // times the entry's share, and a share counted from `hits` events has a
  // relative sampling error of about 1/sqrt(hits): a move smaller than
  // z such errors is noise. The band is sized on the smaller of the
  // unclamped and the final target, so a cold entry (proportional target
  // on the floor) is never held up by its step clamp.
  std::vector<char> held(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const int64_t above =
        std::max<int64_t>(std::min(proportional[i], target[i]) - floor_bytes, 0);
    const double noise = kNoiseZ * static_cast<double>(above) /
                         std::sqrt(static_cast<double>(hits[i]) + 1.0);
    const double band =
        std::max(static_cast<double>(policy_.min_change_bytes), noise);
    held[i] = static_cast<double>(std::llabs(target[i] -
                                             health[i].budget_bytes)) < band;
  }

  // 4. Conservation, exact: within each quota'd tenant and then the global
  // budget, held entries count at their current budget and the movers'
  // above-floor grants are scaled into what is left. If the held budgets
  // leave no room for the movers' floors (the first rebalance of an
  // over-allocated catalog), the group's holds are released and all of it
  // is scaled as one.
  auto grant = [&](size_t i) {
    return held[i] != 0 ? health[i].budget_bytes : target[i];
  };
  auto fit = [&](const std::vector<size_t>& group, int64_t cap) {
    // The group's held budgets plus its movers' floor parts, and its
    // movers' above-floor parts; together, the sum of its grants.
    const auto split = [&] {
      int64_t fixed = 0;
      int64_t above = 0;
      for (const size_t i : group) {
        if (held[i] != 0) {
          fixed += health[i].budget_bytes;
        } else {
          fixed += std::min(target[i], floor_bytes);
          above += std::max<int64_t>(target[i] - floor_bytes, 0);
        }
      }
      return std::pair{fixed, above};
    };
    auto [fixed, above] = split();
    if (fixed + above <= cap) return;
    if (fixed >= cap) {
      for (const size_t i : group) held[i] = 0;
      std::tie(fixed, above) = split();
      // Floors alone exceed the cap (best effort), or the released holds
      // already fit.
      if (fixed >= cap || fixed + above <= cap) return;
    }
    const double scale =
        static_cast<double>(cap - fixed) / static_cast<double>(above);
    for (const size_t i : group) {
      if (held[i] != 0 || target[i] <= floor_bytes) continue;
      target[i] = floor_bytes + static_cast<int64_t>(
                                    static_cast<double>(target[i] - floor_bytes) *
                                    scale);
    }
  };
  for (const auto& [tenant, quota] : policy_.tenant_quota_bytes) {
    std::vector<size_t> group;
    for (size_t i = 0; i < n; ++i) {
      if (health[i].tenant == tenant) group.push_back(i);
    }
    fit(group, quota);
  }
  std::vector<size_t> everyone(n);
  std::iota(everyone.begin(), everyone.end(), size_t{0});
  fit(everyone, global);

  // 5. Apply. A moved entry opens a fresh evidence window.
  int changed = 0;
  int64_t granted = 0;
  int64_t reclaimed = 0;
  int64_t allocated = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t cur = health[i].budget_bytes;
    const int64_t next = grant(i);
    if (next == cur || !catalog_->SetEntryByteBudget(udfs[i], next)) {
      allocated += cur;  // Held, or evicted since the health read.
      continue;
    }
    allocated += next;
    ++changed;
    if (next > cur) {
      granted += next - cur;
    } else {
      reclaimed += cur - next;
    }
    window[i]->start_traffic = health[i].traffic;
    window[i]->start_total = total_traffic_;
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
  // in their shell and resume the same counter on reload).
  for (size_t i = 0; i < n; ++i) window[i]->last_traffic = health[i].traffic;

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

#include "engine/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>

#include "obs/obs.h"

namespace mlq {
namespace {

// Shared epilogue for the three execution strategies: one histogram sample
// and one kQueryExec span per query, tagged with input size and actual cost.
void RecordExecObs(const ExecutionStats& stats, int64_t t0_ns, bool enabled) {
  if (!enabled) return;
  obs::CoreMetrics& core = obs::Core();
  core.query_execs.Inc();
  const int64_t dur = obs::NowNs() - t0_ns;
  core.exec_ns.Record(dur);
  MLQ_TRACE_EVENT(obs::TraceEventType::kQueryExec, t0_ns, dur,
                  static_cast<double>(stats.rows_in),
                  stats.actual_cost_micros);
}

}  // namespace

ExecutionStats ExecuteQuery(const Query& query, const Plan& plan,
                            CostCatalog* catalog) {
  assert(query.table != nullptr);
  assert(plan.order.size() == query.predicates.size());
  const bool obs_on = obs::Enabled();
  const int64_t obs_t0 = obs_on ? obs::NowNs() : 0;

  ExecutionStats stats;
  stats.rows_in = query.table->num_rows();
  stats.evaluations_per_predicate.assign(query.predicates.size(), 0);

  for (int64_t row = 0; row < stats.rows_in; ++row) {
    bool row_passes = true;
    for (int index : plan.order) {
      const UdfPredicate* predicate =
          query.predicates[static_cast<size_t>(index)];
      const UdfPredicate::Outcome outcome =
          predicate->Evaluate(query.table->Row(row));
      ++stats.evaluations_per_predicate[static_cast<size_t>(index)];
      stats.actual_cost_micros += outcome.cost.NominalMicros();
      if (catalog != nullptr) {
        catalog->RecordExecution(predicate->udf(), outcome.model_point,
                                 outcome.cost, outcome.passed);
      }
      if (!outcome.passed) {
        row_passes = false;
        break;  // Short-circuit AND: later predicates are never evaluated.
      }
    }
    if (row_passes) ++stats.rows_out;
  }
  RecordExecObs(stats, obs_t0, obs_on);
  return stats;
}

ExecutionStats ExecuteQueryConcurrent(const Query& query, const Plan& plan,
                                      CostCatalog* catalog, int num_threads) {
  assert(query.table != nullptr);
  assert(plan.order.size() == query.predicates.size());
  assert(catalog == nullptr ||
         catalog->concurrency() != CatalogConcurrency::kSingleThread);
  if (num_threads <= 1) return ExecuteQuery(query, plan, catalog);
  const bool obs_on = obs::Enabled();
  const int64_t obs_t0 = obs_on ? obs::NowNs() : 0;

  const int64_t rows = query.table->num_rows();
  const size_t num_predicates = query.predicates.size();
  // The UDF substrates are thread-compatible, not thread-safe: one mutex
  // per predicate keeps each substrate single-threaded while distinct
  // predicates (and all model traffic) proceed in parallel.
  std::vector<std::mutex> predicate_mutexes(num_predicates);

  std::vector<ExecutionStats> per_thread(static_cast<size_t>(num_threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));
  const int64_t chunk = (rows + num_threads - 1) / num_threads;
  for (int t = 0; t < num_threads; ++t) {
    const int64_t begin = t * chunk;
    const int64_t end = std::min(rows, begin + chunk);
    ExecutionStats& local = per_thread[static_cast<size_t>(t)];
    local.evaluations_per_predicate.assign(num_predicates, 0);
    workers.emplace_back([&query, &plan, catalog, &predicate_mutexes, &local,
                          begin, end]() {
      for (int64_t row = begin; row < end; ++row) {
        bool row_passes = true;
        for (int index : plan.order) {
          const UdfPredicate* predicate =
              query.predicates[static_cast<size_t>(index)];
          UdfPredicate::Outcome outcome;
          {
            std::lock_guard<std::mutex> lock(
                predicate_mutexes[static_cast<size_t>(index)]);
            outcome = predicate->Evaluate(query.table->Row(row));
          }
          ++local.evaluations_per_predicate[static_cast<size_t>(index)];
          local.actual_cost_micros += outcome.cost.NominalMicros();
          if (catalog != nullptr) {
            catalog->RecordExecution(predicate->udf(), outcome.model_point,
                                     outcome.cost, outcome.passed);
          }
          if (!outcome.passed) {
            row_passes = false;
            break;
          }
        }
        if (row_passes) ++local.rows_out;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  ExecutionStats stats;
  stats.rows_in = rows;
  stats.evaluations_per_predicate.assign(num_predicates, 0);
  for (const ExecutionStats& local : per_thread) {
    stats.rows_out += local.rows_out;
    stats.actual_cost_micros += local.actual_cost_micros;
    for (size_t i = 0; i < num_predicates; ++i) {
      stats.evaluations_per_predicate[i] +=
          local.evaluations_per_predicate[i];
    }
  }
  if (catalog != nullptr) catalog->FlushFeedback();
  RecordExecObs(stats, obs_t0, obs_on);
  return stats;
}

ExecutionStats ExecuteQueryAdaptive(const Query& query, CostCatalog& catalog) {
  assert(query.table != nullptr);
  const bool obs_on = obs::Enabled();
  const int64_t obs_t0 = obs_on ? obs::NowNs() : 0;
  ExecutionStats stats;
  stats.rows_in = query.table->num_rows();
  stats.evaluations_per_predicate.assign(query.predicates.size(), 0);

  const size_t n = query.predicates.size();
  std::vector<int> order(n);
  std::vector<double> rank(n);
  for (int64_t row = 0; row < stats.rows_in; ++row) {
    const auto row_values = query.table->Row(row);
    // Rank each predicate at this row's own model point.
    for (size_t i = 0; i < n; ++i) {
      const UdfPredicate* predicate = query.predicates[i];
      const Point point = predicate->ModelPointFor(row_values);
      const double cost = catalog.PredictCostMicros(predicate->udf(), point);
      const double selectivity =
          catalog.PredictSelectivity(predicate->udf(), point);
      rank[i] = cost > 0.0 ? (selectivity - 1.0) / cost
                           : -std::numeric_limits<double>::infinity();
    }
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&rank](int a, int b) {
      return rank[static_cast<size_t>(a)] < rank[static_cast<size_t>(b)];
    });

    bool row_passes = true;
    for (int index : order) {
      const UdfPredicate* predicate =
          query.predicates[static_cast<size_t>(index)];
      const UdfPredicate::Outcome outcome = predicate->Evaluate(row_values);
      ++stats.evaluations_per_predicate[static_cast<size_t>(index)];
      stats.actual_cost_micros += outcome.cost.NominalMicros();
      catalog.RecordExecution(predicate->udf(), outcome.model_point,
                              outcome.cost, outcome.passed);
      if (!outcome.passed) {
        row_passes = false;
        break;
      }
    }
    if (row_passes) ++stats.rows_out;
  }
  RecordExecObs(stats, obs_t0, obs_on);
  return stats;
}

ExecutionStats ExecuteQueryAdaptiveBatched(const Query& query,
                                           CostCatalog& catalog,
                                           int block_rows, double risk_k) {
  assert(query.table != nullptr);
  assert(block_rows >= 1);
  const bool risk_aware = risk_k > 0.0;
  const bool obs_on = obs::Enabled();
  const int64_t obs_t0 = obs_on ? obs::NowNs() : 0;
  ExecutionStats stats;
  stats.rows_in = query.table->num_rows();
  stats.evaluations_per_predicate.assign(query.predicates.size(), 0);

  const size_t n = query.predicates.size();
  std::vector<int> order(n);
  std::vector<double> rank(n);
  // Per-predicate probe buffers, reused across blocks.
  std::vector<std::vector<Point>> points(n);
  std::vector<std::vector<Prediction>> costs(n);
  std::vector<std::vector<Prediction>> selectivities(n);
  // Per-predicate feedback buffers, flushed once per block through
  // RecordExecutionBatch. Deferring feedback to block end cannot change
  // any decision: the block's probes are precomputed above, and each
  // model's insert sequence is untouched (records stay in row order per
  // predicate, and a model only ever receives its own UDF's feedback).
  std::vector<std::vector<CostCatalog::ExecutionRecord>> feedback(n);

  for (int64_t block_begin = 0; block_begin < stats.rows_in;
       block_begin += block_rows) {
    const int64_t block_end =
        std::min<int64_t>(stats.rows_in, block_begin + block_rows);
    const size_t block_size = static_cast<size_t>(block_end - block_begin);
    // Probe phase: batch the whole block's model points per predicate.
    for (size_t i = 0; i < n; ++i) {
      points[i].clear();
      for (int64_t row = block_begin; row < block_end; ++row) {
        points[i].push_back(
            query.predicates[i]->ModelPointFor(query.table->Row(row)));
      }
      costs[i].resize(block_size);
      selectivities[i].resize(block_size);
      catalog.PredictCostBatch(query.predicates[i]->udf(), points[i],
                               costs[i]);
      catalog.PredictSelectivityBatch(query.predicates[i]->udf(), points[i],
                                      selectivities[i]);
    }
    // Evaluation phase: same per-row ranking and short-circuiting as
    // ExecuteQueryAdaptive, reading the precomputed probes.
    for (int64_t row = block_begin; row < block_end; ++row) {
      const size_t k = static_cast<size_t>(row - block_begin);
      const auto row_values = query.table->Row(row);
      for (size_t i = 0; i < n; ++i) {
        // Risk-aware ranks pad the cost by risk_k standard errors.
        const Prediction& c = costs[i][k];
        const double cost =
            risk_aware ? c.value + risk_k * c.stddev /
                                       std::sqrt(static_cast<double>(
                                           c.count > 0 ? c.count : 1))
                       : c.value;
        rank[i] = cost > 0.0 ? (selectivities[i][k].value - 1.0) / cost
                             : -std::numeric_limits<double>::infinity();
      }
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&rank](int a, int b) {
        return rank[static_cast<size_t>(a)] < rank[static_cast<size_t>(b)];
      });

      bool row_passes = true;
      for (int index : order) {
        const UdfPredicate* predicate =
            query.predicates[static_cast<size_t>(index)];
        const UdfPredicate::Outcome outcome = predicate->Evaluate(row_values);
        ++stats.evaluations_per_predicate[static_cast<size_t>(index)];
        stats.actual_cost_micros += outcome.cost.NominalMicros();
        feedback[static_cast<size_t>(index)].push_back(
            {outcome.model_point, outcome.cost, outcome.passed});
        if (!outcome.passed) {
          row_passes = false;
          break;
        }
      }
      if (row_passes) ++stats.rows_out;
    }
    // Feedback phase: one batched delivery per predicate for the block.
    for (size_t i = 0; i < n; ++i) {
      catalog.RecordExecutionBatch(query.predicates[i]->udf(), feedback[i]);
      feedback[i].clear();
    }
    // Block boundary: no model lock is held and this thread owns no
    // half-applied feedback, so it is a safe point for the catalog's
    // self-driving arena maintenance. No-op unless a scheduler is
    // registered and its policy fires.
    catalog.MaintenanceTick();
  }
  RecordExecObs(stats, obs_t0, obs_on);
  return stats;
}

PlannedExecution PlanAndExecute(const Query& query, CostCatalog& catalog,
                                int sample_rows) {
  PlannedExecution result;
  result.plan = PlanQuery(query, catalog, sample_rows);
  result.stats = ExecuteQuery(query, result.plan, &catalog);
  return result;
}

}  // namespace mlq

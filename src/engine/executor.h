#ifndef MLQ_ENGINE_EXECUTOR_H_
#define MLQ_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "engine/cost_catalog.h"
#include "engine/query_optimizer.h"

namespace mlq {

// What one query execution actually did and cost.
struct ExecutionStats {
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  // Actual execution cost over all UDF calls, in nominal microseconds.
  double actual_cost_micros = 0.0;
  // How many rows each predicate was actually evaluated on (short-circuit
  // evaluation skips predicates once a row fails). Parallel to
  // Query::predicates, not to the plan order.
  std::vector<int64_t> evaluations_per_predicate;
};

// Executes `query` under `plan` with short-circuit conjunction. When
// `catalog` is non-null, every UDF call's observed cost and pass outcome is
// fed back into its models — this is the execution-engine half of the
// paper's Fig. 1 loop, and it is what makes subsequent plans better.
ExecutionStats ExecuteQuery(const Query& query, const Plan& plan,
                            CostCatalog* catalog);

// Concurrent variant of ExecuteQuery: rows are partitioned into
// `num_threads` contiguous chunks evaluated by worker threads. UDF
// substrates (buffer pools, indexes) are stateful and single-threaded, so
// calls to the SAME predicate are serialized behind a per-predicate mutex;
// distinct predicates run in parallel, and all model traffic (feedback via
// `catalog`) is concurrent — which is why `catalog`, when given, must be in
// a concurrent mode (kGlobalMutex or kSharded; asserted). Results are
// deterministic and identical to ExecuteQuery: pass outcomes depend only on
// the row, and short-circuiting is per-row.
ExecutionStats ExecuteQueryConcurrent(const Query& query, const Plan& plan,
                                      CostCatalog* catalog, int num_threads);

// Adaptive variant: instead of one order for the whole table, re-ranks the
// predicates *per row* using each row's own model-point predictions — the
// cost models are cheap enough (~100 ns per probe) that per-tuple
// conditional planning is affordable. Wins when predicate costs vary
// strongly across tuples (e.g. a text search that is cheap for rare
// keywords and expensive for frequent ones). `catalog` is required: the
// per-row ranks come from its models, and feedback flows back into them.
ExecutionStats ExecuteQueryAdaptive(const Query& query, CostCatalog& catalog);

// Block-batched form of ExecuteQueryAdaptive: rows are processed in blocks
// of `block_rows`, and each block's model probes go through the catalog's
// batched predictors (one batch call per predicate per block instead of two
// virtual dispatches per predicate per row). A block's probes are taken
// before its rows execute, so within a block the per-row predicate order
// ignores that block's own feedback — the ranks can differ from
// ExecuteQueryAdaptive's mid-block. Query RESULTS are identical regardless
// (pass/fail depends only on the row): rows_in and rows_out always match
// the unbatched variant; only evaluation counts and cost may drift.
//
// `risk_k` > 0 ranks each row with risk-adjusted per-point costs
// (mean + k * stddev / sqrt(count), from the same catalog batch
// predictions) instead of point estimates; risk_k = 0 keeps the classical
// per-row rank on the predictions' values.
ExecutionStats ExecuteQueryAdaptiveBatched(const Query& query,
                                           CostCatalog& catalog,
                                           int block_rows = 64,
                                           double risk_k = 0.0);

// Convenience: the full loop for one query arrival — plan, execute with
// feedback, return both.
struct PlannedExecution {
  Plan plan;
  ExecutionStats stats;
};
PlannedExecution PlanAndExecute(const Query& query, CostCatalog& catalog,
                                int sample_rows = 32);

}  // namespace mlq

#endif  // MLQ_ENGINE_EXECUTOR_H_

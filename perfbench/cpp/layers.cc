#include "workloads.h"

namespace perfbench {

QuadtreeTotals ReadQuadtreeTotals(const mlq::CostCatalog& catalog,
                                  std::span<const mlq::CostedUdf* const> udfs) {
  QuadtreeTotals totals;
  for (const mlq::CostedUdf* udf : udfs) {
    const mlq::CostCatalog::Entry* entry = catalog.Find(udf);
    if (entry == nullptr) continue;
    for (const mlq::CostModel* model :
         {entry->cpu_model.get(), entry->io_model.get(),
          entry->selectivity_model.get()}) {
      const mlq::ModelUpdateBreakdown b = model->update_breakdown();
      totals.compressions += b.compressions;
      totals.update_seconds += b.UpdateSeconds();
      totals.nodes += model->NodeCount();
    }
  }
  return totals;
}

void SetQuadtreeMetrics(const mlq::CostCatalog& catalog,
                        const QuadtreeTotals& before,
                        const QuadtreeTotals& after, int64_t ops,
                        MetricSet& per_layer) {
  const double n = static_cast<double>(ops > 0 ? ops : 1);
  per_layer.Set("quadtree.compressions_per_op",
                static_cast<double>(after.compressions - before.compressions) /
                    n);
  per_layer.Set("quadtree.update_us_per_op",
                (after.update_seconds - before.update_seconds) * 1e6 / n);
  per_layer.Set("quadtree.nodes", static_cast<double>(after.nodes));
  per_layer.Set("quadtree.arena_mb",
                static_cast<double>(catalog.ArenaPhysicalBytes()) / 1048576.0);
  per_layer.Set("quadtree.arena_fragmentation",
                catalog.ReadArenaSignals().max_fragmentation);
}

}  // namespace perfbench

#ifndef MLQ_OPTIMIZER_PREDICATE_ORDERING_H_
#define MLQ_OPTIMIZER_PREDICATE_ORDERING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mlq {

// One UDF predicate in a conjunctive WHERE clause, as the optimizer sees
// it: an estimated per-tuple evaluation cost (from a CostModel) and an
// estimated selectivity. This is the motivating use of UDF cost models in
// the paper's introduction (Hellerstein & Stonebraker's predicate
// migration / Chaudhuri & Shim's optimization of expensive predicates).
struct PredicateEstimate {
  std::string name;
  // Predicted cost of evaluating the predicate on one tuple (any consistent
  // unit, e.g. microseconds).
  double cost_per_tuple = 0.0;
  // Fraction of tuples that pass, in [0, 1].
  double selectivity = 1.0;
  // Uncertainty of the cost estimate (same unit as cost_per_tuple) and the
  // number of observations supporting it, from the model's Prediction.
  // Defaults keep variance-blind callers working: 0 stddev / 0 support
  // makes the risk adjustment degenerate to the point estimate.
  double cost_stddev = 0.0;
  int64_t support = 0;

  // Predicate rank (selectivity - 1) / cost: ordering by ascending rank
  // minimizes expected evaluation cost of a conjunctive chain.
  double Rank() const;

  // Risk-adjusted per-tuple cost: mean + k * stddev / sqrt(support) — the
  // point estimate padded by k standard errors. An unsupported estimate
  // (support 0) is padded by the full k * stddev: nothing has averaged the
  // noise away. k = 0 is exactly the point estimate.
  double RiskAdjustedCost(double k) const;

  // Rank computed with RiskAdjustedCost in the denominator; identical to
  // Rank() when k = 0.
  double RiskRank(double k) const;
};

// Knobs for risk-aware ordering. k is in standard errors: 0 reproduces the
// classical rank ordering exactly; 1-2 pads each cost estimate by its
// standard error(s) so a cheap-looking but noisy predicate loses near-ties
// against a slightly dearer, well-supported one.
struct RiskPolicy {
  double k = 0.0;
  // Beam width for the risk ordering's prefix search. The classical rank
  // sort is provably optimal for independent point estimates, but with
  // risk-padded costs the greedy order can be beaten; the beam explores
  // alternative prefixes while pruning high-variance orderings early.
  int beam_width = 4;
};

// Result of ordering a set of predicates.
struct OrderingResult {
  // Indices into the input span, in evaluation order.
  std::vector<int> order;
  // Expected evaluation cost of one tuple under that order.
  double expected_cost_per_tuple = 0.0;
  // Risk-adjusted expected cost of the order (equals
  // expected_cost_per_tuple when every stddev is 0 or k = 0).
  double risk_cost_per_tuple = 0.0;
};

// Expected per-tuple cost of evaluating `predicates` in the given order:
// sum_i cost_i * prod_{j before i} selectivity_j (short-circuit AND).
double SequenceCostPerTuple(std::span<const PredicateEstimate> predicates,
                            std::span<const int> order);

// Risk-adjusted variant of SequenceCostPerTuple: per-tuple costs are
// padded to RiskAdjustedCost(k); pass probabilities stay point estimates.
double RiskSequenceCostPerTuple(std::span<const PredicateEstimate> predicates,
                                std::span<const int> order, double k);

// Orders predicates by ascending rank (optimal for independent predicates)
// and reports the expected cost of the chosen order.
OrderingResult OrderPredicates(std::span<const PredicateEstimate> predicates);

// Risk-aware ordering. With policy.k == 0 this returns OrderPredicates'
// result exactly (same order, same expected cost — bit-identical), so the
// knob's default is a no-op. With k > 0 it runs a beam search over order
// prefixes scored by risk-adjusted sequence cost, pruning all but the
// beam_width cheapest prefixes at each depth — high-variance orderings
// fall out of the beam early instead of being enumerated.
OrderingResult OrderPredicatesRisk(
    std::span<const PredicateEstimate> predicates, const RiskPolicy& policy);

// Expected cost of the *worst* ordering, for headroom reporting in demos.
double WorstSequenceCostPerTuple(std::span<const PredicateEstimate> predicates);

}  // namespace mlq

#endif  // MLQ_OPTIMIZER_PREDICATE_ORDERING_H_

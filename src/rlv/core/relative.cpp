#include "rlv/core/relative.hpp"

#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/live.hpp"
#include "rlv/omega/product.hpp"

namespace rlv {

namespace {

/// Runs a decide_* call, reporting a tripped budget through `exhausted`.
template <typename Result, typename Decide>
Result catching_exhaustion(Decide&& decide) {
  try {
    return decide();
  } catch (const ResourceExhausted& e) {
    Result result;
    result.exhausted = e.stage();
    return result;
  }
}

Nfa prefixes_of(const Buchi& behaviors, Budget* budget) {
  StageScope scope(budget, Stage::kPreTrim);
  return prefix_nfa(behaviors);
}

}  // namespace

RelativeLivenessResult decide_relative_liveness(
    const Buchi& behaviors, const Nfa& pre_behaviors, const Buchi& property,
    InclusionAlgorithm algorithm, Budget* budget,
    std::size_t inclusion_threads) {
  // Lemma 4.3: pre(L_ω) ⊆ pre(L_ω ∩ P); the reverse inclusion is automatic.
  const Nfa pre_both =
      prefixes_of(intersect_buchi(behaviors, property, budget), budget);
  const InclusionResult inc = check_inclusion(
      pre_behaviors, pre_both, algorithm, budget, inclusion_threads);
  RelativeLivenessResult result;
  result.holds = inc.included;
  result.violating_prefix = inc.counterexample;
  return result;
}

RelativeSafetyResult decide_relative_safety(const Buchi& behaviors,
                                            const Buchi& property,
                                            const Buchi& negated_property,
                                            Budget* budget) {
  // Lemma 4.4: L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P = ∅, decided on the fly — the
  // triple product is explored lazily by the nested DFS instead of being
  // materialized, so a counterexample (or its absence) is often established
  // after touching a fraction of the product.
  const Buchi intersection = intersect_buchi(behaviors, property, budget);
  const Buchi closure = [&] {
    StageScope scope(budget, Stage::kPreTrim);
    return limit_of_prefix_closed(prefix_nfa(intersection));
  }();
  auto lasso = find_accepting_lasso_product(
      {&behaviors, &closure, &negated_property}, budget);
  RelativeSafetyResult result;
  result.holds = !lasso.has_value();
  result.counterexample = std::move(lasso);
  return result;
}

SatisfactionResult decide_satisfaction(const Buchi& behaviors,
                                       const Buchi& negated_property,
                                       Budget* budget) {
  auto lasso =
      find_accepting_lasso_product({&behaviors, &negated_property}, budget);
  SatisfactionResult result;
  result.holds = !lasso.has_value();
  result.counterexample = std::move(lasso);
  return result;
}

RelativeLivenessResult relative_liveness(const Buchi& system,
                                         const Buchi& property,
                                         InclusionAlgorithm algorithm,
                                         Budget* budget,
                                         std::size_t inclusion_threads) {
  return catching_exhaustion<RelativeLivenessResult>([&] {
    return decide_relative_liveness(system, prefixes_of(system, budget),
                                    property, algorithm, budget,
                                    inclusion_threads);
  });
}

RelativeLivenessResult relative_liveness(const Buchi& system, Formula f,
                                         const Labeling& lambda,
                                         InclusionAlgorithm algorithm,
                                         Budget* budget,
                                         std::size_t inclusion_threads) {
  return catching_exhaustion<RelativeLivenessResult>([&] {
    return decide_relative_liveness(
        system, prefixes_of(system, budget), translate_ltl(f, lambda, budget),
        algorithm, budget, inclusion_threads);
  });
}

RelativeSafetyResult relative_safety(const Buchi& system,
                                     const Buchi& property, Budget* budget) {
  return catching_exhaustion<RelativeSafetyResult>([&] {
    return decide_relative_safety(system, property,
                                  complement_buchi(property, budget), budget);
  });
}

RelativeSafetyResult relative_safety(const Buchi& system, Formula f,
                                     const Labeling& lambda, Budget* budget) {
  return catching_exhaustion<RelativeSafetyResult>([&] {
    const Buchi property = translate_ltl(f, lambda, budget);
    return decide_relative_safety(
        system, property, translate_ltl_negated(f, lambda, budget), budget);
  });
}

SatisfactionResult satisfies(const Buchi& system, const Buchi& property,
                             Budget* budget) {
  return catching_exhaustion<SatisfactionResult>([&] {
    return decide_satisfaction(system, complement_buchi(property, budget),
                               budget);
  });
}

SatisfactionResult satisfies(const Buchi& system, Formula f,
                             const Labeling& lambda, Budget* budget) {
  return catching_exhaustion<SatisfactionResult>([&] {
    return decide_satisfaction(
        system, translate_ltl_negated(f, lambda, budget), budget);
  });
}

}  // namespace rlv

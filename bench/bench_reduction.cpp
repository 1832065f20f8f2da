// Optimization-layer benchmarks: LTL simplification (rlv/ltl/simplify) and
// simulation-based Büchi reduction (rlv/omega/reduce) — how much smaller do
// the property automata get, at what cost, and what does that buy the
// downstream relative liveness check.

#include <benchmark/benchmark.h>

#include <utility>

#include "rlv/core/relative.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/simplify.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/reduce.hpp"
#include "rlv/util/rng.hpp"

namespace {

using namespace rlv;

void BM_Reduce_RandomTranslations(benchmark::State& state) {
  Rng rng(17);
  auto sigma = random_alphabet(2);
  const Labeling lambda = Labeling::canonical(sigma);
  std::vector<Buchi> automata;
  for (int i = 0; i < 12; ++i) {
    const Formula f =
        random_formula(rng, {sigma->name(0), sigma->name(1)}, 4);
    automata.push_back(translate_ltl(to_pnf(f), lambda));
  }
  std::size_t before = 0;
  std::size_t after = 0;
  for (auto _ : state) {
    before = after = 0;
    for (const Buchi& a : automata) {
      before += a.num_states();
      after += reduce_buchi(a).num_states();
    }
    benchmark::DoNotOptimize(std::as_const(after));
  }
  state.counters["states_before"] = static_cast<double>(before);
  state.counters["states_after"] = static_cast<double>(after);
}
BENCHMARK(BM_Reduce_RandomTranslations)->Unit(benchmark::kMillisecond);

void BM_Simplify_RandomFormulas(benchmark::State& state) {
  Rng rng(23);
  std::vector<Formula> formulas;
  for (int i = 0; i < 64; ++i) {
    formulas.push_back(random_formula(rng, {"a", "b"}, 5));
  }
  std::size_t before = 0;
  std::size_t after = 0;
  for (auto _ : state) {
    before = after = 0;
    for (const Formula f : formulas) {
      before += to_pnf(f).size();
      after += simplify_ltl(f).size();
    }
    benchmark::DoNotOptimize(std::as_const(after));
  }
  state.counters["nodes_before"] = static_cast<double>(before);
  state.counters["nodes_after"] = static_cast<double>(after);
}
BENCHMARK(BM_Simplify_RandomFormulas)->Unit(benchmark::kMillisecond);

void BM_Reduce_EffectOnRelativeLiveness(benchmark::State& state) {
  // End-to-end: relative liveness of a redundant formula on the paper's
  // server, with and without the optimization layers.
  const bool optimized = state.range(0) != 0;
  const Nfa fig2 = figure2_system();
  const Buchi system = limit_of_prefix_closed(fig2);
  const Labeling lambda = Labeling::canonical(fig2.alphabet());
  // Deliberately redundant property text.
  const Formula f =
      parse_ltl("G G F F result && (G F result || G F result)");

  bool holds = false;
  for (auto _ : state) {
    const Formula prepared = optimized ? simplify_ltl(f) : to_pnf(f);
    Buchi property = translate_ltl(prepared, lambda);
    if (optimized) property = reduce_buchi(property);
    holds = relative_liveness(system, property).holds;
    benchmark::DoNotOptimize(std::as_const(holds));
  }
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_Reduce_EffectOnRelativeLiveness)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"optimized"})
    ->Unit(benchmark::kMicrosecond);

void BM_Fairness_WeakVsStrong(benchmark::State& state) {
  // Cost of the fair-satisfaction check under the two fairness notions
  // (the weak encoding has all-edges antecedents — different Streett
  // recursion behavior).
  const bool weak = state.range(0) != 0;
  const Nfa fig2 = figure2_system();
  const Buchi system = limit_of_prefix_closed(fig2);
  const Labeling lambda = Labeling::canonical(fig2.alphabet());
  const Formula f = parse_ltl("G F result");
  bool ok = false;
  for (auto _ : state) {
    ok = check_fair_satisfaction(system, f, lambda,
                                 weak ? FairnessKind::kWeakTransition
                                      : FairnessKind::kStrongTransition)
             .all_fair_runs_satisfy;
    benchmark::DoNotOptimize(std::as_const(ok));
  }
  state.counters["satisfied"] = ok ? 1 : 0;
}
BENCHMARK(BM_Fairness_WeakVsStrong)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"weak"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Experiment E11: rank-based Büchi complementation (Kupferman–Vardi) — the
// substrate needed when relative safety is checked against an
// automaton-given property. Documents the (expected) exponential growth and
// contrasts it with the formula route (translate ¬η), which the library
// prefers whenever a formula is available.

#include <benchmark/benchmark.h>

#include <utility>

#include "rlv/gen/random.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/util/rng.hpp"

namespace {

using namespace rlv;

void BM_Complement_RandomBuchi(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  auto sigma = random_alphabet(2);
  std::vector<Buchi> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(random_buchi(rng, n, sigma));

  std::size_t total_states = 0;
  for (auto _ : state) {
    total_states = 0;
    for (const Buchi& a : inputs) {
      const Buchi comp = complement_buchi(a);
      total_states += comp.num_states();
    }
    benchmark::DoNotOptimize(std::as_const(total_states));
  }
  state.counters["avg_comp_states"] =
      static_cast<double>(total_states) / static_cast<double>(inputs.size());
}
BENCHMARK(BM_Complement_RandomBuchi)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

void BM_Complement_FormulaRouteInstead(benchmark::State& state) {
  // The same complement obtained as translate(¬η) for η = G F a: orders of
  // magnitude smaller than rank-complementing translate(η).
  auto sigma = Alphabet::make({"a", "b"});
  const Labeling lambda = Labeling::canonical(sigma);
  const Formula f = parse_ltl("G F a");
  std::size_t states = 0;
  for (auto _ : state) {
    const Buchi neg = translate_ltl_negated(f, lambda);
    states = neg.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["aut_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Complement_FormulaRouteInstead)->Unit(benchmark::kMicrosecond);

void BM_Complement_RankRouteOnGFa(benchmark::State& state) {
  auto sigma = Alphabet::make({"a", "b"});
  const Labeling lambda = Labeling::canonical(sigma);
  const Buchi pos = translate_ltl(parse_ltl("G F a"), lambda);
  std::size_t states = 0;
  for (auto _ : state) {
    const Buchi comp = complement_buchi(pos);
    states = comp.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["aut_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Complement_RankRouteOnGFa)->Unit(benchmark::kMillisecond);

}  // namespace

// Experiment E13: LTL→Büchi translation (GPVW) — time and automaton sizes
// on standard formula families: nested G F, Until chains, and Next towers.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "rlv/gen/random.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"

namespace {

using namespace rlv;

Labeling two_letter_labeling() {
  static AlphabetRef sigma = Alphabet::make({"a", "b"});
  return Labeling::canonical(sigma);
}

void BM_Translate_NestedGF(benchmark::State& state) {
  // Conjunctions of distinct G F obligations (distinct subterms — repeated
  // conjuncts would be deduplicated by hash-consing).
  const int k = static_cast<int>(state.range(0));
  static const char* kConjuncts[] = {"G F a", "G F b", "G F (a && X b)",
                                     "G F (b && X a)"};
  std::string text;
  for (int i = 0; i < k; ++i) {
    if (i) text += " && ";
    text += kConjuncts[i % 4];
  }
  const Formula f = parse_ltl(text);
  const Labeling lambda = two_letter_labeling();
  std::size_t states = 0;
  for (auto _ : state) {
    const Buchi automaton = translate_ltl(f, lambda);
    states = automaton.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["aut_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Translate_NestedGF)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_Translate_UntilChain(benchmark::State& state) {
  // a U (b U (a U ...)).
  const int k = static_cast<int>(state.range(0));
  std::string text;
  for (int i = 0; i < k; ++i) {
    text += (i % 2 == 0) ? "a U (" : "b U (";
  }
  text += "a";
  text += std::string(static_cast<std::size_t>(k), ')');
  const Formula f = parse_ltl(text);
  const Labeling lambda = two_letter_labeling();
  std::size_t states = 0;
  for (auto _ : state) {
    const Buchi automaton = translate_ltl(f, lambda);
    states = automaton.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["aut_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Translate_UntilChain)->DenseRange(1, 6)->Unit(benchmark::kMillisecond);

void BM_Translate_NextTower(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::string text;
  for (int i = 0; i < k; ++i) text += "X ";
  text += "a";
  const Formula f = parse_ltl(text);
  const Labeling lambda = two_letter_labeling();
  std::size_t states = 0;
  for (auto _ : state) {
    const Buchi automaton = translate_ltl(f, lambda);
    states = automaton.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["aut_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Translate_NextTower)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_Translate_TransformedRbar(benchmark::State& state) {
  // The formulas the preservation pipeline actually translates: R̄(G F p)
  // over a concrete alphabet with hidden letters — measures the overhead the
  // ε-rewiring adds.
  auto source = Alphabet::make({"p", "q", "t1", "t2"});
  std::vector<std::vector<std::string>> labels = {
      {"p"}, {"q"}, {"eps"}, {"eps"}};
  const Labeling lambda(source, labels);
  const Formula f = parse_ltl(
      "G(eps || (true U (!eps && (eps U (!eps && p)))))");
  std::size_t states = 0;
  for (auto _ : state) {
    const Buchi automaton = translate_ltl(f, lambda);
    states = automaton.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["aut_states"] = static_cast<double>(states);
}
BENCHMARK(BM_Translate_TransformedRbar)->Unit(benchmark::kMillisecond);

}  // namespace

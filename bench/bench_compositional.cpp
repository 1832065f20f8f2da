// Experiment E10/§9: computing the abstract behavior compositionally. The
// sequential pipeline builds the full synchronized product, then abstracts
// (image + determinize + minimize); the on-the-fly construction interleaves
// the three and never materializes the product transition relation. Also
// reports configurations touched vs product size.

#include <benchmark/benchmark.h>

#include <utility>

#include "rlv/comp/abstraction.hpp"
#include "rlv/comp/sync.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/hom/image.hpp"

namespace {

using namespace rlv;

void BM_Compositional_Sequential(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto components = resource_server_components(n);
  const Homomorphism h =
      resource_server_abstraction(components.front().automaton.alphabet());
  std::size_t abstract_states = 0;
  std::size_t product_states = 0;
  for (auto _ : state) {
    const Nfa product = sync_product(components);
    product_states = product.num_states();
    const Nfa abstract = reduced_image_nfa(product, h);
    abstract_states = abstract.num_states();
    benchmark::DoNotOptimize(std::as_const(abstract_states));
  }
  state.counters["product_states"] = static_cast<double>(product_states);
  state.counters["abstract_states"] = static_cast<double>(abstract_states);
}
BENCHMARK(BM_Compositional_Sequential)
    ->DenseRange(1, 6)
    ->Unit(benchmark::kMillisecond);

void BM_Compositional_OnTheFly(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto components = resource_server_components(n);
  const Homomorphism h =
      resource_server_abstraction(components.front().automaton.alphabet());
  std::size_t abstract_states = 0;
  std::size_t touched = 0;
  for (auto _ : state) {
    const OnTheFlyResult result = on_the_fly_abstraction(components, h);
    abstract_states = result.abstract.num_states();
    touched = result.configurations_touched;
    benchmark::DoNotOptimize(std::as_const(abstract_states));
  }
  state.counters["configs_touched"] = static_cast<double>(touched);
  state.counters["abstract_states"] = static_cast<double>(abstract_states);
}
BENCHMARK(BM_Compositional_OnTheFly)
    ->DenseRange(1, 6)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Experiment E14: deciding simplicity of an abstracting homomorphism
// (Definition 6.3) — the certification step that makes the Theorem 8.2
// transfer sound. Measured on the paper's systems, the scalable server and
// the dining philosophers (E32). The subset constructions under it — the
// determinized unfolding and the reduced image h(L) — are measured on
// their own (E33).

#include <benchmark/benchmark.h>

#include "rlv/gen/families.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/hom/simplicity.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"

namespace {

using namespace rlv;

// The loops hand DoNotOptimize the const result, never the reported
// `simple` flag: passed through google-benchmark 1.7's read-write overload
// ("+r,m"), the flag came out 0 for simple systems under GCC -O3.

void BM_Simplicity_Figure2(benchmark::State& state) {
  const Nfa fig2 = figure2_system();
  const Homomorphism h = paper_abstraction(fig2.alphabet());
  bool simple = false;
  for (auto _ : state) {
    const SimplicityResult res = check_simplicity(fig2, h);
    benchmark::DoNotOptimize(res);
    simple = res.simple;
  }
  state.counters["simple"] = simple ? 1 : 0;
}
BENCHMARK(BM_Simplicity_Figure2)->Unit(benchmark::kMicrosecond);

void BM_Simplicity_Figure3(benchmark::State& state) {
  const Nfa fig3 = figure3_system();
  const Homomorphism h = paper_abstraction(fig3.alphabet());
  bool simple = true;
  for (auto _ : state) {
    const SimplicityResult res = check_simplicity(fig3, h);
    benchmark::DoNotOptimize(res);
    simple = res.simple;
  }
  state.counters["simple"] = simple ? 1 : 0;
}
BENCHMARK(BM_Simplicity_Figure3)->Unit(benchmark::kMicrosecond);

void BM_Simplicity_ResourceServer(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Homomorphism h = resource_server_abstraction(graph.system.alphabet());
  bool simple = false;
  std::size_t pairs = 0;
  for (auto _ : state) {
    const SimplicityResult res = check_simplicity(graph.system, h);
    benchmark::DoNotOptimize(res);
    simple = res.simple;
    pairs = res.pairs_checked;
  }
  state.counters["states"] = static_cast<double>(graph.system.num_states());
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["simple"] = simple ? 1 : 0;
}
BENCHMARK(BM_Simplicity_ResourceServer)
    ->DenseRange(1, 5)
    ->Unit(benchmark::kMillisecond);

// philosophers(n) under its `hide` abstraction, #-extended as rlv_check
// --net-hom does (the unfolding deadlocks). Simple at every n.
void BM_Simplicity_Philosophers(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const petri::NetFile file = petri::philosophers_net(n);
  const Nfa system =
      extend_maximal_words(build_reachability_graph(file.net).system);
  const Homomorphism h =
      petri::derive_abstraction(system.alphabet(), file.hidden);
  bool simple = false;
  std::size_t pairs = 0;
  for (auto _ : state) {
    const SimplicityResult res = check_simplicity(system, h);
    benchmark::DoNotOptimize(res);
    simple = res.simple;
    pairs = res.pairs_checked;
  }
  state.counters["states"] = static_cast<double>(system.num_states());
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["simple"] = simple ? 1 : 0;
}
BENCHMARK(BM_Simplicity_Philosophers)
    ->DenseRange(3, 5)
    ->Unit(benchmark::kMillisecond);

// The subset construction on the (deterministic) unfolding of
// philosophers(n): has_maximal_words and extend_maximal_words run it.
void BM_Determinize_Philosophers(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Nfa system =
      build_reachability_graph(petri::philosophers_net(n).net).system;
  std::size_t dfa_states = 0;
  for (auto _ : state) {
    const Dfa dfa = determinize(system);
    benchmark::DoNotOptimize(dfa);
    dfa_states = dfa.num_states();
  }
  state.counters["states"] = static_cast<double>(system.num_states());
  state.counters["dfa_states"] = static_cast<double>(dfa_states);
}
BENCHMARK(BM_Determinize_Philosophers)
    ->Name("Determinize/Philosophers")
    ->DenseRange(5, 7)
    ->Unit(benchmark::kMillisecond);

// The image "after reduction" (Fig. 4's construction) of a system under its
// abstraction: the hidden-closure subset construction, then minimization.
void reduced_image(benchmark::State& state, const Nfa& system,
                   const Homomorphism& h) {
  std::size_t image_states = 0;
  for (auto _ : state) {
    const Nfa image = reduced_image_nfa(system, h);
    benchmark::DoNotOptimize(image);
    image_states = image.num_states();
  }
  state.counters["states"] = static_cast<double>(system.num_states());
  state.counters["image_states"] = static_cast<double>(image_states);
}

// philosophers(n), #-extended as in BM_Simplicity_Philosophers.
void BM_ReducedImage_Philosophers(benchmark::State& state) {
  const petri::NetFile file =
      petri::philosophers_net(static_cast<std::size_t>(state.range(0)));
  const Nfa system =
      extend_maximal_words(build_reachability_graph(file.net).system);
  reduced_image(state, system,
                petri::derive_abstraction(system.alphabet(), file.hidden));
}
BENCHMARK(BM_ReducedImage_Philosophers)
    ->Name("ReducedImage/Philosophers")
    ->DenseRange(5, 7)
    ->Unit(benchmark::kMillisecond);

void BM_ReducedImage_ResourceServer(benchmark::State& state) {
  const Nfa system = build_reachability_graph(resource_server_net(
                         static_cast<std::size_t>(state.range(0))))
                         .system;
  reduced_image(state, system, resource_server_abstraction(system.alphabet()));
}
BENCHMARK(BM_ReducedImage_ResourceServer)
    ->Name("ReducedImage/ResourceServer")
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

}  // namespace

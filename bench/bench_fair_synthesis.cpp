// Experiment E6 (Theorem 5.1): cost of synthesizing the fair implementation
// (reduced product, acceptance dropped) and of *validating* it — language
// equality plus the Streett-based check that all strongly fair runs satisfy
// the property.

#include <benchmark/benchmark.h>

#include <utility>

#include "rlv/core/fair_synthesis.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/reachability.hpp"

namespace {

using namespace rlv;

void BM_Synthesis_Construct(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Formula f = parse_ltl("G F result_0");

  std::size_t impl_states = 0;
  for (auto _ : state) {
    const FairImplementation impl =
        synthesize_fair_implementation(system, f, lambda);
    impl_states = impl.system.num_states();
    benchmark::DoNotOptimize(std::as_const(impl_states));
  }
  state.counters["system_states"] =
      static_cast<double>(graph.system.num_states());
  state.counters["impl_states"] = static_cast<double>(impl_states);
}
BENCHMARK(BM_Synthesis_Construct)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

void BM_Synthesis_ValidateLanguage(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const FairImplementation impl = synthesize_fair_implementation(
      system, parse_ltl("G F result_0"), lambda);
  bool equal = false;
  for (auto _ : state) {
    equal = same_limit_closed_language(system, impl.system);
    benchmark::DoNotOptimize(std::as_const(equal));
  }
  state.counters["equal"] = equal ? 1 : 0;
}
BENCHMARK(BM_Synthesis_ValidateLanguage)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);

void BM_Synthesis_ValidateFairness(benchmark::State& state) {
  // The Streett check is the expensive part: one fairness pair per product
  // edge. Sizes kept small on purpose.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Formula f = parse_ltl("G F result_0");
  const FairImplementation impl =
      synthesize_fair_implementation(system, f, lambda);
  bool ok = false;
  for (auto _ : state) {
    ok = check_fair_satisfaction(impl.system, f, lambda).all_fair_runs_satisfy;
    benchmark::DoNotOptimize(std::as_const(ok));
  }
  state.counters["impl_states"] =
      static_cast<double>(impl.system.num_states());
  state.counters["ok"] = ok ? 1 : 0;
}
BENCHMARK(BM_Synthesis_ValidateFairness)
    ->DenseRange(1, 2)
    ->Unit(benchmark::kMillisecond);

void BM_Synthesis_TokenRing(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Nfa ring = token_ring(n);
  const Buchi system = limit_of_prefix_closed(ring);
  const Labeling lambda = Labeling::canonical(ring.alphabet());
  const Formula f = parse_ltl("G F work_0");
  std::size_t impl_states = 0;
  for (auto _ : state) {
    const FairImplementation impl =
        synthesize_fair_implementation(system, f, lambda);
    impl_states = impl.system.num_states();
    benchmark::DoNotOptimize(std::as_const(impl_states));
  }
  state.counters["impl_states"] = static_cast<double>(impl_states);
}
BENCHMARK(BM_Synthesis_TokenRing)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Experiment E10 — the paper's raison d'être: verifying the relative
// liveness property on the *abstraction* instead of the concrete system.
// Three measurements per system size:
//   (a) direct concrete check of R̄(η) on lim(L),
//   (b) abstract check of η on lim(h(L)) alone (what you pay per property
//       once the homomorphism is certified simple),
//   (c) the full pipeline including the one-off simplicity certification.
// The abstract check is property-count amortizable: one certification, many
// properties.

#include <benchmark/benchmark.h>

#include <utility>

#include "rlv/core/preservation.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/reachability.hpp"

namespace {

using namespace rlv;

struct Setup {
  Nfa system;
  Homomorphism h;
  Formula eta;
};

Setup make_setup(std::size_t n) {
  ReachabilityGraph graph = build_reachability_graph(resource_server_net(n));
  Homomorphism h = resource_server_abstraction(graph.system.alphabet());
  return {std::move(graph.system), std::move(h),
          to_pnf(parse_ltl("G F result_0"))};
}

void BM_Abstraction_DirectConcrete(benchmark::State& state) {
  const Setup setup = make_setup(static_cast<std::size_t>(state.range(0)));
  bool holds = false;
  for (auto _ : state) {
    holds = concrete_relative_liveness(setup.system, setup.h, setup.eta);
    benchmark::DoNotOptimize(std::as_const(holds));
  }
  state.counters["states"] = static_cast<double>(setup.system.num_states());
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_Abstraction_DirectConcrete)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

void BM_Abstraction_AbstractOnly(benchmark::State& state) {
  const Setup setup = make_setup(static_cast<std::size_t>(state.range(0)));
  bool holds = false;
  for (auto _ : state) {
    holds = abstract_relative_liveness(setup.system, setup.h, setup.eta);
    benchmark::DoNotOptimize(std::as_const(holds));
  }
  state.counters["states"] = static_cast<double>(setup.system.num_states());
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_Abstraction_AbstractOnly)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

void BM_Abstraction_PerPropertyAmortized(benchmark::State& state) {
  // The paper's intended usage: the abstraction (and its simplicity
  // certificate) are computed once per system; each additional property is
  // then checked on the tiny abstract automaton. This measures the
  // per-property cost on the precomputed abstraction.
  const Setup setup = make_setup(static_cast<std::size_t>(state.range(0)));
  const Nfa abstract = reduced_image_nfa(setup.system, setup.h);
  const Buchi abstract_behaviors = limit_of_prefix_closed(abstract);
  const Labeling lambda = Labeling::canonical(setup.h.target());
  bool holds = false;
  for (auto _ : state) {
    holds = relative_liveness(abstract_behaviors, setup.eta, lambda).holds;
    benchmark::DoNotOptimize(std::as_const(holds));
  }
  state.counters["states"] = static_cast<double>(setup.system.num_states());
  state.counters["abstract_states"] =
      static_cast<double>(abstract.num_states());
  state.counters["holds"] = holds ? 1 : 0;
}
BENCHMARK(BM_Abstraction_PerPropertyAmortized)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

void BM_Abstraction_FullPipeline(benchmark::State& state) {
  const Setup setup = make_setup(static_cast<std::size_t>(state.range(0)));
  bool concluded = false;
  std::size_t abstract_states = 0;
  for (auto _ : state) {
    const AbstractionVerdict verdict =
        verify_via_abstraction(setup.system, setup.h, setup.eta);
    concluded = verdict.concrete_holds.has_value();
    abstract_states = verdict.abstract_states;
    benchmark::DoNotOptimize(std::as_const(concluded));
  }
  state.counters["states"] = static_cast<double>(setup.system.num_states());
  state.counters["abstract_states"] = static_cast<double>(abstract_states);
  state.counters["concluded"] = concluded ? 1 : 0;
}
BENCHMARK(BM_Abstraction_FullPipeline)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Experiment E12 ablation: Büchi emptiness via SCC decomposition (Tarjan)
// vs nested DFS (Courcoubetis et al.) on large random automata and on the
// product automata the relative-liveness checker actually produces.

#include <benchmark/benchmark.h>

#include <utility>

#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/translate.hpp"
#include "rlv/omega/emptiness.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/omega/product.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/util/rng.hpp"

namespace {

using namespace rlv;

void BM_Emptiness_RandomBuchi(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const EmptinessAlgorithm algorithm = state.range(1) == 0
                                           ? EmptinessAlgorithm::kScc
                                           : EmptinessAlgorithm::kNestedDfs;
  Rng rng(11);
  auto sigma = random_alphabet(2);
  const Buchi a = random_buchi(rng, n, sigma);
  bool empty = false;
  for (auto _ : state) {
    empty = buchi_empty(a, algorithm);
    benchmark::DoNotOptimize(std::as_const(empty));
  }
  state.counters["empty"] = empty ? 1 : 0;
}
BENCHMARK(BM_Emptiness_RandomBuchi)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}})
    ->ArgNames({"states", "ndfs"})
    ->Unit(benchmark::kMillisecond);

void BM_Emptiness_ServerProduct(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const EmptinessAlgorithm algorithm = state.range(1) == 0
                                           ? EmptinessAlgorithm::kScc
                                           : EmptinessAlgorithm::kNestedDfs;
  const ReachabilityGraph graph =
      build_reachability_graph(resource_server_net(n));
  const Buchi system = limit_of_prefix_closed(graph.system);
  const Labeling lambda = Labeling::canonical(graph.system.alphabet());
  const Buchi bad =
      intersect_buchi(system, translate_ltl_negated(
                                  parse_ltl("G F result_0"), lambda));
  bool empty = false;
  for (auto _ : state) {
    empty = buchi_empty(bad, algorithm);
    benchmark::DoNotOptimize(std::as_const(empty));
  }
  state.counters["product_states"] = static_cast<double>(bad.num_states());
  state.counters["empty"] = empty ? 1 : 0;
}
BENCHMARK(BM_Emptiness_ServerProduct)
    ->ArgsProduct({{2, 3, 4}, {0, 1}})
    ->ArgNames({"clients", "ndfs"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

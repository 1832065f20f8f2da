// Guarded-command case studies (experiments E17/E20): state-space
// unfolding and the full verification stack (relative liveness + fair
// model checking) on Peterson's mutual exclusion and Chang–Roberts leader
// election.

#include <benchmark/benchmark.h>

#include <utility>

#include "rlv/core/relative.hpp"
#include "rlv/fair/fair_check.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/omega/limit.hpp"

namespace {

using namespace rlv;

void BM_Guarded_PetersonUnfold(benchmark::State& state) {
  std::size_t states = 0;
  for (auto _ : state) {
    const Nfa system = peterson_system();
    states = system.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Guarded_PetersonUnfold)->Unit(benchmark::kMicrosecond);

void BM_Guarded_LeaderElectionUnfold(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    const Nfa system = leader_election_system(n);
    states = system.num_states();
    benchmark::DoNotOptimize(std::as_const(states));
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Guarded_LeaderElectionUnfold)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

void BM_Guarded_PetersonStarvationFreedom(benchmark::State& state) {
  const Nfa system = peterson_system();
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f = parse_ltl("G(req_0 -> F enter_0)");
  bool rl = false;
  bool fair = false;
  for (auto _ : state) {
    rl = relative_liveness(behaviors, f, lambda).holds;
    fair = check_fair_satisfaction(behaviors, f, lambda).all_fair_runs_satisfy;
    benchmark::DoNotOptimize(std::as_const(fair));
  }
  state.counters["rl"] = rl ? 1 : 0;
  state.counters["fair"] = fair ? 1 : 0;
}
BENCHMARK(BM_Guarded_PetersonStarvationFreedom)->Unit(benchmark::kMillisecond);

void BM_Guarded_LeaderElectionLiveness(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Nfa system = leader_election_system(n);
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const Formula f =
      parse_ltl("F elected_" + std::to_string(n - 1));
  bool rl = false;
  for (auto _ : state) {
    rl = relative_liveness(behaviors, f, lambda).holds;
    benchmark::DoNotOptimize(std::as_const(rl));
  }
  state.counters["states"] = static_cast<double>(system.num_states());
  state.counters["rl"] = rl ? 1 : 0;
}
BENCHMARK(BM_Guarded_LeaderElectionLiveness)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// petri_pipeline: what `rlv_check --petri-file --net-hom` does, in a closed
// loop on one thread. Each instance unfolds a net under a state cap,
// #-extends a deadlocking unfolding, derives the abstraction and runs the
// Thm 8.2/8.3 pipeline. Instances come in rounds of fixed composition (the
// seed picks sizes within a class, labels, formulas, random nets and the
// order), so every seed weighs the cost classes the same:
//
//   philosophers 7 x1, 6 x2, 5 x6   G F eat_i / G F done_i: the abstract
//                                   check fails and Thm 8.3 refutes, so the
//                                   cost is unfolding + maximal words;
//   resource_server 4 x1, 3 x2, 2 x5  abstract-true patterns over client 0:
//                                   the positive Thm 8.2 transfer through
//                                   check_simplicity;
//   ring x3, buffer x3, flight x1   pattern formulas over visible labels;
//   random_safe_net x2              random depth-2 formula over kept labels.
//
// Sorted by cost the 26 instances of a round are 9 small ones, then
// resource_server(2), philosophers(5), resource_server(3), philosophers(6),
// philosophers(7) and resource_server(4). For any whole number of rounds
// the median falls inside the resource_server(2) class and p90 (the tail
// percentile: four or five rounds give 104-130 verdicts) inside
// philosophers(6), so neither statistic sits on a class boundary. A run
// executes whole rounds until --seconds have passed.
//
// Philosophers formulas are restricted to the abstract-false patterns on
// purpose: an abstract-true formula sends philosophers(6) into
// check_simplicity for over a minute, and no Budget reaches it.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rlv/cert/certificate.hpp"
#include "rlv/cert/oracle.hpp"
#include "rlv/core/preservation.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/hom/simplicity.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/transform.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"

namespace bench {
namespace {

using namespace rlv;

constexpr std::size_t kDeckRounds = 16;
constexpr std::uint64_t kUnfoldStateCap = 1'000'000;
constexpr auto kUnfoldGuard = std::chrono::seconds(60);
constexpr std::size_t kOracleMaxStates = 24;
constexpr int kSetupRepeats = 5;

struct Instance {
  std::string key;  // identifies the (net, formula) pair across rounds
  petri::NetFile file;
  bool resource_server = false;  // abstraction from resource_server_abstraction
  std::string formula;
};

struct Outcome {
  std::optional<bool> concluded;
  bool exhausted = false;
  double latency_ms = 0.0;
  std::int64_t verify_ns = 0;
  std::size_t states = 0;
};

std::string pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.next_below(options.size())];
}

Instance philosophers(Rng& rng, std::size_t n) {
  const std::string i = std::to_string(rng.next_below(n));
  Instance inst;
  inst.file = petri::philosophers_net(n);
  inst.formula = pick(rng, {"G F eat_" + i, "G F done_" + i});
  inst.key = inst.file.name + "|" + inst.formula;
  return inst;
}

Instance resource_server(Rng& rng, std::size_t clients) {
  Instance inst;
  inst.file.name = "resource_server_" + std::to_string(clients);
  inst.file.net = resource_server_net(clients);
  inst.resource_server = true;
  inst.formula = pick(rng, {"G F result_0", "G F request_0",
                            "G (request_0 -> F (result_0 | reject_0))"});
  inst.key = inst.file.name + "|" + inst.formula;
  return inst;
}

Instance ring(Rng& rng) {
  const std::size_t n = 3 + rng.next_below(6);
  const std::string i = std::to_string(rng.next_below(n));
  const std::string j = std::to_string(rng.next_below(n));
  Instance inst;
  inst.file = petri::ring_workflow_net(n);
  inst.formula =
      pick(rng, {"G F work_" + i, "G (work_" + i + " -> F work_" + j + ")"});
  inst.key = inst.file.name + "|" + inst.formula;
  return inst;
}

Instance buffer(Rng& rng) {
  Instance inst;
  inst.file = petri::bounded_buffer_net(1 + rng.next_below(6));
  inst.formula = pick(rng, {"G F consume", "G (produce -> F consume)",
                            "G F produce"});
  inst.key = inst.file.name + "|" + inst.formula;
  return inst;
}

Instance flight(Rng& rng) {
  Instance inst;
  inst.file = petri::flight_workflow_net();
  inst.formula = pick(rng, {"G (takeoff -> F land)", "G F takeoff",
                            "G (land -> (!land U takeoff))"});
  inst.key = inst.file.name + "|" + inst.formula;
  return inst;
}

Instance random_net(Rng& rng, std::uint64_t net_seed) {
  Rng net_rng(net_seed);
  Instance inst;
  inst.file = random_safe_net(net_rng, 3, 4);
  const ReachabilityGraph graph = build_reachability_graph(inst.file.net);
  std::vector<std::string> kept;
  const AlphabetRef& sigma = graph.system.alphabet();
  for (Symbol s = 0; s < sigma->size(); ++s) {
    const std::string& name = sigma->name(s);
    if (std::find(inst.file.hidden.begin(), inst.file.hidden.end(), name) ==
        inst.file.hidden.end()) {
      kept.push_back(name);
    }
  }
  if (kept.empty()) kept.push_back(sigma->name(0));
  inst.formula = random_formula(rng, kept, 2).to_string();
  inst.key = "random_safe_" + std::to_string(net_seed) + "|" + inst.formula;
  return inst;
}

std::vector<Instance> make_round(std::uint64_t seed, std::uint64_t round) {
  Rng rng(item_seed(seed, round));
  std::vector<Instance> out;
  out.push_back(philosophers(rng, 7));
  for (int k = 0; k < 2; ++k) out.push_back(philosophers(rng, 6));
  for (int k = 0; k < 6; ++k) out.push_back(philosophers(rng, 5));
  out.push_back(resource_server(rng, 4));
  for (int k = 0; k < 2; ++k) out.push_back(resource_server(rng, 3));
  for (int k = 0; k < 5; ++k) out.push_back(resource_server(rng, 2));
  for (int k = 0; k < 3; ++k) out.push_back(ring(rng));
  for (int k = 0; k < 3; ++k) out.push_back(buffer(rng));
  out.push_back(flight(rng));
  for (int k = 0; k < 2; ++k) {
    out.push_back(random_net(rng, item_seed(seed, 1000 * round + k)));
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

Homomorphism abstraction_for(const Instance& inst, const AlphabetRef& sigma) {
  return inst.resource_server
             ? resource_server_abstraction(sigma)
             : petri::derive_abstraction(sigma, inst.file.hidden);
}

/// Unfolding plus the #-extension rlv_check applies to deadlocked nets.
Nfa unfold(const Instance& inst, Budget* budget, Tracer* tracer,
           std::uint32_t id, std::size_t* states) {
  ReachabilityGraph graph = [&] {
    Scope span(tracer, "petri.unfold", Layer::kPetri, id);
    return build_reachability_graph(inst.file.net, {}, budget);
  }();
  *states = graph.system.num_states();
  bool maximal = false;
  {
    Scope span(tracer, "core.has_maximal_words", Layer::kCore, id);
    maximal = has_maximal_words(graph.system);
  }
  if (!maximal) return std::move(graph.system);
  Scope span(tracer, "hom.extend_maximal", Layer::kHom, id);
  return extend_maximal_words(graph.system);
}

/// verify_via_abstraction, made of the same public calls so that each can
/// carry a span; the conclusion rule is Thm 8.2 / Thm 8.3 as stated in
/// core/preservation.hpp.
std::optional<bool> traced_verify(const Nfa& system, const Homomorphism& h,
                                  Formula eta, Tracer* tracer,
                                  std::uint32_t id, std::size_t* pairs) {
  {
    Scope span(tracer, "ltl.transform_rbar", Layer::kLtl, id);
    (void)transform_rbar(to_pnf(eta));
  }
  {
    Scope span(tracer, "lang.trim", Layer::kLang, id);
    (void)trim(system);
  }
  const Nfa abstract = [&] {
    Scope span(tracer, "hom.image", Layer::kHom, id);
    return reduced_image_nfa(system, h);
  }();
  bool image_maximal = false;
  {
    Scope span(tracer, "core.has_maximal_words", Layer::kCore, id);
    image_maximal = has_maximal_words(abstract);
  }
  if (abstract.num_states() == 0) return true;
  bool abstract_holds = false;
  {
    Scope span(tracer, "core.abstract_rl", Layer::kCore, id);
    Budget profile;
    const Buchi limit = [&] {
      StageScope stage(&profile, Stage::kPreTrim);
      return limit_of_prefix_closed(abstract);
    }();
    abstract_holds =
        relative_liveness(limit, to_pnf(eta), Labeling::canonical(h.target()),
                          InclusionAlgorithm::kAntichain, &profile)
            .holds;
    tracer->attribute_profile(span.id(), profile.profile());
  }
  bool divergence = false;
  {
    Scope span(tracer, "core.divergence", Layer::kCore, id);
    divergence = hides_divergence(system, h);
  }
  if (!abstract_holds) {
    if (!image_maximal && !divergence) return false;
    return std::nullopt;
  }
  SimplicityResult simplicity;
  {
    Scope span(tracer, "hom.simplicity", Layer::kHom, id);
    simplicity = check_simplicity(system, h);
  }
  *pairs += simplicity.pairs_checked;
  if (simplicity.simple && !image_maximal) return true;
  return std::nullopt;
}

Outcome run_instance(const Instance& inst, Tracer* tracer, std::uint32_t id,
                     std::size_t* pairs, std::uint64_t* peak_bytes) {
  Outcome out;
  const double cpu_start = thread_cpu_ms();
  Scope root(tracer, "bench.instance", Layer::kBench, id);
  Budget budget;
  budget.set_max_states(kUnfoldStateCap);
  budget.set_deadline_in(kUnfoldGuard);
  try {
    const Nfa system = unfold(inst, &budget, tracer, id, &out.states);
    const Homomorphism h = [&] {
      Scope span(tracer, "petri.derive_abstraction", Layer::kPetri, id);
      return abstraction_for(inst, system.alphabet());
    }();
    const Formula eta = [&] {
      Scope span(tracer, "ltl.parse", Layer::kLtl, id);
      return to_pnf(parse_ltl(inst.formula));
    }();
    const auto verify_start = Clock::now();
    if (tracer) {
      Scope span(tracer, "core.verify", Layer::kCore, id);
      out.concluded = traced_verify(system, h, eta, tracer, id, pairs);
    } else {
      out.concluded = verify_via_abstraction(system, h, eta).concrete_holds;
    }
    out.verify_ns = nanos_between(verify_start, Clock::now());
  } catch (const ResourceExhausted&) {
    out.exhausted = true;
  }
  const auto& unfold_stage = budget.profile()[Stage::kPetriUnfold];
  *peak_bytes = std::max<std::uint64_t>(*peak_bytes,
                                        unfold_stage.peak_memory_bytes.load());
  out.latency_ms = thread_cpu_ms() - cpu_start;
  return out;
}

struct DirectCheck {
  bool holds = false;
  std::int64_t nanos = 0;
};

/// The direct concrete check the pipeline avoids (lim(L) ⊨_RL R̄(η)), with
/// its witness validated and, on small unfoldings, the brute-force oracle.
/// `unfolded` keeps each net's unfolding across the checks of one run.
DirectCheck direct_check(const Instance& inst,
                         std::map<std::string, Nfa>& unfolded,
                         Result& result) {
  DirectCheck check;
  const std::string net = inst.key.substr(0, inst.key.find('|'));
  auto it = unfolded.find(net);
  if (it == unfolded.end()) {
    std::size_t states = 0;
    Budget budget;
    budget.set_max_states(kUnfoldStateCap);
    it = unfolded.emplace(net, unfold(inst, &budget, nullptr, 0, &states))
             .first;
  }
  const Nfa& system = it->second;
  const Homomorphism h = abstraction_for(inst, system.alphabet());
  const auto start = Clock::now();
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Formula rbar = transform_rbar(to_pnf(parse_ltl(inst.formula)));
  const Labeling lambda = hom_labeling(h);
  const RelativeLivenessResult direct =
      relative_liveness(behaviors, rbar, lambda);
  check.nanos = nanos_between(start, Clock::now());
  check.holds = direct.holds;
  const cert::Validation v = cert::validate(direct, behaviors, rbar, lambda);
  if (!v.valid) {
    note_failure(result, inst.key + ": witness rejected: " + v.reason);
  }
  if (system.num_states() <= kOracleMaxStates &&
      cert::oracle_relative_liveness(behaviors, rbar, lambda) != direct.holds) {
    note_failure(result, inst.key + ": direct check disagrees with oracle");
  }
  return check;
}

}  // namespace

Result run_petri_pipeline(const Args& args) {
  Result result;
  std::vector<std::vector<Instance>> deck;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double cpu_start = process_cpu_s();
    deck.clear();
    for (std::size_t r = 0; r < kDeckRounds; ++r) {
      deck.push_back(make_round(args.seed, r));
    }
    // Warm-up: the tiny instances of round 0 (code and allocator paging).
    std::size_t ignored_pairs = 0;
    std::uint64_t ignored_bytes = 0;
    for (const Instance& inst : deck[0]) {
      if (inst.file.name.rfind("ring", 0) == 0 ||
          inst.file.name.rfind("bounded_buffer", 0) == 0) {
        (void)run_instance(inst, nullptr, 0, &ignored_pairs, &ignored_bytes);
      }
    }
    result.setup_s.push_back(process_cpu_s() - cpu_start);
  }
  result.rss_mb = resident_mb();

  Tracer tracer_storage;
  Tracer* tracer = args.trace ? &tracer_storage : nullptr;
  std::vector<const Instance*> ran;
  std::vector<Outcome> outcomes;
  std::size_t pairs = 0;
  std::uint64_t peak_bytes = 0;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_s();
  for (std::size_t round = 0; seconds_since(start) < args.seconds; ++round) {
    for (const Instance& inst : deck[round % kDeckRounds]) {
      const auto id = static_cast<std::uint32_t>(ran.size());
      outcomes.push_back(run_instance(inst, tracer, id, &pairs, &peak_bytes));
      ran.push_back(&inst);
    }
  }
  result.tail_pct = 90.0;
  result.timed_s = seconds_since(start);
  result.timed_cpu_s = process_cpu_s() - cpu_start;

  // Correctness, outside the timed window: every conclusion against the
  // direct concrete check (once per distinct instance).
  std::map<std::string, DirectCheck> direct;
  std::map<std::string, Nfa> unfolded;
  std::int64_t direct_ns = 0;
  std::int64_t verify_ns = 0;
  std::size_t total_states = 0;
  for (std::size_t i = 0; i < ran.size(); ++i) {
    const Outcome& out = outcomes[i];
    ++result.attempted;
    result.latency_ms.push_back(out.latency_ms);
    total_states += out.states;
    if (out.exhausted || !out.concluded) continue;
    ++result.decided;
    auto it = direct.find(ran[i]->key);
    if (it == direct.end()) {
      it = direct.emplace(ran[i]->key,
                          direct_check(*ran[i], unfolded, result))
               .first;
      direct_ns += it->second.nanos;
      verify_ns += out.verify_ns;
    }
    if (*out.concluded != it->second.holds) {
      note_failure(result, ran[i]->key + ": pipeline concluded " +
                               (*out.concluded ? "true" : "false") +
                               ", direct check says otherwise");
    }
  }
  result.report["distinct_instances"] = {static_cast<double>(direct.size()),
                                         "count"};

  if (tracer) {
    const auto n = static_cast<double>(ran.size());
    const auto per_verdict_ms = [&](const char* span) {
      return static_cast<double>(tracer->total_nanos(span)) / 1e6 / n;
    };
    auto& L = result.layers;
    const std::int64_t unfold_ns = tracer->total_nanos("petri.unfold");
    L["petri.unfold_ms"] = {per_verdict_ms("petri.unfold"), "ms"};
    L["petri.unfold_ns_per_state"] = {
        total_states ? static_cast<double>(unfold_ns) / total_states : 0.0,
        "ns"};
    L["petri.states"] = {static_cast<double>(total_states) / n, "count"};
    L["petri.peak_bytes"] = {static_cast<double>(peak_bytes), "bytes"};
    L["core.has_maximal_words_ms"] = {per_verdict_ms("core.has_maximal_words"),
                                      "ms"};
    L["hom.extend_maximal_ms"] = {per_verdict_ms("hom.extend_maximal"), "ms"};
    L["hom.simplicity_ms"] = {per_verdict_ms("hom.simplicity"), "ms"};
    L["hom.simplicity_pairs"] = {static_cast<double>(pairs) / n, "count"};
    L["hom.image_ms"] = {per_verdict_ms("hom.image"), "ms"};
    L["core.divergence_ms"] = {per_verdict_ms("core.divergence"), "ms"};
    L["core.abstract_rl_ms"] = {per_verdict_ms("core.abstract_rl"), "ms"};
    L["core.verify_ms"] = {per_verdict_ms("core.verify"), "ms"};
    L["core.transfer_concluded_ratio"] = {
        static_cast<double>(result.decided) / n, "ratio"};
    L["core.abstraction_speedup"] = {
        verify_ns > 0 ? static_cast<double>(direct_ns) / verify_ns : 0.0,
        "ratio"};
    add_layer_times(result, *tracer, "bench.instance", ran.size());
    if (!args.trace_out.empty()) tracer->write(args.trace_out);
  }
  return result;
}

}  // namespace bench

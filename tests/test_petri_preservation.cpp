// End-to-end preservation tests for the rlv::petri scenario frontier:
// unfold a classic 1-safe net, derive the abstraction homomorphism from
// its hide annotation, and confirm that the Sections 6–8 transfer theorems
// hold against the direct concrete checks — Theorem 8.2 (simple ⟹ the
// positive abstract verdict transfers), Theorem 8.3 (abstract failure
// refutes concretely, on divergence-free systems), Theorem 4.7 on the
// unfolded systems, plus the brute-force oracle on the small instances.

#include <gtest/gtest.h>

#include <vector>

#include "rlv/cert/oracle.hpp"
#include "rlv/core/preservation.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/hom/image.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/pnf.hpp"
#include "rlv/ltl/transform.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/format.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"

namespace rlv {
namespace {

/// Unfolds the net and #-extends deadlocked markings so h(L) can meet the
/// maximal-word-free side condition of Theorems 8.2/8.3.
Nfa unfold_extended(const petri::NetFile& file) {
  const ReachabilityGraph graph = build_reachability_graph(file.net);
  EXPECT_TRUE(graph.complete);
  return has_maximal_words(graph.system) ? extend_maximal_words(graph.system)
                                         : graph.system;
}

/// Runs the pipeline on (net, hide annotation, eta) and cross-checks every
/// conclusion against the direct concrete check — on systems small enough
/// that the direct R̄(η) model check stays cheap (philosophers(5), 573
/// states, takes under 0.1 s); above the cutoff only the pipeline itself
/// runs (its internal claims are still exercised). Returns the verdict so
/// callers can add scenario-specific expectations.
AbstractionVerdict check_round_trip(const petri::NetFile& file,
                                    const char* eta_text) {
  const Nfa system = unfold_extended(file);
  const Homomorphism h =
      petri::derive_abstraction(system.alphabet(), file.hidden);
  const Formula eta = to_pnf(parse_ltl(eta_text));
  const AbstractionVerdict verdict = verify_via_abstraction(system, h, eta);

  if (system.num_states() > 600) return verdict;
  const bool concrete = concrete_relative_liveness(system, h, eta);
  if (verdict.concrete_holds) {
    // Any conclusion the pipeline draws must match the direct check.
    EXPECT_EQ(*verdict.concrete_holds, concrete)
        << file.name << " / " << eta_text;
  }
  if (verdict.abstract_holds && verdict.simplicity.simple &&
      !verdict.image_has_maximal_words) {
    // Theorem 8.2, checked against the ground truth.
    EXPECT_TRUE(concrete) << file.name << " / " << eta_text;
  }
  if (!verdict.abstract_holds && !verdict.image_has_maximal_words &&
      !verdict.hidden_divergence) {
    // Theorem 8.3 contrapositive.
    EXPECT_FALSE(concrete) << file.name << " / " << eta_text;
  }
  return verdict;
}

TEST(PetriPreservation, PhilosophersRoundTrips) {
  for (std::size_t n = 3; n <= 5; ++n) {
    const petri::NetFile file = petri::philosophers_net(n);
    check_round_trip(file, "G F eat_0");
    check_round_trip(file, "F done_0");
    // The positive-transfer case: this formula holds abstractly, so the
    // pipeline decides simplicity (about 16 ms on philosophers(5) in
    // RelWithDebInfo) and the direct check confirms Theorem 8.2 (90 ms).
    const AbstractionVerdict verdict =
        check_round_trip(file, "G (eat_0 -> F done_0)");
    EXPECT_TRUE(verdict.simplicity.simple) << n;
    ASSERT_TRUE(verdict.concrete_holds.has_value()) << n;
    EXPECT_TRUE(*verdict.concrete_holds) << n;
  }
}

TEST(PetriPreservation, ProducerConsumerRoundTrips) {
  const std::vector<const char*> formulas = {
      "G F consume", "G (produce -> F consume)", "F G produce"};
  for (std::size_t cap = 2; cap <= 4; ++cap) {
    const petri::NetFile file = petri::bounded_buffer_net(cap);
    for (const char* eta : formulas) check_round_trip(file, eta);
  }
}

TEST(PetriPreservation, Figure1AbstractionTransfersPositively) {
  // The paper's own scenario: hiding the resource handling and the answer
  // computation leaves a 2-state abstraction, h is simple, and "G F result"
  // holds abstractly — Theorem 8.2 transfers the verdict even though the
  // hidden lock/free cycle makes the system divergent (divergence only
  // voids the refutation direction).
  petri::NetFile file;
  file.net = figure1_net();
  file.hidden = {"lock", "free", "yes", "no"};
  const AbstractionVerdict verdict = check_round_trip(file, "G F result");
  EXPECT_TRUE(verdict.abstract_holds);
  EXPECT_TRUE(verdict.simplicity.simple);
  EXPECT_TRUE(verdict.hidden_divergence);
  ASSERT_TRUE(verdict.concrete_holds.has_value());
  EXPECT_TRUE(*verdict.concrete_holds);
  EXPECT_LT(verdict.abstract_states, verdict.concrete_states);
}

TEST(PetriPreservation, NonSimpleChoiceDrawsNoConclusion) {
  // The Figure 3 pattern as a net: an irreversible hidden mode choice with
  // persistently different visible futures. Both modes offer `step`
  // forever, but `win` exists only in the good mode — after the hidden
  // go_bad fires, every abstract residual still promises win while the
  // concrete continuations never deliver it, so no witness word u can
  // align them: h is not simple, and the pipeline must refuse to transfer
  // the (abstractly true) "G F win" — which is indeed false concretely.
  petri::NetFile file;
  file.name = "modes";
  PetriNet& net = file.net;
  const PlaceId init = net.add_place("init", 1);
  const PlaceId good = net.add_place("good", 0);
  const PlaceId bad = net.add_place("bad", 0);
  const TransId go_good = net.add_transition("go_good");
  net.add_input(go_good, init);
  net.add_output(go_good, good);
  const TransId go_bad = net.add_transition("go_bad");
  net.add_input(go_bad, init);
  net.add_output(go_bad, bad);
  const TransId step_good = net.add_transition("step");
  net.add_read(step_good, good);
  const TransId step_bad = net.add_transition("step");
  net.add_read(step_bad, bad);
  const TransId win = net.add_transition("win");
  net.add_read(win, good);
  file.hidden = {"go_good", "go_bad"};

  const Nfa system = unfold_extended(file);
  const Homomorphism h =
      petri::derive_abstraction(system.alphabet(), file.hidden);
  const Formula eta = to_pnf(parse_ltl("G F win"));
  const AbstractionVerdict verdict = verify_via_abstraction(system, h, eta);
  EXPECT_TRUE(verdict.abstract_holds);
  EXPECT_FALSE(verdict.simplicity.simple);
  EXPECT_FALSE(verdict.concrete_holds.has_value());
  // Blind transfer would have been unsound: go_bad dooms the property.
  EXPECT_FALSE(concrete_relative_liveness(system, h, eta));
}

TEST(PetriPreservation, HiddenDivergenceRegression) {
  // Regression for the soundness bug the differential fuzzer surfaced: the
  // bounded buffer's hidden `idle` self-loop diverges, an all-ε tail
  // satisfies the weak-release clauses of R̄(η), and for this η the
  // concrete check passes while the abstraction refutes — so the pipeline
  // must detect the divergence and draw no conclusion from the failure.
  const petri::NetFile file = petri::bounded_buffer_net(1);
  const Nfa system = unfold_extended(file);
  const Homomorphism h =
      petri::derive_abstraction(system.alphabet(), file.hidden);
  const Formula eta = to_pnf(parse_ltl("F (consume R produce)"));
  const AbstractionVerdict verdict = verify_via_abstraction(system, h, eta);
  EXPECT_TRUE(verdict.hidden_divergence);
  EXPECT_TRUE(hides_divergence(system, h));
  if (!verdict.abstract_holds) {
    EXPECT_FALSE(verdict.concrete_holds.has_value());
  }
  // The historical mismatch itself: abstract refutes, concrete holds.
  EXPECT_FALSE(abstract_relative_liveness(system, h, eta));
  EXPECT_TRUE(concrete_relative_liveness(system, h, eta));
}

TEST(PetriPreservation, Theorem47OnUnfoldedSystems) {
  // Theorem 4.7 on the unfolded scenario systems: P is a satisfaction
  // relation of lim(L) iff it is both a relative liveness and a relative
  // safety property — checked with the canonical labeling, no abstraction.
  const std::vector<std::pair<petri::NetFile, std::vector<const char*>>>
      cases = {
          {petri::bounded_buffer_net(2), {"G F produce", "F G consume"}},
          {petri::ring_workflow_net(3), {"G F work_0", "F pass_0"}},
          {petri::flight_workflow_net(), {"G F takeoff", "G F land"}},
      };
  for (const auto& [file, formulas] : cases) {
    const ReachabilityGraph graph = build_reachability_graph(file.net);
    const Buchi behaviors = limit_of_prefix_closed(graph.system);
    const Labeling lambda = Labeling::canonical(graph.system.alphabet());
    for (const char* text : formulas) {
      const Formula eta = to_pnf(parse_ltl(text));
      const bool sat = satisfies(behaviors, eta, lambda).holds;
      const bool rl = relative_liveness(behaviors, eta, lambda).holds;
      const bool rs = relative_safety(behaviors, eta, lambda).holds;
      EXPECT_EQ(sat, rl && rs) << file.name << " / " << text;
    }
  }
}

TEST(PetriPreservation, OracleConfirmsConcreteChecksOnSmallNets) {
  // Brute-force oracle cross-check of the kernel's concrete R̄(η) verdict
  // on instances small enough to enumerate.
  const std::vector<const char*> formulas = {
      "G F consume", "G (produce -> F consume)", "F G produce"};
  for (std::size_t cap = 1; cap <= 2; ++cap) {
    const petri::NetFile file = petri::bounded_buffer_net(cap);
    const Nfa system = unfold_extended(file);
    ASSERT_LE(system.num_states(), 24u);
    const Homomorphism h =
        petri::derive_abstraction(system.alphabet(), file.hidden);
    for (const char* text : formulas) {
      const Formula eta = to_pnf(parse_ltl(text));
      const Formula rbar = transform_rbar(eta);
      const bool kernel = concrete_relative_liveness(system, h, eta);
      const bool oracle = cert::oracle_relative_liveness(
          limit_of_prefix_closed(system), rbar, hom_labeling(h));
      EXPECT_EQ(kernel, oracle) << file.name << " / " << text;
    }
  }
}

}  // namespace
}  // namespace rlv

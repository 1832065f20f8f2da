// Unit and property tests for the finite-word language layer (rlv_lang):
// NFA/DFA semantics, determinization, minimization, complement, boolean
// operations, trimming, prefix languages, inclusion (both algorithms),
// quotients, and equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "rlv/gen/families.hpp"
#include "rlv/lang/alphabet.hpp"
#include "rlv/lang/dfa.hpp"
#include "rlv/lang/inclusion.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/lang/quotient.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"
#include "rlv/util/intern.hpp"
#include "rlv/util/rng.hpp"

namespace rlv {
namespace {

AlphabetRef ab() {
  static AlphabetRef sigma = Alphabet::make({"a", "b"});
  return sigma;
}

/// NFA for (a|b)*a — words ending with 'a'.
Nfa ends_with_a() {
  Nfa nfa(ab());
  const State s0 = nfa.add_state(false);
  const State s1 = nfa.add_state(true);
  const Symbol a = ab()->id("a");
  const Symbol b = ab()->id("b");
  nfa.add_transition(s0, a, s0);
  nfa.add_transition(s0, b, s0);
  nfa.add_transition(s0, a, s1);
  nfa.set_initial(s0);
  return nfa;
}

/// NFA for words containing "ab" as a factor.
Nfa contains_ab() {
  Nfa nfa(ab());
  const State s0 = nfa.add_state(false);
  const State s1 = nfa.add_state(false);
  const State s2 = nfa.add_state(true);
  const Symbol a = ab()->id("a");
  const Symbol b = ab()->id("b");
  nfa.add_transition(s0, a, s0);
  nfa.add_transition(s0, b, s0);
  nfa.add_transition(s0, a, s1);
  nfa.add_transition(s1, b, s2);
  nfa.add_transition(s2, a, s2);
  nfa.add_transition(s2, b, s2);
  nfa.set_initial(s0);
  return nfa;
}

Word word(std::initializer_list<const char*> names) {
  Word w;
  for (const char* n : names) w.push_back(ab()->id(n));
  return w;
}

/// Random NFA over {a,b} for property tests. Density and acceptance tuned so
/// languages are usually neither empty nor total.
Nfa random_nfa(Rng& rng, std::size_t num_states) {
  Nfa nfa(ab());
  for (std::size_t i = 0; i < num_states; ++i) {
    nfa.add_state(rng.chance(1, 3));
  }
  for (State s = 0; s < num_states; ++s) {
    for (Symbol a = 0; a < 2; ++a) {
      const std::uint64_t fanout = rng.next_below(3);  // 0, 1, or 2 targets
      for (std::uint64_t k = 0; k < fanout; ++k) {
        nfa.add_transition_unique(
            s, a, static_cast<State>(rng.next_below(num_states)));
      }
    }
  }
  nfa.set_initial(static_cast<State>(rng.next_below(num_states)));
  return nfa;
}

std::set<Word> language_up_to(const Nfa& nfa, std::size_t len) {
  const auto words = enumerate_words(nfa, len);
  return {words.begin(), words.end()};
}

TEST(Alphabet, InternAndLookup) {
  auto sigma = Alphabet::make({"x", "y"});
  EXPECT_EQ(sigma->size(), 2u);
  EXPECT_EQ(sigma->name(sigma->id("x")), "x");
  EXPECT_EQ(sigma->name(sigma->id("y")), "y");
  EXPECT_TRUE(sigma->contains("x"));
  EXPECT_FALSE(sigma->contains("z"));
  const Symbol x = sigma->id("x");
  EXPECT_EQ(sigma->intern("x"), x);  // idempotent
}

TEST(Alphabet, FormatWord) {
  auto sigma = Alphabet::make({"lock", "request"});
  Word w = {sigma->id("lock"), sigma->id("request")};
  EXPECT_EQ(sigma->format(w), "lock.request");
  EXPECT_EQ(sigma->format({}), "\xce\xb5");
}

TEST(Nfa, AcceptsBasics) {
  const Nfa nfa = ends_with_a();
  EXPECT_FALSE(nfa.accepts({}));
  EXPECT_TRUE(nfa.accepts(word({"a"})));
  EXPECT_FALSE(nfa.accepts(word({"b"})));
  EXPECT_TRUE(nfa.accepts(word({"b", "b", "a"})));
  EXPECT_FALSE(nfa.accepts(word({"a", "b"})));
}

TEST(Nfa, ReachableAndProductive) {
  Nfa nfa(ab());
  const State s0 = nfa.add_state(false);
  const State s1 = nfa.add_state(true);
  const State dead = nfa.add_state(false);   // reachable, not productive
  const State orphan = nfa.add_state(true);  // productive, not reachable
  nfa.add_transition(s0, ab()->id("a"), s1);
  nfa.add_transition(s0, ab()->id("b"), dead);
  nfa.set_initial(s0);

  const DynBitset reach = nfa.reachable();
  EXPECT_TRUE(reach.test(s0));
  EXPECT_TRUE(reach.test(s1));
  EXPECT_TRUE(reach.test(dead));
  EXPECT_FALSE(reach.test(orphan));

  const DynBitset prod = nfa.productive();
  EXPECT_TRUE(prod.test(s0));
  EXPECT_TRUE(prod.test(s1));
  EXPECT_FALSE(prod.test(dead));
  EXPECT_TRUE(prod.test(orphan));
}

TEST(Determinize, PreservesLanguage) {
  const Nfa nfa = contains_ab();
  const Dfa dfa = determinize(nfa);
  for (const Word& w : enumerate_words(nfa, 6)) {
    EXPECT_TRUE(dfa.accepts(w)) << ab()->format(w);
  }
  EXPECT_EQ(language_up_to(nfa, 6), language_up_to(dfa.to_nfa(), 6));
}

TEST(Determinize, EmptyLanguage) {
  Nfa nfa(ab());
  nfa.add_state(false);
  nfa.set_initial(0);
  const Dfa dfa = determinize(nfa);
  EXPECT_FALSE(dfa.accepts({}));
  EXPECT_FALSE(dfa.accepts(word({"a"})));
}

/// Test-only copy of the dense subset construction determinize() ran before
/// subsets became sorted state lists: every subset an n-bit block interned
/// through BitsetInterner, DFA states numbered in first-seen order.
Dfa dense_determinize(const Nfa& nfa) {
  Dfa dfa(nfa.alphabet());
  const std::size_t sigma = nfa.alphabet()->size();
  nfa.finalize();
  BitsetInterner interner(nfa.num_states());
  const DynBitset acc_set = nfa.accepting_set();
  const std::size_t words_per = interner.words_per();
  std::vector<std::uint64_t> cur(words_per, 0);
  std::vector<std::uint64_t> nxt(words_per, 0);
  auto intern = [&](const std::uint64_t* w) -> State {
    const auto [id, fresh] = interner.intern(w);
    if (fresh) {
      bool accepting = false;
      for (std::size_t i = 0; i < words_per; ++i) {
        accepting = accepting || (w[i] & acc_set.words_data()[i]) != 0;
      }
      dfa.add_state(accepting);
    }
    return id;
  };
  for (const State s : nfa.initial()) {
    nxt[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  dfa.set_initial(intern(nxt.data()));
  for (State d = 0; d < interner.size(); ++d) {
    std::copy(interner.words(d), interner.words(d) + words_per, cur.begin());
    for (Symbol a = 0; a < sigma; ++a) {
      nfa.step_words(cur.data(), a, nxt.data());
      if (std::all_of(nxt.begin(), nxt.end(),
                      [](std::uint64_t w) { return w == 0; })) {
        continue;
      }
      dfa.set_transition(d, a, intern(nxt.data()));
    }
  }
  return dfa;
}

/// The two DFAs agree state for state: numbering, acceptance, transitions.
void expect_same_dfa(const Dfa& got, const Dfa& want, const std::string& what) {
  ASSERT_EQ(got.num_states(), want.num_states()) << what;
  EXPECT_EQ(got.initial(), want.initial()) << what;
  for (State s = 0; s < want.num_states(); ++s) {
    EXPECT_EQ(got.is_accepting(s), want.is_accepting(s)) << what << " " << s;
    for (Symbol a = 0; a < want.alphabet()->size(); ++a) {
      ASSERT_EQ(got.next(s, a), want.next(s, a)) << what << " " << s;
    }
  }
}

TEST(Determinize, MatchesDenseConstructionOnRandomNfas) {
  // Up to 64 states over {a, b}, sometimes with several initial states.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed * 104729 + 11);
    Nfa nfa = random_nfa(rng, 1 + rng.next_below(64));
    for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
      nfa.set_initial(static_cast<State>(rng.next_below(nfa.num_states())));
    }
    expect_same_dfa(determinize(nfa), dense_determinize(nfa),
                    "seed " + std::to_string(seed));
  }
}

TEST(Determinize, MatchesDenseConstructionOnUnfoldings) {
  for (std::size_t n = 3; n <= 6; ++n) {
    const Nfa system =
        build_reachability_graph(petri::philosophers_net(n).net).system;
    expect_same_dfa(determinize(system), dense_determinize(system),
                    "philosophers " + std::to_string(n));
  }
  for (std::size_t n = 2; n <= 4; ++n) {
    const Nfa system = build_reachability_graph(resource_server_net(n)).system;
    expect_same_dfa(determinize(system), dense_determinize(system),
                    "resource_server " + std::to_string(n));
  }
}

TEST(Minimize, EndsWithAHasTwoStates) {
  const Dfa min = minimize(determinize(ends_with_a()));
  EXPECT_EQ(min.num_states(), 2u);
  EXPECT_TRUE(min.accepts(word({"b", "a"})));
  EXPECT_FALSE(min.accepts(word({"a", "b"})));
}

TEST(Minimize, ContainsAbHasThreeStates) {
  const Dfa min = minimize(determinize(contains_ab()));
  EXPECT_EQ(min.num_states(), 3u);
}

TEST(Minimize, EmptyLanguage) {
  Nfa nfa(ab());
  nfa.add_state(false);
  nfa.set_initial(0);
  const Dfa min = minimize(determinize(nfa));
  EXPECT_FALSE(min.accepts({}));
  EXPECT_LE(min.num_states(), 1u);
}

TEST(Complement, FlipsMembership) {
  const Dfa dfa = determinize(contains_ab());
  const Dfa comp = complement(dfa);
  for (const Word& w : enumerate_words(prefix_language(contains_ab()), 5)) {
    EXPECT_NE(dfa.accepts(w), comp.accepts(w));
  }
  EXPECT_TRUE(comp.accepts({}));
  EXPECT_TRUE(comp.accepts(word({"b", "a"})));
  EXPECT_FALSE(comp.accepts(word({"a", "b"})));
}

TEST(BooleanOps, IntersectUnionAgreeWithSets) {
  const Nfa x = ends_with_a();
  const Nfa y = contains_ab();
  const auto lx = language_up_to(x, 5);
  const auto ly = language_up_to(y, 5);

  const auto li = language_up_to(intersect(x, y), 5);
  const auto lu = language_up_to(union_nfa(x, y), 5);

  std::set<Word> expect_i;
  std::set_intersection(lx.begin(), lx.end(), ly.begin(), ly.end(),
                        std::inserter(expect_i, expect_i.begin()));
  std::set<Word> expect_u;
  std::set_union(lx.begin(), lx.end(), ly.begin(), ly.end(),
                 std::inserter(expect_u, expect_u.begin()));
  EXPECT_EQ(li, expect_i);
  EXPECT_EQ(lu, expect_u);
}

TEST(Trim, RemovesUselessStates) {
  Nfa nfa(ab());
  const State s0 = nfa.add_state(false);
  const State s1 = nfa.add_state(true);
  nfa.add_state(false);  // dead
  nfa.add_transition(s0, ab()->id("a"), s1);
  nfa.add_transition(s0, ab()->id("b"), 2);
  nfa.set_initial(s0);
  const Nfa trimmed = trim(nfa);
  EXPECT_EQ(trimmed.num_states(), 2u);
  EXPECT_EQ(language_up_to(nfa, 4), language_up_to(trimmed, 4));
}

TEST(PrefixLanguage, ComputesPrefixesOfAbStar) {
  // L = (ab)*; pre(L) = (ab)* + (ab)*a, characterized exactly.
  Nfa nfa(ab());
  const State s0 = nfa.add_state(true);
  const State s1 = nfa.add_state(false);
  nfa.add_transition(s0, ab()->id("a"), s1);
  nfa.add_transition(s1, ab()->id("b"), s0);
  nfa.set_initial(s0);

  const Nfa pre = prefix_language(nfa);
  std::set<Word> expected;
  for (std::size_t k = 0; k <= 2; ++k) {
    Word w;
    for (std::size_t i = 0; i < k; ++i) {
      w.push_back(ab()->id("a"));
      w.push_back(ab()->id("b"));
    }
    expected.insert(w);  // (ab)^k
    w.push_back(ab()->id("a"));
    if (w.size() <= 5) expected.insert(w);  // (ab)^k a
  }
  EXPECT_EQ(language_up_to(pre, 5), expected);
}

TEST(PrefixLanguage, FactorLanguagePrefixesAreTotal) {
  // Every word extends to one containing "ab", so pre(L) = Σ*.
  const Nfa pre = prefix_language(contains_ab());
  Nfa total(ab());
  const State s = total.add_state(true);
  total.add_transition(s, 0, s);
  total.add_transition(s, 1, s);
  total.set_initial(s);
  EXPECT_TRUE(nfa_equivalent(pre, total));
}

TEST(IsEmpty, Detects) {
  Nfa nfa(ab());
  nfa.add_state(false);
  nfa.set_initial(0);
  EXPECT_TRUE(is_empty(nfa));
  nfa.set_accepting(0, true);
  EXPECT_FALSE(is_empty(nfa));
}

TEST(IsPrefixClosed, Classifies) {
  EXPECT_FALSE(is_prefix_closed(ends_with_a()));
  EXPECT_TRUE(is_prefix_closed(prefix_language(ends_with_a())));
  EXPECT_FALSE(is_prefix_closed(contains_ab()));
}

TEST(Equivalence, MinimizationInvariant) {
  const Dfa d1 = determinize(contains_ab());
  const Dfa d2 = minimize(d1);
  EXPECT_TRUE(dfa_equivalent(d1, d2));
  EXPECT_FALSE(dfa_equivalent(d1, determinize(ends_with_a())));
}

TEST(Inclusion, BasicVerdicts) {
  const Nfa x = intersect(ends_with_a(), contains_ab());
  EXPECT_TRUE(is_included(x, ends_with_a(), InclusionAlgorithm::kSubset));
  EXPECT_TRUE(is_included(x, ends_with_a(), InclusionAlgorithm::kAntichain));
  EXPECT_FALSE(is_included(ends_with_a(), x, InclusionAlgorithm::kSubset));
  EXPECT_FALSE(is_included(ends_with_a(), x, InclusionAlgorithm::kAntichain));
}

TEST(Inclusion, CounterexampleIsValid) {
  const auto result = check_inclusion(ends_with_a(), contains_ab());
  ASSERT_FALSE(result.included);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(ends_with_a().accepts(*result.counterexample));
  EXPECT_FALSE(contains_ab().accepts(*result.counterexample));
}

TEST(Quotient, ContOfWord) {
  // cont(ab, L) for L = "contains ab" is Σ*.
  const Nfa q = left_quotient(contains_ab(), word({"a", "b"}));
  EXPECT_TRUE(q.accepts({}));
  EXPECT_TRUE(q.accepts(word({"b", "b"})));
  // cont(b, L) is still "contains ab".
  const Nfa q2 = left_quotient(contains_ab(), word({"b"}));
  EXPECT_TRUE(nfa_equivalent(q2, contains_ab()));
}

TEST(Quotient, MyhillNerodeIndex) {
  // "ends with a" has 2 residuals; complete DFA needs no sink (total).
  EXPECT_EQ(myhill_nerode_index(determinize(ends_with_a())), 2u);
  EXPECT_EQ(myhill_nerode_index(determinize(contains_ab())), 3u);
}

TEST(CountWords, MatchesEnumeration) {
  const Nfa nfa = contains_ab();
  const auto counts = count_words(nfa, 5);
  for (std::size_t len = 0; len <= 5; ++len) {
    std::size_t expected = 0;
    for (const Word& w : enumerate_words(nfa, 5)) {
      if (w.size() == len) ++expected;
    }
    EXPECT_EQ(counts[len], expected) << "len=" << len;
  }
}

TEST(ShortestWord, FindsMinimal) {
  const auto w = shortest_word(contains_ab());
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, word({"a", "b"}));
  Nfa empty(ab());
  empty.add_state(false);
  empty.set_initial(0);
  EXPECT_FALSE(shortest_word(empty).has_value());
}

TEST(Regular, ReverseBasics) {
  // reverse(contains "ab") = contains "ba".
  const Nfa rev = reverse_nfa(contains_ab());
  EXPECT_TRUE(rev.accepts(word({"b", "a"})));
  EXPECT_TRUE(rev.accepts(word({"a", "b", "a", "b"})));  // has "ba" inside
  EXPECT_FALSE(rev.accepts(word({"a", "b"})));
  EXPECT_FALSE(rev.accepts(word({"a"})));
}

TEST(Regular, ConcatBasics) {
  // (ends with a) · (contains ab).
  const Nfa cat = concat_nfa(ends_with_a(), contains_ab());
  EXPECT_TRUE(cat.accepts(word({"a", "a", "b"})));
  EXPECT_TRUE(cat.accepts(word({"b", "a", "b", "a", "b"})));
  EXPECT_FALSE(cat.accepts(word({"a", "b"})));  // second part needs "ab"
  EXPECT_FALSE(cat.accepts(word({"a"})));
}

TEST(Regular, StarBasics) {
  // (ab)^* via star of the two-letter word automaton.
  Nfa ab_word(ab());
  const State s0 = ab_word.add_state(false);
  const State s1 = ab_word.add_state(false);
  const State s2 = ab_word.add_state(true);
  ab_word.add_transition(s0, ab()->id("a"), s1);
  ab_word.add_transition(s1, ab()->id("b"), s2);
  ab_word.set_initial(s0);

  const Nfa star = star_nfa(ab_word);
  EXPECT_TRUE(star.accepts({}));
  EXPECT_TRUE(star.accepts(word({"a", "b"})));
  EXPECT_TRUE(star.accepts(word({"a", "b", "a", "b"})));
  EXPECT_FALSE(star.accepts(word({"a"})));
  EXPECT_FALSE(star.accepts(word({"a", "b", "a"})));
  EXPECT_FALSE(star.accepts(word({"b", "a"})));
}

// ---------------------------------------------------------------------------
// Property tests on random automata.

class RandomNfaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNfaProperty, DeterminizeMinimizePreserveLanguage) {
  Rng rng(GetParam());
  const Nfa nfa = random_nfa(rng, 3 + rng.next_below(5));
  const Dfa dfa = determinize(nfa);
  const Dfa min = minimize(dfa);
  EXPECT_EQ(language_up_to(nfa, 6), language_up_to(dfa.to_nfa(), 6));
  EXPECT_EQ(language_up_to(nfa, 6), language_up_to(min.to_nfa(), 6));
  EXPECT_TRUE(dfa_equivalent(dfa, min));
}

TEST_P(RandomNfaProperty, MinimizeIsIdempotentAndMinimal) {
  Rng rng(GetParam() ^ 0xabcdef);
  const Nfa nfa = random_nfa(rng, 3 + rng.next_below(5));
  const Dfa min1 = minimize(determinize(nfa));
  const Dfa min2 = minimize(min1);
  EXPECT_EQ(min1.num_states(), min2.num_states());
  EXPECT_TRUE(dfa_equivalent(min1, min2));
}

TEST_P(RandomNfaProperty, InclusionAlgorithmsAgree) {
  Rng rng(GetParam() * 31 + 7);
  const Nfa x = random_nfa(rng, 3 + rng.next_below(4));
  const Nfa y = random_nfa(rng, 3 + rng.next_below(4));
  const bool subset = is_included(x, y, InclusionAlgorithm::kSubset);
  const bool antichain = is_included(x, y, InclusionAlgorithm::kAntichain);
  EXPECT_EQ(subset, antichain);
  // Cross-check against bounded enumeration: if included, the bounded
  // languages must nest.
  const auto lx = language_up_to(x, 5);
  const auto ly = language_up_to(y, 5);
  const bool bounded_incl =
      std::includes(ly.begin(), ly.end(), lx.begin(), lx.end());
  if (subset) {
    EXPECT_TRUE(bounded_incl);
  }
  // Counterexample, when produced, must be genuine.
  const auto res = check_inclusion(x, y);
  if (!res.included) {
    ASSERT_TRUE(res.counterexample.has_value());
    EXPECT_TRUE(x.accepts(*res.counterexample));
    EXPECT_FALSE(y.accepts(*res.counterexample));
  }
}

TEST_P(RandomNfaProperty, ComplementPartitionsSigmaStar) {
  Rng rng(GetParam() + 99);
  const Nfa nfa = random_nfa(rng, 3 + rng.next_below(4));
  const Dfa dfa = determinize(nfa);
  const Dfa comp = complement(dfa);
  // Every word up to length 5 is in exactly one of the two languages.
  Nfa total(ab());
  const State s = total.add_state(true);
  total.add_transition(s, 0, s);
  total.add_transition(s, 1, s);
  total.set_initial(s);
  for (const Word& w : enumerate_words(total, 5)) {
    EXPECT_NE(dfa.accepts(w), comp.accepts(w)) << ab()->format(w);
  }
}

TEST_P(RandomNfaProperty, RegularOperationsMatchSetSemantics) {
  Rng rng(GetParam() * 524287 + 77);
  const Nfa x = random_nfa(rng, 2 + rng.next_below(3));
  const Nfa y = random_nfa(rng, 2 + rng.next_below(3));

  const auto lx = language_up_to(x, 4);
  const auto ly = language_up_to(y, 4);

  // Reverse: membership of mirrored words.
  const Nfa rev = reverse_nfa(x);
  for (const Word& w : lx) {
    Word m(w.rbegin(), w.rend());
    EXPECT_TRUE(rev.accepts(m));
  }
  EXPECT_EQ(language_up_to(reverse_nfa(rev), 4), lx);

  // Concatenation: w ∈ L(x)·L(y) up to length 4 iff some split works.
  const Nfa cat = concat_nfa(x, y);
  Nfa total(ab());
  const State t = total.add_state(true);
  total.add_transition(t, 0, t);
  total.add_transition(t, 1, t);
  total.set_initial(t);
  for (const Word& w : enumerate_words(total, 4)) {
    bool expected = false;
    for (std::size_t k = 0; k <= w.size() && !expected; ++k) {
      const Word left(w.begin(), w.begin() + k);
      const Word right(w.begin() + k, w.end());
      expected = x.accepts(left) && y.accepts(right);
    }
    EXPECT_EQ(cat.accepts(w), expected) << ab()->format(w);
  }

  // Star: w ∈ L(x)* iff decomposable into non-empty accepted chunks.
  const Nfa star = star_nfa(x);
  for (const Word& w : enumerate_words(total, 4)) {
    // Dynamic programming over split points.
    std::vector<bool> ok(w.size() + 1, false);
    ok[0] = true;
    for (std::size_t i = 1; i <= w.size(); ++i) {
      for (std::size_t j = 0; j < i && !ok[i]; ++j) {
        if (!ok[j]) continue;
        const Word chunk(w.begin() + j, w.begin() + i);
        ok[i] = x.accepts(chunk);
      }
    }
    EXPECT_EQ(star.accepts(w), ok[w.size()]) << ab()->format(w);
  }
  (void)ly;
}

TEST_P(RandomNfaProperty, QuotientSemantics) {
  Rng rng(GetParam() + 12345);
  const Nfa nfa = random_nfa(rng, 3 + rng.next_below(4));
  // For every word w of length <=2: v ∈ cont(w,L) iff wv ∈ L (checked on all
  // v with |v| <= 3).
  Nfa total(ab());
  const State s = total.add_state(true);
  total.add_transition(s, 0, s);
  total.add_transition(s, 1, s);
  total.set_initial(s);
  for (const Word& w : enumerate_words(total, 2)) {
    const Nfa q = left_quotient(nfa, w);
    for (const Word& v : enumerate_words(total, 3)) {
      Word wv = w;
      wv.insert(wv.end(), v.begin(), v.end());
      EXPECT_EQ(q.accepts(v), nfa.accepts(wv));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNfaProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace rlv

#pragma once

// Core constructions on finite-word automata: determinization, Hopcroft
// minimization, complementation, boolean combinations, trimming, prefix
// languages, emptiness, equivalence, and bounded word enumeration (the
// latter drives the property-based tests).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rlv/lang/dfa.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

class Homomorphism;

/// Subset construction. Only reachable, non-empty subsets become states, so
/// the result is a partial DFA for the same language. Exponential in the
/// worst case; each subset-state built is charged to `budget` (under the
/// caller's current stage).
[[nodiscard]] Dfa determinize(const Nfa& nfa, Budget* budget = nullptr);

/// A DFA built from several roots, with the DFA state of each root.
struct RootedDfa {
  Dfa dfa;
  std::vector<State> roots;  // root i ↦ its DFA state
};

/// Subset construction started from several subsets at once, sharing
/// every subset the roots reach in common. Each root is a non-empty set of
/// NFA states; roots that name the same subset share a DFA state, and the
/// first root's state is the initial one. Subsets are kept as sorted state
/// lists, so a step costs the edges leaving its subset, not the NFA's size.
/// DFA states are numbered in first-seen order (roots first, then each
/// state's successors letter by letter), and determinize() is this
/// construction from the single root `nfa.initial()`.
///
/// With `h` (whose source must be the NFA's alphabet) the result is a DFA
/// over h's target for h(L) instead, without ε-eliminating first: every
/// subset, roots included, is closed under h's hidden letters, and a
/// target letter steps through each of its source letters. Charges
/// `budget` one state per subset built, under the caller's current stage.
[[nodiscard]] RootedDfa determinize_from(
    const Nfa& nfa, std::span<const std::vector<State>> roots,
    const Homomorphism* h = nullptr, Budget* budget = nullptr);

/// Myhill–Nerode classes of a complete DFA's states, by Hopcroft's
/// partition refinement: class_of[s] == class_of[t] iff the languages read
/// from s and from t coincide. The initial state plays no part, so every
/// state is classified, reachable or not. minimize() quotients by these
/// classes. `budget` bounds wall time as in minimize().
[[nodiscard]] std::vector<std::uint32_t> nerode_classes(
    const Dfa& dfa, Budget* budget = nullptr);

/// Hopcroft minimization. Accepts a partial DFA; the result is again partial
/// (the rejecting sink, if any, is removed) and is the unique minimal DFA of
/// the language up to isomorphism. `budget` bounds wall time (the splitter
/// loop ticks the deadline).
[[nodiscard]] Dfa minimize(const Dfa& dfa, Budget* budget = nullptr);

/// Complement w.r.t. Σ*: completes and flips acceptance.
[[nodiscard]] Dfa complement(const Dfa& dfa);

/// Product-intersection of two NFAs over the same alphabet.
[[nodiscard]] Nfa intersect(const Nfa& a, const Nfa& b);

/// Disjoint union of two NFAs over the same alphabet.
[[nodiscard]] Nfa union_nfa(const Nfa& a, const Nfa& b);

/// Mirror language { reverse(w) | w ∈ L }: edges flipped, initial and
/// accepting swapped.
[[nodiscard]] Nfa reverse_nfa(const Nfa& a);

/// Concatenation L(a)·L(b) (ε-free construction: accepting states of `a`
/// borrow the out-edges of `b`'s initial states).
[[nodiscard]] Nfa concat_nfa(const Nfa& a, const Nfa& b);

/// Kleene star L(a)*.
[[nodiscard]] Nfa star_nfa(const Nfa& a);

/// Removes states that are not both reachable and productive. The language
/// is unchanged; the result has no useless states. An automaton with empty
/// language trims to zero states.
[[nodiscard]] Nfa trim(const Nfa& nfa);

/// Automaton for pre(L(nfa)): the set of prefixes of accepted words.
/// Implemented as trim + make-all-states-accepting.
[[nodiscard]] Nfa prefix_language(const Nfa& nfa);

/// True when L(nfa) = ∅.
[[nodiscard]] bool is_empty(const Nfa& nfa);

/// True when L(a) = L(b), via Hopcroft–Karp on the two (completed) DFAs.
[[nodiscard]] bool dfa_equivalent(const Dfa& a, const Dfa& b);

/// True when L(nfa) is prefix-closed.
[[nodiscard]] bool is_prefix_closed(const Nfa& nfa);

/// All accepted words of length <= max_len in length-lex order. Guard for
/// tests only: throws std::length_error beyond `limit` words.
[[nodiscard]] std::vector<Word> enumerate_words(const Nfa& nfa,
                                                std::size_t max_len,
                                                std::size_t limit = 1u << 20);

/// Shortest accepted word, if the language is non-empty.
[[nodiscard]] std::optional<Word> shortest_word(const Nfa& nfa);

/// Number of accepted words of each length 0..max_len (may saturate at
/// UINT64_MAX on overflow).
[[nodiscard]] std::vector<std::uint64_t> count_words(const Nfa& nfa,
                                                     std::size_t max_len);

/// Rebuilds `nfa` over a different alphabet object, translating symbols by
/// name. Every symbol name used by `nfa` must exist in `target`. Allows
/// automata built independently (e.g. a Petri-net reachability graph and a
/// hand-drawn diagram) to be compared with the same-alphabet operations.
[[nodiscard]] Nfa remap_alphabet(const Nfa& nfa, AlphabetRef target);

}  // namespace rlv

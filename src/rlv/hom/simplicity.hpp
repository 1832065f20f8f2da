#pragma once

// Decision procedure for *simplicity* of an abstracting homomorphism
// (Definition 6.3, after Ochsenschläger): h is simple for a prefix-closed
// regular L and w ∈ L iff some u ∈ cont(h(w), h(L)) satisfies
//
//   cont(u, cont(h(w), h(L))) = cont(u, h(cont(w, L))),
//
// i.e. after reading u, the continuations visible at the abstract level
// coincide with the abstracted continuations of w. Simplicity is exactly
// the condition under which relative liveness transfers from the abstract
// to the concrete system (Theorem 8.2).
//
// Decidability: cont(w, L) depends on w only through the state q of the
// minimal DFA DL for L, and cont(h(w), h(L)) only through the state S of the
// determinized image automaton. The decision explores the reachable (q, S)
// pairs breadth-first (their number is `pairs_checked`) and, for each,
// searches the product of the automaton from S and the automaton of
// h(cont(w, L)) for a pair of states with equal residual languages. Each
// piece is built once per call:
//
//   * one subset construction of the image, closing each subset under
//     hidden letters as it goes, yields both sides: it starts from the
//     closure of L's initial states and from the closure of each state q
//     of DL, so subsets common to several residuals are built once;
//   * residual equality is one comparison of Myhill–Nerode classes,
//     computed once (Hopcroft) over that DFA;
//   * product pairs found to reach an equal pair stay marked winning, so a
//     later search stops as soon as it meets one.

#include <optional>

#include "rlv/hom/homomorphism.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/util/budget.hpp"

namespace rlv {

struct SimplicityResult {
  bool simple = false;
  /// When not simple: a word w ∈ L for which no witness u exists.
  std::optional<Word> violating_word;
  /// Number of (cont-class, abstract-cont-class) pairs examined.
  std::size_t pairs_checked = 0;
};

/// Decides whether `h` is simple for L(nfa). L must be prefix-closed (use
/// prefix_language / reachability graphs); `h.source()` must be the
/// automaton's alphabet. `budget` is charged one state per (q, S) pair and
/// per subset built, under the caller's current stage; its deadline is also
/// consulted inside the witness searches.
[[nodiscard]] SimplicityResult check_simplicity(const Nfa& nfa,
                                                const Homomorphism& h,
                                                Budget* budget = nullptr);

}  // namespace rlv

#pragma once

// Left quotients — the paper's cont(w, L) (Definition 3.1): the set of
// continuations of a word within a language — and the Myhill–Nerode index,
// the number of distinct residual languages.

#include <vector>

#include "rlv/lang/dfa.hpp"
#include "rlv/lang/nfa.hpp"

namespace rlv {

/// Automaton for cont(w, L(nfa)) = { v | wv ∈ L }: advance all runs by `w`
/// and make the reached states initial. Returns an automaton with empty
/// language when no run survives `w`.
[[nodiscard]] Nfa left_quotient(const Nfa& nfa, const Word& w);

/// Number of distinct residual languages of the language of `dfa`
/// (= number of states of the minimal complete DFA, counting a sink if the
/// language is not total). This is the Myhill–Nerode index.
[[nodiscard]] std::size_t myhill_nerode_index(const Dfa& dfa);

}  // namespace rlv

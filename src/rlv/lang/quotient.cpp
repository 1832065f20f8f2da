#include "rlv/lang/quotient.hpp"

#include "rlv/lang/ops.hpp"

namespace rlv {

Nfa left_quotient(const Nfa& nfa, const Word& w) {
  const DynBitset reached = nfa.run(w);
  Nfa result(nfa.alphabet());
  for (State s = 0; s < nfa.num_states(); ++s) {
    result.add_state(nfa.is_accepting(s));
  }
  for (State s = 0; s < nfa.num_states(); ++s) {
    for (const auto& t : nfa.out(s)) {
      result.add_transition(s, t.symbol, t.target);
    }
  }
  reached.for_each(
      [&](std::size_t s) { result.set_initial(static_cast<State>(s)); });
  return result;
}

std::size_t myhill_nerode_index(const Dfa& dfa) {
  return minimize(dfa).complete().num_states();
}

}  // namespace rlv

#include "rlv/hom/image.hpp"

#include <cassert>
#include <string>
#include <vector>

#include "rlv/lang/ops.hpp"

namespace rlv {

Nfa image_nfa(const Nfa& nfa, const Homomorphism& h) {
  assert(nfa.alphabet() == h.source());
  const std::size_t n = nfa.num_states();

  // ε-closure: states reachable via hidden-letter transitions.
  std::vector<DynBitset> closure(n, DynBitset(n));
  for (State s = 0; s < n; ++s) {
    // DFS from s over hidden edges.
    std::vector<State> work{s};
    closure[s].set(s);
    while (!work.empty()) {
      const State x = work.back();
      work.pop_back();
      for (const auto& t : nfa.out(x)) {
        if (h.hides(t.symbol) && !closure[s].test(t.target)) {
          closure[s].set(t.target);
          work.push_back(t.target);
        }
      }
    }
  }

  Nfa result(h.target());
  for (State s = 0; s < n; ++s) {
    const bool acc = closure[s].any_of(
        [&](std::size_t x) { return nfa.is_accepting(static_cast<State>(x)); });
    result.add_state(acc);
  }
  // Deduplicate per (symbol, target) with a stamp array rather than linear
  // scans — closure sets make out-degrees large.
  std::vector<std::uint32_t> stamp(h.target()->size() * n, 0);
  std::uint32_t generation = 0;
  for (State s = 0; s < n; ++s) {
    ++generation;
    closure[s].for_each([&](std::size_t x) {
      for (const auto& t : nfa.out(static_cast<State>(x))) {
        const auto mapped = h.apply(t.symbol);
        if (!mapped) continue;
        std::uint32_t& mark =
            stamp[static_cast<std::size_t>(*mapped) * n + t.target];
        if (mark == generation) continue;
        mark = generation;
        result.add_transition(s, *mapped, t.target);
      }
    });
  }
  for (const State s : nfa.initial()) result.set_initial(s);
  return trim(result);
}

Nfa reduced_image_nfa(const Nfa& nfa, const Homomorphism& h) {
  if (nfa.initial().empty()) return Nfa(h.target());
  const Dfa image = determinize_from(nfa, {&nfa.initial(), 1}, &h).dfa;
  return trim(minimize(image).to_nfa());
}

Nfa inverse_image_nfa(const Nfa& target_nfa, const Homomorphism& h) {
  assert(target_nfa.alphabet() == h.target());
  Nfa result(h.source());
  for (State s = 0; s < target_nfa.num_states(); ++s) {
    result.add_state(target_nfa.is_accepting(s));
  }
  for (State s = 0; s < target_nfa.num_states(); ++s) {
    for (Symbol a = 0; a < h.source()->size(); ++a) {
      const auto mapped = h.apply(a);
      if (!mapped) {
        result.add_transition(s, a, s);  // hidden letters stay in place
      } else {
        for (const State t : target_nfa.successors(s, *mapped)) {
          result.add_transition(s, a, t);
        }
      }
    }
  }
  for (const State s : target_nfa.initial()) result.set_initial(s);
  return result;
}

Nfa extend_maximal_words(const Nfa& nfa, std::string_view pad_name) {
  // Fresh alphabet = source names + pad symbol.
  std::vector<std::string> names;
  for (Symbol a = 0; a < nfa.alphabet()->size(); ++a) {
    names.push_back(nfa.alphabet()->name(a));
  }
  names.emplace_back(pad_name);
  auto extended = Alphabet::make(names);
  const Symbol pad = extended->id(pad_name);

  // Determinize so that "maximal word" = "state without successors" exactly.
  const Dfa dfa = determinize(trim(nfa));
  Nfa result(extended);
  for (State s = 0; s < dfa.num_states(); ++s) {
    result.add_state(true);
  }
  const std::size_t sigma = nfa.alphabet()->size();
  for (State s = 0; s < dfa.num_states(); ++s) {
    bool has_successor = false;
    for (Symbol a = 0; a < sigma; ++a) {
      const State t = dfa.next(s, a);
      if (t != kNoState) {
        result.add_transition(s, a, t);
        has_successor = true;
      }
    }
    if (!has_successor) {
      result.add_transition(s, pad, s);
    }
  }
  result.set_initial(dfa.initial());
  return result;
}

}  // namespace rlv

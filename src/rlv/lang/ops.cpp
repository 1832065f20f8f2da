#include "rlv/lang/ops.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

// Only Homomorphism's inline letter map is used: rlv_lang does not link
// rlv_hom.
#include "rlv/hom/homomorphism.hpp"
#include "rlv/util/hash.hpp"
#include "rlv/util/intern.hpp"

namespace rlv {

Dfa determinize(const Nfa& nfa, Budget* budget) {
  if (nfa.initial().empty()) {
    // Empty language: single non-accepting state with no transitions keeps
    // downstream algorithms total.
    Dfa dfa(nfa.alphabet());
    const State s = dfa.add_state(false);
    dfa.set_initial(s);
    return dfa;
  }
  return determinize_from(nfa, {&nfa.initial(), 1}, nullptr, budget).dfa;
}

RootedDfa determinize_from(const Nfa& nfa,
                           std::span<const std::vector<State>> roots,
                           const Homomorphism* h, Budget* budget) {
  assert(h == nullptr || h->source() == nfa.alphabet());
  nfa.finalize();
  const std::size_t sigma_in = nfa.alphabet()->size();
  RootedDfa out{Dfa(h != nullptr ? h->target() : nfa.alphabet()), {}};
  Dfa& dfa = out.dfa;

  // The DFA letter of each source letter, kHidden for h's hidden ones, and
  // the hidden edges alone, in CSR form, for the closure.
  constexpr Symbol kHidden = 0xffffffffU;
  std::vector<Symbol> letter_of(sigma_in);
  for (Symbol a = 0; a < sigma_in; ++a) {
    letter_of[a] = h == nullptr ? a : h->apply(a).value_or(kHidden);
  }
  std::vector<std::uint32_t> hidden_begin(nfa.num_states() + 1, 0);
  std::vector<State> hidden_to;
  for (State s = 0; s < nfa.num_states(); ++s) {
    for (const Transition& t : nfa.out(s)) {
      if (letter_of[t.symbol] == kHidden) hidden_to.push_back(t.target);
    }
    hidden_begin[s + 1] = static_cast<std::uint32_t>(hidden_to.size());
  }

  // DFA state d is subset d.
  ListInterner subsets;
  std::vector<State> next;  // the subset being built
  std::vector<std::uint32_t> mark(nfa.num_states(), 0);
  std::uint32_t stamp = 0;  // mark[s] == stamp: s is in `next`

  // Interns `targets`, closed under hidden edges, as a sorted subset.
  auto intern = [&](std::span<const State> targets) -> State {
    ++stamp;
    next.clear();
    auto add = [&](State s) {
      if (mark[s] == stamp) return;
      mark[s] = stamp;
      next.push_back(s);
    };
    for (const State s : targets) add(s);
    for (std::size_t i = 0; i < next.size(); ++i) {
      for (std::uint32_t e = hidden_begin[next[i]];
           e < hidden_begin[next[i] + 1]; ++e) {
        add(hidden_to[e]);
      }
    }
    std::sort(next.begin(), next.end());
    const auto [id, fresh] = subsets.intern(next);
    if (fresh) {
      budget_charge(budget);
      const bool accepting = std::any_of(
          next.begin(), next.end(),
          [&](State s) { return nfa.is_accepting(s); });
      [[maybe_unused]] const State d = dfa.add_state(accepting);
      assert(d == id);
    }
    return id;
  };

  for (const std::vector<State>& root : roots) {
    assert(!root.empty());
    out.roots.push_back(intern(root));
  }
  if (!out.roots.empty()) dfa.set_initial(out.roots.front());

  // One pass over the out-edges of a subset sorts their targets into one
  // bucket per DFA letter; interning starts once the pass is done, as it
  // invalidates the subset's span.
  std::vector<std::vector<State>> bucket(dfa.alphabet()->size());
  for (State d = 0; d < dfa.num_states(); ++d) {
    for (const State s : subsets.list(d)) {
      for (const Transition& t : nfa.out(s)) {
        if (letter_of[t.symbol] != kHidden) {
          bucket[letter_of[t.symbol]].push_back(t.target);
        }
      }
    }
    for (Symbol c = 0; c < bucket.size(); ++c) {
      if (bucket[c].empty()) continue;
      dfa.set_transition(d, c, intern(bucket[c]));
      bucket[c].clear();
    }
  }
  return out;
}

namespace {

/// Removes states of a DFA that are unreachable or unproductive, preserving
/// the language. Returns a partial DFA.
Dfa trim_dfa(const Dfa& dfa) {
  const Nfa as_nfa = dfa.to_nfa();
  DynBitset keep = as_nfa.reachable();
  keep &= as_nfa.productive();

  Dfa result(dfa.alphabet());
  std::vector<State> remap(dfa.num_states(), kNoState);
  for (State s = 0; s < dfa.num_states(); ++s) {
    if (keep.test(s)) remap[s] = result.add_state(dfa.is_accepting(s));
  }
  for (State s = 0; s < dfa.num_states(); ++s) {
    if (!keep.test(s)) continue;
    for (Symbol a = 0; a < dfa.alphabet()->size(); ++a) {
      const State t = dfa.next(s, a);
      if (t != kNoState && keep.test(t)) {
        result.set_transition(remap[s], a, remap[t]);
      }
    }
  }
  if (dfa.initial() != kNoState && keep.test(dfa.initial())) {
    result.set_initial(remap[dfa.initial()]);
  } else {
    const State s = result.add_state(false);
    result.set_initial(s);
  }
  return result;
}

}  // namespace

std::vector<std::uint32_t> nerode_classes(const Dfa& dfa, Budget* budget) {
  assert(dfa.is_complete());
  const std::size_t n = dfa.num_states();
  const std::size_t sigma = dfa.alphabet()->size();

  // Hopcroft's partition-refinement algorithm.
  std::vector<std::vector<std::vector<State>>> pred(
      sigma, std::vector<std::vector<State>>(n));
  for (State s = 0; s < n; ++s) {
    for (Symbol a = 0; a < sigma; ++a) {
      pred[a][dfa.next(s, a)].push_back(s);
    }
  }

  std::vector<std::uint32_t> block_of(n, 0);
  std::vector<std::vector<State>> blocks;
  {
    std::vector<State> acc;
    std::vector<State> rej;
    for (State s = 0; s < n; ++s) {
      (dfa.is_accepting(s) ? acc : rej).push_back(s);
    }
    if (!acc.empty()) blocks.push_back(std::move(acc));
    if (!rej.empty()) blocks.push_back(std::move(rej));
    for (std::uint32_t b = 0; b < blocks.size(); ++b) {
      for (const State s : blocks[b]) block_of[s] = b;
    }
  }

  std::deque<std::pair<std::uint32_t, Symbol>> work;
  for (Symbol a = 0; a < sigma; ++a) {
    for (std::uint32_t b = 0; b < blocks.size(); ++b) work.emplace_back(b, a);
  }

  std::vector<State> touched;            // states with a predecessor in splitter
  std::vector<std::uint32_t> touched_in; // per-block count of touched states
  touched_in.assign(blocks.size(), 0);
  std::vector<std::uint32_t> touched_blocks;

  while (!work.empty()) {
    budget_tick(budget);
    const auto [splitter, a] = work.front();
    work.pop_front();

    touched.clear();
    touched_blocks.clear();
    for (const State t : blocks[splitter]) {
      for (const State s : pred[a][t]) {
        touched.push_back(s);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const State s : touched) {
      if (touched_in[block_of[s]]++ == 0) touched_blocks.push_back(block_of[s]);
    }

    for (const std::uint32_t b : touched_blocks) {
      const std::uint32_t cnt = touched_in[b];
      touched_in[b] = 0;
      if (cnt == blocks[b].size()) continue;  // block not split

      // Split block b into (touched, untouched).
      std::vector<State> in_set;
      std::vector<State> out_set;
      for (const State s : blocks[b]) {
        // Membership in `touched`: recompute via transition (cheap and
        // avoids an extra mark array reset).
        if (std::binary_search(touched.begin(), touched.end(), s)) {
          in_set.push_back(s);
        } else {
          out_set.push_back(s);
        }
      }
      const std::uint32_t nb = static_cast<std::uint32_t>(blocks.size());
      const bool keep_in_b = in_set.size() >= out_set.size();
      std::vector<State>& small = keep_in_b ? out_set : in_set;
      std::vector<State>& large = keep_in_b ? in_set : out_set;
      blocks[b] = std::move(large);
      blocks.push_back(std::move(small));
      touched_in.push_back(0);
      for (const State s : blocks[nb]) block_of[s] = nb;
      for (Symbol c = 0; c < sigma; ++c) work.emplace_back(nb, c);
    }
  }
  return block_of;
}

Dfa minimize(const Dfa& input, Budget* budget) {
  const Dfa dfa = input.complete();
  const std::vector<std::uint32_t> block_of = nerode_classes(dfa, budget);

  // Build the quotient automaton; any member of a block represents it.
  const std::size_t sigma = dfa.alphabet()->size();
  std::uint32_t num_blocks = 0;
  for (const std::uint32_t b : block_of) {
    num_blocks = std::max(num_blocks, b + 1);
  }
  std::vector<State> rep(num_blocks, kNoState);
  for (State s = 0; s < dfa.num_states(); ++s) {
    if (rep[block_of[s]] == kNoState) rep[block_of[s]] = s;
  }
  Dfa quotient(dfa.alphabet());
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    quotient.add_state(dfa.is_accepting(rep[b]));
  }
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    for (Symbol a = 0; a < sigma; ++a) {
      quotient.set_transition(b, a, block_of[dfa.next(rep[b], a)]);
    }
  }
  quotient.set_initial(block_of[dfa.initial()]);
  return trim_dfa(quotient);
}

Dfa complement(const Dfa& input) {
  Dfa dfa = input.complete();
  Dfa result(dfa.alphabet());
  for (State s = 0; s < dfa.num_states(); ++s) {
    result.add_state(!dfa.is_accepting(s));
  }
  for (State s = 0; s < dfa.num_states(); ++s) {
    for (Symbol a = 0; a < dfa.alphabet()->size(); ++a) {
      result.set_transition(s, a, dfa.next(s, a));
    }
  }
  result.set_initial(dfa.initial());
  return result;
}

Nfa intersect(const Nfa& a, const Nfa& b) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "intersect");
  Nfa result(a.alphabet());

  std::unordered_map<std::pair<State, State>, State, PairHash> ids;
  std::vector<std::pair<State, State>> worklist;
  auto intern = [&](State p, State q) -> State {
    auto [it, inserted] = ids.emplace(std::make_pair(p, q), kNoState);
    if (inserted) {
      it->second =
          result.add_state(a.is_accepting(p) && b.is_accepting(q));
      worklist.emplace_back(p, q);
    }
    return it->second;
  };

  for (const State p : a.initial()) {
    for (const State q : b.initial()) {
      result.set_initial(intern(p, q));
    }
  }
  while (!worklist.empty()) {
    const auto [p, q] = worklist.back();
    worklist.pop_back();
    const State from = ids.at({p, q});
    for (const auto& ta : a.out(p)) {
      for (const auto& tb : b.out(q)) {
        if (ta.symbol != tb.symbol) continue;
        result.add_transition(from, ta.symbol, intern(ta.target, tb.target));
      }
    }
  }
  return result;
}

Nfa union_nfa(const Nfa& a, const Nfa& b) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "union_nfa");
  Nfa result(a.alphabet());
  for (State s = 0; s < a.num_states(); ++s) {
    result.add_state(a.is_accepting(s));
  }
  const State offset = static_cast<State>(a.num_states());
  for (State s = 0; s < b.num_states(); ++s) {
    result.add_state(b.is_accepting(s));
  }
  for (State s = 0; s < a.num_states(); ++s) {
    for (const auto& t : a.out(s)) result.add_transition(s, t.symbol, t.target);
  }
  for (State s = 0; s < b.num_states(); ++s) {
    for (const auto& t : b.out(s)) {
      result.add_transition(offset + s, t.symbol, offset + t.target);
    }
  }
  for (const State s : a.initial()) result.set_initial(s);
  for (const State s : b.initial()) result.set_initial(offset + s);
  return result;
}

Nfa reverse_nfa(const Nfa& a) {
  Nfa result(a.alphabet());
  for (State s = 0; s < a.num_states(); ++s) {
    // Initial states of the reverse are the accepting states of a, and
    // vice versa; a state can be both.
    result.add_state(false);
  }
  for (State s = 0; s < a.num_states(); ++s) {
    for (const auto& t : a.out(s)) {
      result.add_transition(t.target, t.symbol, s);
    }
  }
  for (State s = 0; s < a.num_states(); ++s) {
    if (a.is_accepting(s)) result.set_initial(s);
  }
  for (const State s : a.initial()) result.set_accepting(s, true);
  return result;
}

Nfa concat_nfa(const Nfa& a, const Nfa& b) {
  require_same_alphabet(a.alphabet(), b.alphabet(), "concat_nfa");
  // ε ∈ L(b) makes a's accepting states accepting in the concatenation.
  bool b_has_epsilon = false;
  for (const State s : b.initial()) {
    b_has_epsilon = b_has_epsilon || b.is_accepting(s);
  }

  Nfa result(a.alphabet());
  for (State s = 0; s < a.num_states(); ++s) {
    result.add_state(a.is_accepting(s) && b_has_epsilon);
  }
  const State offset = static_cast<State>(a.num_states());
  for (State s = 0; s < b.num_states(); ++s) {
    result.add_state(b.is_accepting(s));
  }
  for (State s = 0; s < a.num_states(); ++s) {
    for (const auto& t : a.out(s)) result.add_transition(s, t.symbol, t.target);
  }
  for (State s = 0; s < b.num_states(); ++s) {
    for (const auto& t : b.out(s)) {
      result.add_transition(offset + s, t.symbol, offset + t.target);
    }
  }
  // Bridge: from a's accepting states, take b's initial out-edges.
  for (State s = 0; s < a.num_states(); ++s) {
    if (!a.is_accepting(s)) continue;
    for (const State bi : b.initial()) {
      for (const auto& t : b.out(bi)) {
        result.add_transition_unique(s, t.symbol, offset + t.target);
      }
    }
  }
  for (const State s : a.initial()) result.set_initial(s);
  return result;
}

Nfa star_nfa(const Nfa& a) {
  Nfa result(a.alphabet());
  const State start = result.add_state(true);  // accepts ε
  for (State s = 0; s < a.num_states(); ++s) {
    result.add_state(a.is_accepting(s));
  }
  auto shifted = [](State s) { return static_cast<State>(s + 1); };
  for (State s = 0; s < a.num_states(); ++s) {
    for (const auto& t : a.out(s)) {
      result.add_transition(shifted(s), t.symbol, shifted(t.target));
    }
  }
  // From the fresh start and from every accepting state, restart a.
  for (const State i : a.initial()) {
    for (const auto& t : a.out(i)) {
      result.add_transition_unique(start, t.symbol, shifted(t.target));
      for (State s = 0; s < a.num_states(); ++s) {
        if (a.is_accepting(s)) {
          result.add_transition_unique(shifted(s), t.symbol,
                                       shifted(t.target));
        }
      }
    }
  }
  result.set_initial(start);
  return result;
}

Nfa trim(const Nfa& nfa) {
  DynBitset keep = nfa.reachable();
  keep &= nfa.productive();

  Nfa result(nfa.alphabet());
  std::vector<State> remap(nfa.num_states(), kNoState);
  for (State s = 0; s < nfa.num_states(); ++s) {
    if (keep.test(s)) remap[s] = result.add_state(nfa.is_accepting(s));
  }
  for (State s = 0; s < nfa.num_states(); ++s) {
    if (!keep.test(s)) continue;
    for (const auto& t : nfa.out(s)) {
      if (keep.test(t.target)) {
        result.add_transition(remap[s], t.symbol, remap[t.target]);
      }
    }
  }
  for (const State s : nfa.initial()) {
    if (keep.test(s)) result.set_initial(remap[s]);
  }
  return result;
}

Nfa prefix_language(const Nfa& nfa) {
  Nfa result = trim(nfa);
  for (State s = 0; s < result.num_states(); ++s) {
    result.set_accepting(s, true);
  }
  return result;
}

bool is_empty(const Nfa& nfa) {
  return !nfa.reachable().any_of(
      [&](std::size_t s) { return nfa.is_accepting(static_cast<State>(s)); });
}

namespace {

/// Union-find for Hopcroft–Karp equivalence testing.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Merges the classes of a and b; returns false when already merged.
  bool merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Hopcroft–Karp: are the languages from state `p` of complete DFA `a` and
/// state `q` of complete DFA `b` equal?
bool hk_equivalent(const Dfa& a, State p, const Dfa& b, State q) {
  assert(a.is_complete() && b.is_complete());
  assert(a.alphabet() == b.alphabet());
  const std::size_t na = a.num_states();
  UnionFind uf(na + b.num_states());
  std::vector<std::pair<State, State>> work;
  if (!uf.merge(p, na + q)) return true;
  work.emplace_back(p, q);
  while (!work.empty()) {
    const auto [x, y] = work.back();
    work.pop_back();
    if (a.is_accepting(x) != b.is_accepting(y)) return false;
    for (Symbol c = 0; c < a.alphabet()->size(); ++c) {
      const State nx = a.next(x, c);
      const State ny = b.next(y, c);
      if (uf.merge(nx, na + ny)) work.emplace_back(nx, ny);
    }
  }
  return true;
}

}  // namespace

bool dfa_equivalent(const Dfa& a, const Dfa& b) {
  const Dfa ca = a.complete();
  const Dfa cb = b.complete();
  return hk_equivalent(ca, ca.initial(), cb, cb.initial());
}

bool is_prefix_closed(const Nfa& nfa) {
  // L is prefix-closed iff pre(L) ⊆ L, iff pre(L) = L.
  const Dfa dl = minimize(determinize(nfa));
  const Dfa dp = minimize(determinize(prefix_language(nfa)));
  return dfa_equivalent(dl, dp);
}

std::vector<Word> enumerate_words(const Nfa& nfa, std::size_t max_len,
                                  std::size_t limit) {
  std::vector<Word> result;
  const std::size_t n = nfa.num_states();
  DynBitset init(n);
  for (const State s : nfa.initial()) init.set(s);

  struct Item {
    Word word;
    DynBitset states;
  };
  std::queue<Item> queue;
  queue.push({{}, init});
  while (!queue.empty()) {
    Item item = std::move(queue.front());
    queue.pop();
    const bool acc =
        item.states.any_of([&](std::size_t s) { return nfa.is_accepting(s); });
    if (acc) {
      result.push_back(item.word);
      if (result.size() > limit) {
        throw std::length_error("enumerate_words: limit exceeded");
      }
    }
    if (item.word.size() == max_len) continue;
    for (Symbol a = 0; a < nfa.alphabet()->size(); ++a) {
      DynBitset next = nfa.step(item.states, a);
      if (next.none()) continue;
      Word w = item.word;
      w.push_back(a);
      queue.push({std::move(w), std::move(next)});
    }
  }
  return result;
}

std::optional<Word> shortest_word(const Nfa& nfa) {
  const std::size_t n = nfa.num_states();
  std::vector<std::pair<State, Transition>> parent(
      n, {kNoState, {0, kNoState}});
  DynBitset seen(n);
  std::queue<State> queue;
  for (const State s : nfa.initial()) {
    if (!seen.test(s)) {
      seen.set(s);
      queue.push(s);
    }
  }
  State hit = kNoState;
  while (!queue.empty() && hit == kNoState) {
    const State s = queue.front();
    queue.pop();
    if (nfa.is_accepting(s)) {
      hit = s;
      break;
    }
    for (const auto& t : nfa.out(s)) {
      if (!seen.test(t.target)) {
        seen.set(t.target);
        parent[t.target] = {s, t};
        queue.push(t.target);
      }
    }
  }
  if (hit == kNoState) return std::nullopt;
  Word w;
  State s = hit;
  while (parent[s].first != kNoState) {
    w.push_back(parent[s].second.symbol);
    s = parent[s].first;
  }
  std::reverse(w.begin(), w.end());
  return w;
}

std::vector<std::uint64_t> count_words(const Nfa& nfa, std::size_t max_len) {
  // Count over the determinized automaton so runs are unambiguous.
  const Dfa dfa = determinize(nfa);
  std::vector<std::uint64_t> counts(max_len + 1, 0);
  std::vector<std::uint64_t> at(dfa.num_states(), 0);
  at[dfa.initial()] = 1;
  auto saturating_add = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t s = a + b;
    return (s < a) ? ~std::uint64_t{0} : s;
  };
  for (std::size_t len = 0; len <= max_len; ++len) {
    for (State s = 0; s < dfa.num_states(); ++s) {
      if (at[s] != 0 && dfa.is_accepting(s)) {
        counts[len] = saturating_add(counts[len], at[s]);
      }
    }
    if (len == max_len) break;
    std::vector<std::uint64_t> next(dfa.num_states(), 0);
    for (State s = 0; s < dfa.num_states(); ++s) {
      if (at[s] == 0) continue;
      for (Symbol a = 0; a < dfa.alphabet()->size(); ++a) {
        const State t = dfa.next(s, a);
        if (t != kNoState) next[t] = saturating_add(next[t], at[s]);
      }
    }
    at = std::move(next);
  }
  return counts;
}

Nfa remap_alphabet(const Nfa& nfa, AlphabetRef target) {
  std::vector<Symbol> translate(nfa.alphabet()->size());
  for (Symbol a = 0; a < nfa.alphabet()->size(); ++a) {
    translate[a] = target->id(nfa.alphabet()->name(a));
  }
  Nfa result(std::move(target));
  for (State s = 0; s < nfa.num_states(); ++s) {
    result.add_state(nfa.is_accepting(s));
  }
  for (State s = 0; s < nfa.num_states(); ++s) {
    for (const auto& t : nfa.out(s)) {
      result.add_transition(s, translate[t.symbol], t.target);
    }
  }
  for (const State s : nfa.initial()) result.set_initial(s);
  return result;
}

}  // namespace rlv

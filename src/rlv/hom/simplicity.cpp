#include "rlv/hom/simplicity.hpp"

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rlv/lang/dfa.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/util/intern.hpp"

namespace rlv {

namespace {

/// The witness search of Definition 6.3 over pairs (x, y) of states of one
/// complete DFA `d`: x tracks cont(h(w), h(L)) and its quotients, y tracks
/// h(cont(w, L)) and its quotients. A pair is *equal* when x and y share a
/// Nerode class, and *winning* when an equal pair is reachable from it along
/// words that keep x out of the sink `dead` (u must stay inside
/// cont(h(w), h(L))). Winning pairs are remembered across searches: every
/// pair on the discovery path of a success reaches the equal pair that
/// ended it. A failed search ends the decision, so losing pairs are not.
class WitnessSearch {
 public:
  WitnessSearch(const Dfa& d, State dead, Budget* budget)
      : d_(d), dead_(dead), budget_(budget),
        class_of_(nerode_classes(d, budget)) {}

  /// True when the pair (x, y) is winning.
  bool winning(State x, State y) {
    ++stamp_;
    nodes_.clear();
    if (visit(x, y, kNoParent)) return true;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      budget_tick(budget_);
      for (Symbol c = 0; c < d_.alphabet()->size(); ++c) {
        const State nx = d_.next(nodes_[i].x, c);
        if (nx == dead_) continue;
        if (visit(nx, d_.next(nodes_[i].y, c), i)) return true;
      }
    }
    return false;
  }

 private:
  static constexpr std::uint32_t kNoParent = 0xffffffffU;
  static constexpr std::uint32_t kWinning = 0xffffffffU;

  struct Node {
    State x;
    State y;
    std::uint32_t parent;
  };

  [[nodiscard]] std::uint64_t key(State x, State y) const {
    return static_cast<std::uint64_t>(x) * d_.num_states() + y;
  }

  /// Discovers (x, y) from node `parent`. Returns true — after marking the
  /// discovery path winning — when the pair is equal or already known to
  /// be winning; otherwise queues it unless this search has seen it.
  bool visit(State x, State y, std::uint32_t parent) {
    std::uint32_t& mark = mark_[key(x, y)];
    if (mark == kWinning || class_of_[x] == class_of_[y]) {
      mark = kWinning;
      for (std::uint32_t i = parent; i != kNoParent; i = nodes_[i].parent) {
        mark_[key(nodes_[i].x, nodes_[i].y)] = kWinning;
      }
      return true;
    }
    if (mark == stamp_) return false;
    mark = stamp_;
    nodes_.push_back({x, y, parent});
    return false;
  }

  const Dfa& d_;
  State dead_;
  Budget* budget_;
  std::vector<std::uint32_t> class_of_;
  // Per pair: kWinning, or the stamp of the last search that queued it.
  std::unordered_map<std::uint64_t, std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  std::vector<Node> nodes_;  // the current search's queue, breadth-first
};

}  // namespace

SimplicityResult check_simplicity(const Nfa& nfa, const Homomorphism& h,
                                  Budget* budget) {
  assert(nfa.alphabet() == h.source());

  // DFA for L; its states index the cont classes cont(w, L).
  const Nfa trimmed = trim(nfa);
  SimplicityResult result;
  if (trimmed.num_states() == 0) {
    result.simple = true;  // empty language: vacuously simple
    return result;
  }
  const Dfa dl = minimize(determinize(trimmed, budget), budget);

  // One automaton in two disjoint parts: the trimmed system and DL. One
  // subset construction of its image, closed under hidden letters, then
  // gives D: from the root closure(initial), D's states index every
  // cont(h(w), h(L)); from the root closure({q}), state residual[q] accepts
  // h(cont(w, L)) for the words w that reach q. Two DL states with equal
  // closures share a root.
  const Nfa joint = union_nfa(trimmed, dl.to_nfa());
  std::vector<std::vector<State>> roots{trimmed.initial()};
  const auto offset = static_cast<State>(trimmed.num_states());
  for (State q = 0; q < dl.num_states(); ++q) roots.push_back({offset + q});
  const RootedDfa image = determinize_from(joint, roots, &h, budget);
  const std::span<const State> residual(image.roots.begin() + 1,
                                        image.roots.end());
  const Dfa d = image.dfa.complete();
  const State dead = d.num_states() > image.dfa.num_states()
                         ? static_cast<State>(d.num_states() - 1)
                         : kNoState;
  WitnessSearch search(d, dead, budget);

  // Breadth-first over the reachable (q, S) pairs; a pair's word is
  // rebuilt from the parent links when it has no witness.
  struct Item {
    State q;
    State s;
    std::uint32_t parent;
    Symbol symbol;
  };
  std::vector<Item> items;
  U64KeySet seen;
  auto discover = [&](State q, State s, std::uint32_t parent, Symbol a) {
    if (!seen.insert(static_cast<std::uint64_t>(q) * d.num_states() + s)) {
      return;
    }
    budget_charge(budget);
    items.push_back({q, s, parent, a});
  };
  discover(dl.initial(), d.initial(), 0, 0);

  for (std::uint32_t i = 0; i < items.size(); ++i) {
    ++result.pairs_checked;
    const Item item = items[i];
    if (!search.winning(item.s, residual[item.q])) {
      Word w;
      for (std::uint32_t j = i; j != 0; j = items[j].parent) {
        w.push_back(items[j].symbol);
      }
      result.violating_word = Word(w.rbegin(), w.rend());
      result.simple = false;
      return result;
    }

    for (Symbol a = 0; a < nfa.alphabet()->size(); ++a) {
      const State nq = dl.next(item.q, a);
      if (nq == kNoState) continue;  // wa ∉ L
      State ns = item.s;
      if (const auto mapped = h.apply(a)) {
        ns = d.next(item.s, *mapped);
        assert(ns != dead && "image automaton must simulate h(L)");
      }
      discover(nq, ns, i, a);
    }
  }
  result.simple = true;
  return result;
}

}  // namespace rlv

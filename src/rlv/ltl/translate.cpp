#include "rlv/ltl/translate.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>
#include <vector>

#include "rlv/ltl/pnf.hpp"

namespace rlv {

namespace {

using FormulaSet = std::vector<Formula>;  // sorted by interning order

bool contains(const FormulaSet& set, Formula f) {
  return std::binary_search(set.begin(), set.end(), f);
}

void insert(FormulaSet& set, Formula f) {
  auto it = std::lower_bound(set.begin(), set.end(), f);
  if (it == set.end() || !(*it == f)) set.insert(it, f);
}

/// A completed tableau node: `old` records the formulas asserted at the
/// current position (literals constrain the letter read on entering the
/// state), `next` the obligations postponed to the following position.
struct NodeKey {
  FormulaSet old;
  FormulaSet next;

  friend bool operator<(const NodeKey& a, const NodeKey& b) {
    if (a.old != b.old) return a.old < b.old;
    return a.next < b.next;
  }
  friend bool operator==(const NodeKey& a, const NodeKey& b) = default;
};

struct PendingNode {
  FormulaSet todo;
  FormulaSet old;
  FormulaSet next;
};

/// Is `f` a literal (atom or negated atom)? Used by assertions only.
[[maybe_unused]] bool is_literal(Formula f) {
  return f.op() == LtlOp::kAtom ||
         (f.op() == LtlOp::kNot && f.left().op() == LtlOp::kAtom);
}

/// Expands `seed` into the set of completed nodes ("cover" of the formula
/// set): each completed node is one disjunct of the tableau decomposition.
std::vector<NodeKey> cover(FormulaSet seed, Budget* budget) {
  std::vector<NodeKey> done;
  std::vector<PendingNode> work;
  work.push_back({std::move(seed), {}, {}});

  while (!work.empty()) {
    budget_tick(budget);
    PendingNode node = std::move(work.back());
    work.pop_back();

    if (node.todo.empty()) {
      done.push_back({std::move(node.old), std::move(node.next)});
      continue;
    }
    const Formula f = node.todo.back();
    node.todo.pop_back();

    if (contains(node.old, f)) {
      work.push_back(std::move(node));
      continue;
    }

    switch (f.op()) {
      case LtlOp::kTrue:
        work.push_back(std::move(node));
        break;
      case LtlOp::kFalse:
        break;  // contradiction: drop the node
      case LtlOp::kAtom:
      case LtlOp::kNot: {
        assert(is_literal(f));
        const Formula negation =
            (f.op() == LtlOp::kAtom) ? f_not(f) : f.left();
        if (contains(node.old, negation)) break;  // p ∧ ¬p: drop
        insert(node.old, f);
        work.push_back(std::move(node));
        break;
      }
      case LtlOp::kAnd:
        insert(node.old, f);
        insert(node.todo, f.left());
        insert(node.todo, f.right());
        work.push_back(std::move(node));
        break;
      case LtlOp::kOr: {
        insert(node.old, f);
        PendingNode other = node;
        insert(node.todo, f.left());
        insert(other.todo, f.right());
        work.push_back(std::move(node));
        work.push_back(std::move(other));
        break;
      }
      case LtlOp::kNext:
        insert(node.old, f);
        insert(node.next, f.left());
        work.push_back(std::move(node));
        break;
      case LtlOp::kUntil: {
        // fUg = g ∨ (f ∧ X(fUg)).
        insert(node.old, f);
        PendingNode now = node;
        insert(now.todo, f.right());
        PendingNode later = std::move(node);
        insert(later.todo, f.left());
        insert(later.next, f);
        work.push_back(std::move(now));
        work.push_back(std::move(later));
        break;
      }
      case LtlOp::kRelease: {
        // fRg = (g ∧ f) ∨ (g ∧ X(fRg)).
        insert(node.old, f);
        PendingNode now = node;
        insert(now.todo, f.left());
        insert(now.todo, f.right());
        PendingNode later = std::move(node);
        insert(later.todo, f.right());
        insert(later.next, f);
        work.push_back(std::move(now));
        work.push_back(std::move(later));
        break;
      }
    }
  }

  std::sort(done.begin(), done.end());
  done.erase(std::unique(done.begin(), done.end()), done.end());
  return done;
}

/// All Until subformulas of a PNF formula.
void until_subformulas(Formula f, FormulaSet& out) {
  switch (f.op()) {
    case LtlOp::kTrue:
    case LtlOp::kFalse:
    case LtlOp::kAtom:
      return;
    case LtlOp::kNot:
    case LtlOp::kNext:
      until_subformulas(f.left(), out);
      return;
    case LtlOp::kUntil:
      insert(out, f);
      until_subformulas(f.left(), out);
      until_subformulas(f.right(), out);
      return;
    case LtlOp::kAnd:
    case LtlOp::kOr:
    case LtlOp::kRelease:
      until_subformulas(f.left(), out);
      until_subformulas(f.right(), out);
      return;
  }
}

/// Is letter `a` consistent with the literals recorded in `old`?
bool letter_compatible(const FormulaSet& old, Symbol a,
                       const Labeling& lambda) {
  for (const Formula f : old) {
    if (f.op() == LtlOp::kAtom) {
      if (!lambda.holds(a, f.atom_name())) return false;
    } else if (f.op() == LtlOp::kNot) {
      if (lambda.holds(a, f.left().atom_name())) return false;
    }
  }
  return true;
}

/// Unscoped worker shared by the public entry points, each of which opens
/// its own StageScope (so nested calls don't inflate the stage call count).
GenBuchi translate_gen_impl(Formula f, const Labeling& lambda,
                            Budget* budget) {
  const Formula phi = to_pnf(f);
  const AlphabetRef& sigma = lambda.alphabet();

  GenBuchi result(sigma);

  FormulaSet untils;
  until_subformulas(phi, untils);

  std::map<NodeKey, State> ids;
  std::vector<NodeKey> keys;  // parallel to state ids (offset by init)
  std::vector<State> worklist;

  const State init = result.structure.add_state();
  result.structure.set_initial(init);

  auto intern = [&](NodeKey key) -> State {
    auto [it, inserted] = ids.emplace(std::move(key), kNoState);
    if (inserted) {
      budget_charge(budget);
      it->second = result.structure.add_state();
      keys.push_back(it->first);
      worklist.push_back(it->second);
    }
    return it->second;
  };

  auto connect = [&](State from, const NodeKey& target_key, State target) {
    for (Symbol a = 0; a < sigma->size(); ++a) {
      if (letter_compatible(target_key.old, a, lambda)) {
        result.structure.add_transition(from, a, target);
      }
    }
  };

  for (NodeKey& node : cover({phi}, budget)) {
    NodeKey copy = node;
    const State s = intern(std::move(node));
    connect(init, copy, s);
  }

  while (!worklist.empty()) {
    const State s = worklist.back();
    worklist.pop_back();
    const NodeKey current = keys[s - 1];  // states are init + dense ids
    for (NodeKey& succ : cover(current.next, budget)) {
      NodeKey copy = succ;
      const State t = intern(std::move(succ));
      connect(s, copy, t);
    }
  }

  // One acceptance set per Until subformula ψ = fUg: states where ψ is not
  // asserted or where g is asserted. The initial state occurs at most once
  // in a run, so its membership is irrelevant; include it for neatness.
  for (const Formula psi : untils) {
    DynBitset set(result.structure.num_states());
    set.set(init);
    for (State s = 1; s < result.structure.num_states(); ++s) {
      const NodeKey& key = keys[s - 1];
      if (!contains(key.old, psi) || contains(key.old, psi.right())) {
        set.set(s);
      }
    }
    result.sets.push_back(std::move(set));
  }
  return result;
}

}  // namespace

GenBuchi translate_ltl_gen(Formula f, const Labeling& lambda, Budget* budget) {
  StageScope scope(budget, Stage::kTranslate);
  return translate_gen_impl(f, lambda, budget);
}

Buchi translate_ltl(Formula f, const Labeling& lambda, Budget* budget) {
  StageScope scope(budget, Stage::kTranslate);
  return degeneralize(translate_gen_impl(f, lambda, budget), budget);
}

Buchi translate_ltl_negated(Formula f, const Labeling& lambda,
                            Budget* budget) {
  StageScope scope(budget, Stage::kTranslate);
  return degeneralize(translate_gen_impl(f_not(f), lambda, budget), budget);
}

}  // namespace rlv

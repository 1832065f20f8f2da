#pragma once

// Propositional linear temporal logic (PLTL, §3 of the paper). Formulas are
// immutable, hash-consed nodes: structurally equal formulas are the same
// object, so Formula equality and hashing are pointer-based — which the
// tableau translation and the evaluator rely on for memoization.
//
// Derived operators are expanded at construction time into the kernel
// {true, false, atom, ¬, ∧, ∨, X, U, R}:
//   ◇ξ = true U ξ,   □ξ = false R ξ,   ξ⇒ζ = ¬ξ ∨ ζ,   ξ⇔ζ = (ξ⇒ζ)∧(ζ⇒ξ),
//   ξ B ζ = ¬(¬ξ U ζ) = ξ R ¬ζ          (the paper's "before" operator).
//
// Atoms are named; how a letter of an alphabet satisfies an atom is decided
// by a Labeling (λ in the paper): the canonical Σ-labeling λ_Σ(a) = {a}
// (Definition 7.2) or the homomorphism labeling λ_hΣΣ' (Definition 7.3).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rlv/lang/alphabet.hpp"

namespace rlv {

enum class LtlOp : std::uint8_t {
  kTrue,
  kFalse,
  kAtom,
  kNot,
  kAnd,
  kOr,
  kNext,     // O in the paper, X here
  kUntil,    // U
  kRelease,  // R (dual of U; used for positive normal form)
};

class LtlNode;

/// Lightweight handle to an interned formula node. Copyable; equality is
/// pointer equality (valid because of hash-consing).
class Formula {
 public:
  Formula() = default;

  [[nodiscard]] LtlOp op() const;
  [[nodiscard]] const std::string& atom_name() const;  // kAtom only
  [[nodiscard]] Formula left() const;   // unary: the operand
  [[nodiscard]] Formula right() const;  // binary only

  [[nodiscard]] bool valid() const { return node_ != nullptr; }

  /// True when the formula contains no temporal operator (pure Boolean —
  /// the ξ_b of Definition 7.4).
  [[nodiscard]] bool is_pure_boolean() const;

  /// True when every negation is applied directly to an atom.
  [[nodiscard]] bool is_positive_normal_form() const;

  /// Names of all atoms occurring in the formula (sorted, unique).
  [[nodiscard]] std::vector<std::string> atoms() const;

  /// Number of AST nodes (shared subterms counted once per occurrence).
  [[nodiscard]] std::size_t size() const;

  /// Precedence-aware rendering, e.g. "G(F(result))".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(Formula a, Formula b) { return a.node_ == b.node_; }
  /// Interning order, not address: tableau numbering ignores heap layout.
  friend bool operator<(Formula a, Formula b);

  [[nodiscard]] std::size_t hash() const {
    return std::hash<const LtlNode*>{}(node_);
  }

  [[nodiscard]] const LtlNode* raw() const { return node_; }

 private:
  friend class LtlFactory;
  explicit Formula(const LtlNode* node) : node_(node) {}

  const LtlNode* node_ = nullptr;
};

struct FormulaHash {
  std::size_t operator()(Formula f) const { return f.hash(); }
};

// Kernel constructors (interned; structurally equal calls return the same
// handle). Only local simplifications are applied (¬¬ξ = ξ, ¬true = false,
// true∧ξ = ξ, ...); use to_pnf() from pnf.hpp to push negations to atoms.
[[nodiscard]] Formula f_true();
[[nodiscard]] Formula f_false();
[[nodiscard]] Formula f_atom(std::string_view name);
[[nodiscard]] Formula f_not(Formula f);
[[nodiscard]] Formula f_and(Formula a, Formula b);
[[nodiscard]] Formula f_or(Formula a, Formula b);
[[nodiscard]] Formula f_next(Formula f);
[[nodiscard]] Formula f_until(Formula a, Formula b);
[[nodiscard]] Formula f_release(Formula a, Formula b);

// Derived operators.
[[nodiscard]] Formula f_implies(Formula a, Formula b);
[[nodiscard]] Formula f_iff(Formula a, Formula b);
[[nodiscard]] Formula f_eventually(Formula f);  // ◇
[[nodiscard]] Formula f_always(Formula f);      // □
[[nodiscard]] Formula f_before(Formula a, Formula b);  // ξ B ζ = ξ R ¬ζ

/// Labeling function λ : Σ → 2^AP (§3). Decides which atoms hold at each
/// letter of the alphabet.
class Labeling {
 public:
  /// The canonical Σ-labeling λ_Σ(a) = {name(a)} (Definition 7.2).
  static Labeling canonical(AlphabetRef sigma);

  /// Explicit labeling: `labels[s]` is the set of atom names holding at
  /// symbol s. Used for λ_hΣΣ' (Definition 7.3) and custom interpretations.
  Labeling(AlphabetRef sigma, std::vector<std::vector<std::string>> labels);

  [[nodiscard]] const AlphabetRef& alphabet() const { return sigma_; }

  /// Does atom `name` hold at letter `s`?
  [[nodiscard]] bool holds(Symbol s, const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& labels(Symbol s) const {
    return labels_[s];
  }

 private:
  AlphabetRef sigma_;
  std::vector<std::vector<std::string>> labels_;  // sorted per symbol
};

}  // namespace rlv

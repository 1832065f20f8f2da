#include "rlv/ltl/ast.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "rlv/util/hash.hpp"

namespace rlv {

/// Interned node. Nodes live forever in the process-wide intern table (a
/// deliberate arena: verification runs build bounded formula sets, and
/// immortality is what makes pointer equality sound).
class LtlNode {
 public:
  LtlOp op;
  std::string atom;          // kAtom only
  const LtlNode* left = nullptr;
  const LtlNode* right = nullptr;
  std::uint64_t serial = 0;  // interning order, 1-based; see operator<
};

namespace {

struct NodeKey {
  LtlOp op;
  std::string atom;
  const LtlNode* left;
  const LtlNode* right;

  friend bool operator==(const NodeKey&, const NodeKey&) = default;
};

struct NodeKeyHash {
  std::size_t operator()(const NodeKey& k) const {
    std::size_t h = static_cast<std::size_t>(k.op);
    h = hash_combine(h, std::hash<std::string>{}(k.atom));
    h = hash_combine(h, std::hash<const LtlNode*>{}(k.left));
    h = hash_combine(h, std::hash<const LtlNode*>{}(k.right));
    return h;
  }
};

/// Process-wide intern table, guarded by a reader/writer lock so that
/// formula construction is safe from concurrent threads (the rlv::engine
/// thread pool translates formulas in parallel). Nodes are heap-allocated
/// and immortal, so a pointer handed out under the lock stays valid forever
/// and pointer equality remains sound across threads.
std::unordered_map<NodeKey, std::unique_ptr<LtlNode>, NodeKeyHash>&
intern_table() {
  static auto* table =
      new std::unordered_map<NodeKey, std::unique_ptr<LtlNode>, NodeKeyHash>();
  return *table;
}

std::shared_mutex& intern_mutex() {
  static auto* mutex = new std::shared_mutex();
  return *mutex;
}

const LtlNode* intern(LtlOp op, std::string atom, const LtlNode* left,
                      const LtlNode* right) {
  NodeKey key{op, atom, left, right};
  auto& table = intern_table();
  {
    std::shared_lock lock(intern_mutex());
    auto it = table.find(key);
    if (it != table.end()) return it->second.get();
  }
  std::unique_lock lock(intern_mutex());
  auto it = table.find(key);  // re-check: another writer may have won
  if (it == table.end()) {
    auto node = std::make_unique<LtlNode>();
    node->op = op;
    node->atom = std::move(atom);
    node->left = left;
    node->right = right;
    node->serial = table.size() + 1;
    it = table.emplace(std::move(key), std::move(node)).first;
  }
  return it->second.get();
}

Formula wrap(const LtlNode* node);

}  // namespace

class LtlFactory {
 public:
  static Formula make(const LtlNode* node) { return Formula(node); }
};

namespace {
Formula wrap(const LtlNode* node) { return LtlFactory::make(node); }
}  // namespace

bool operator<(Formula a, Formula b) {
  return (a.node_ ? a.node_->serial : 0) < (b.node_ ? b.node_->serial : 0);
}

LtlOp Formula::op() const { return node_->op; }

const std::string& Formula::atom_name() const {
  assert(node_->op == LtlOp::kAtom);
  return node_->atom;
}

Formula Formula::left() const { return wrap(node_->left); }
Formula Formula::right() const { return wrap(node_->right); }

bool Formula::is_pure_boolean() const {
  switch (op()) {
    case LtlOp::kTrue:
    case LtlOp::kFalse:
    case LtlOp::kAtom:
      return true;
    case LtlOp::kNot:
      return left().is_pure_boolean();
    case LtlOp::kAnd:
    case LtlOp::kOr:
      return left().is_pure_boolean() && right().is_pure_boolean();
    case LtlOp::kNext:
    case LtlOp::kUntil:
    case LtlOp::kRelease:
      return false;
  }
  return false;
}

bool Formula::is_positive_normal_form() const {
  switch (op()) {
    case LtlOp::kTrue:
    case LtlOp::kFalse:
    case LtlOp::kAtom:
      return true;
    case LtlOp::kNot:
      return left().op() == LtlOp::kAtom;
    case LtlOp::kNext:
      return left().is_positive_normal_form();
    case LtlOp::kAnd:
    case LtlOp::kOr:
    case LtlOp::kUntil:
    case LtlOp::kRelease:
      return left().is_positive_normal_form() &&
             right().is_positive_normal_form();
  }
  return false;
}

std::vector<std::string> Formula::atoms() const {
  std::vector<std::string> result;
  std::deque<Formula> work{*this};
  while (!work.empty()) {
    const Formula f = work.front();
    work.pop_front();
    switch (f.op()) {
      case LtlOp::kTrue:
      case LtlOp::kFalse:
        break;
      case LtlOp::kAtom:
        result.push_back(f.atom_name());
        break;
      case LtlOp::kNot:
      case LtlOp::kNext:
        work.push_back(f.left());
        break;
      case LtlOp::kAnd:
      case LtlOp::kOr:
      case LtlOp::kUntil:
      case LtlOp::kRelease:
        work.push_back(f.left());
        work.push_back(f.right());
        break;
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::size_t Formula::size() const {
  switch (op()) {
    case LtlOp::kTrue:
    case LtlOp::kFalse:
    case LtlOp::kAtom:
      return 1;
    case LtlOp::kNot:
    case LtlOp::kNext:
      return 1 + left().size();
    case LtlOp::kAnd:
    case LtlOp::kOr:
    case LtlOp::kUntil:
    case LtlOp::kRelease:
      return 1 + left().size() + right().size();
  }
  return 1;
}

namespace {

// Precedence for printing: higher binds tighter.
int precedence(LtlOp op) {
  switch (op) {
    case LtlOp::kTrue:
    case LtlOp::kFalse:
    case LtlOp::kAtom:
      return 6;
    case LtlOp::kNot:
    case LtlOp::kNext:
      return 5;
    case LtlOp::kUntil:
    case LtlOp::kRelease:
      return 4;
    case LtlOp::kAnd:
      return 3;
    case LtlOp::kOr:
      return 2;
  }
  return 0;
}

void print(Formula f, int parent_prec, std::string& out) {
  const int prec = precedence(f.op());
  // Recognize the derived-operator patterns for readability.
  if (f.op() == LtlOp::kUntil && f.left().op() == LtlOp::kTrue) {
    out += "F ";
    print(f.right(), 5, out);
    return;
  }
  if (f.op() == LtlOp::kRelease && f.left().op() == LtlOp::kFalse) {
    out += "G ";
    print(f.right(), 5, out);
    return;
  }
  const bool parens = prec < parent_prec;
  if (parens) out += '(';
  switch (f.op()) {
    case LtlOp::kTrue:
      out += "true";
      break;
    case LtlOp::kFalse:
      out += "false";
      break;
    case LtlOp::kAtom:
      out += f.atom_name();
      break;
    case LtlOp::kNot:
      out += '!';
      print(f.left(), prec + 1, out);
      break;
    case LtlOp::kNext:
      out += "X ";
      print(f.left(), prec, out);
      break;
    case LtlOp::kAnd:
      // Right operand gets prec+1 so that And(a, And(b, c)) prints with
      // parentheses and the parser's left associativity round-trips the
      // exact tree.
      print(f.left(), prec, out);
      out += " && ";
      print(f.right(), prec + 1, out);
      break;
    case LtlOp::kOr:
      print(f.left(), prec, out);
      out += " || ";
      print(f.right(), prec + 1, out);
      break;
    case LtlOp::kUntil:
      print(f.left(), prec + 1, out);
      out += " U ";
      print(f.right(), prec + 1, out);
      break;
    case LtlOp::kRelease:
      print(f.left(), prec + 1, out);
      out += " R ";
      print(f.right(), prec + 1, out);
      break;
  }
  if (parens) out += ')';
}

}  // namespace

std::string Formula::to_string() const {
  std::string out;
  print(*this, 0, out);
  return out;
}

Formula f_true() { return wrap(intern(LtlOp::kTrue, {}, nullptr, nullptr)); }
Formula f_false() { return wrap(intern(LtlOp::kFalse, {}, nullptr, nullptr)); }

Formula f_atom(std::string_view name) {
  assert(!name.empty());
  return wrap(intern(LtlOp::kAtom, std::string(name), nullptr, nullptr));
}

Formula f_not(Formula f) {
  switch (f.op()) {
    case LtlOp::kTrue:
      return f_false();
    case LtlOp::kFalse:
      return f_true();
    case LtlOp::kNot:
      return f.left();  // ¬¬ξ = ξ
    default:
      return wrap(intern(LtlOp::kNot, {}, f.raw(), nullptr));
  }
}

Formula f_and(Formula a, Formula b) {
  if (a.op() == LtlOp::kFalse || b.op() == LtlOp::kFalse) return f_false();
  if (a.op() == LtlOp::kTrue) return b;
  if (b.op() == LtlOp::kTrue) return a;
  if (a == b) return a;
  return wrap(intern(LtlOp::kAnd, {}, a.raw(), b.raw()));
}

Formula f_or(Formula a, Formula b) {
  if (a.op() == LtlOp::kTrue || b.op() == LtlOp::kTrue) return f_true();
  if (a.op() == LtlOp::kFalse) return b;
  if (b.op() == LtlOp::kFalse) return a;
  if (a == b) return a;
  return wrap(intern(LtlOp::kOr, {}, a.raw(), b.raw()));
}

Formula f_next(Formula f) {
  return wrap(intern(LtlOp::kNext, {}, f.raw(), nullptr));
}

Formula f_until(Formula a, Formula b) {
  if (b.op() == LtlOp::kTrue || b.op() == LtlOp::kFalse) return b;
  return wrap(intern(LtlOp::kUntil, {}, a.raw(), b.raw()));
}

Formula f_release(Formula a, Formula b) {
  if (b.op() == LtlOp::kTrue || b.op() == LtlOp::kFalse) return b;
  return wrap(intern(LtlOp::kRelease, {}, a.raw(), b.raw()));
}

Formula f_implies(Formula a, Formula b) { return f_or(f_not(a), b); }

Formula f_iff(Formula a, Formula b) {
  return f_and(f_implies(a, b), f_implies(b, a));
}

Formula f_eventually(Formula f) { return f_until(f_true(), f); }
Formula f_always(Formula f) { return f_release(f_false(), f); }

Formula f_before(Formula a, Formula b) {
  // ξ B ζ = ¬(¬ξ U ζ) = ξ R ¬ζ.
  return f_release(a, f_not(b));
}

Labeling Labeling::canonical(AlphabetRef sigma) {
  std::vector<std::vector<std::string>> labels;
  labels.reserve(sigma->size());
  for (Symbol s = 0; s < sigma->size(); ++s) {
    labels.push_back({sigma->name(s)});
  }
  return Labeling(std::move(sigma), std::move(labels));
}

Labeling::Labeling(AlphabetRef sigma,
                   std::vector<std::vector<std::string>> labels)
    : sigma_(std::move(sigma)), labels_(std::move(labels)) {
  if (labels_.size() != sigma_->size()) {
    // Reached from translate_ltl via user-supplied labelings; an assert
    // would vanish under NDEBUG and turn into out-of-range reads.
    throw std::invalid_argument(
        "Labeling: need exactly one label set per alphabet symbol (got " +
        std::to_string(labels_.size()) + " for |Sigma| = " +
        std::to_string(sigma_->size()) + ")");
  }
  for (auto& set : labels_) std::sort(set.begin(), set.end());
}

bool Labeling::holds(Symbol s, const std::string& name) const {
  assert(s < labels_.size());
  return std::binary_search(labels_[s].begin(), labels_[s].end(), name);
}

}  // namespace rlv

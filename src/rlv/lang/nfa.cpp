#include "rlv/lang/nfa.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rlv {

State Nfa::add_state(bool accepting) {
  reopen_for_append();
  const State s = static_cast<State>(accepting_.size());
  accepting_.push_back(accepting);
  return s;
}

void Nfa::add_transition(State from, Symbol symbol, State to) {
  assert(from < num_states() && to < num_states());
  assert(symbol < sigma_->size());
  reopen_for_append();
  build_src_.push_back(from);
  build_edge_.push_back({symbol, to});
}

void Nfa::add_transition_unique(State from, Symbol symbol, State to) {
  if (indexed_.load(std::memory_order_relaxed)) {
    for (const Transition& t : block(from, symbol)) {
      if (t.target == to) return;
    }
  } else {
    for (std::size_t i = 0; i < build_src_.size(); ++i) {
      if (build_src_[i] == from && build_edge_[i].symbol == symbol &&
          build_edge_[i].target == to) {
        return;
      }
    }
  }
  add_transition(from, symbol, to);
}

std::size_t Nfa::num_transitions() const {
  return indexed_.load(std::memory_order_acquire) ? csr_.size()
                                                  : build_edge_.size();
}

void Nfa::build_index() const {
  const std::size_t n = num_states();
  const std::size_t width = sigma_->size();
  const std::size_t cells = n * width;
  sym_off_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < build_edge_.size(); ++i) {
    const std::size_t cell =
        static_cast<std::size_t>(build_src_[i]) * width +
        build_edge_[i].symbol;
    ++sym_off_[cell + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) sym_off_[c + 1] += sym_off_[c];
  csr_.resize(build_edge_.size());
  std::vector<std::uint32_t> cursor(sym_off_.begin(), sym_off_.end() - 1);
  for (std::size_t i = 0; i < build_edge_.size(); ++i) {
    const std::size_t cell =
        static_cast<std::size_t>(build_src_[i]) * width +
        build_edge_[i].symbol;
    csr_[cursor[cell]++] = build_edge_[i];
  }
  build_src_.clear();
  build_src_.shrink_to_fit();
  build_edge_.clear();
  build_edge_.shrink_to_fit();
}

void Nfa::reopen_for_append() {
  if (!indexed_.load(std::memory_order_relaxed)) return;
  // Scatter the CSR edges back into the building arrays. Iterating the CSR
  // yields them symbol-major per state — a permutation of the original
  // insertion order, which only affects iteration order, never the language.
  const std::size_t width = sigma_->size();
  build_src_.reserve(csr_.size());
  build_edge_.reserve(csr_.size());
  for (State s = 0; s < num_states(); ++s) {
    const std::size_t row = static_cast<std::size_t>(s) * width;
    for (std::uint32_t i = sym_off_[row]; i < sym_off_[row + width]; ++i) {
      build_src_.push_back(s);
      build_edge_.push_back(csr_[i]);
    }
  }
  csr_.clear();
  csr_.shrink_to_fit();
  sym_off_.clear();
  sym_off_.shrink_to_fit();
  indexed_.store(false, std::memory_order_relaxed);
}

void Nfa::copy_from(const Nfa& o) {
  sigma_ = o.sigma_;
  accepting_ = o.accepting_;
  initial_ = o.initial_;
  build_src_ = o.build_src_;
  build_edge_ = o.build_edge_;
  csr_ = o.csr_;
  sym_off_ = o.sym_off_;
  indexed_.store(o.indexed_.load(std::memory_order_acquire),
                 std::memory_order_release);
}

void Nfa::move_from(Nfa&& o) {
  sigma_ = std::move(o.sigma_);
  accepting_ = std::move(o.accepting_);
  initial_ = std::move(o.initial_);
  build_src_ = std::move(o.build_src_);
  build_edge_ = std::move(o.build_edge_);
  csr_ = std::move(o.csr_);
  sym_off_ = std::move(o.sym_off_);
  indexed_.store(o.indexed_.load(std::memory_order_acquire),
                 std::memory_order_release);
  o.indexed_.store(false, std::memory_order_relaxed);
}

std::vector<State> Nfa::successors(State from, Symbol symbol) const {
  const std::span<const Transition> edges = block(from, symbol);
  std::vector<State> result;
  result.reserve(edges.size());
  for (const Transition& t : edges) result.push_back(t.target);
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

DynBitset Nfa::step(const DynBitset& states, Symbol symbol) const {
  DynBitset next(num_states());
  states.for_each([&](std::size_t s) {
    for (const Transition& t : block(static_cast<State>(s), symbol)) {
      next.set(t.target);
    }
  });
  return next;
}

void Nfa::step_words(const std::uint64_t* src, Symbol symbol,
                     std::uint64_t* dst) const {
  ensure_index();
  const std::size_t n = num_states();
  const std::size_t num_words = (n + 63) / 64;
  for (std::size_t i = 0; i < num_words; ++i) dst[i] = 0;
  const std::size_t width = sigma_->size();
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    std::uint64_t w = src[wi];
    while (w != 0) {
      const std::size_t s =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const std::size_t cell = s * width + symbol;
      for (std::uint32_t i = sym_off_[cell]; i < sym_off_[cell + 1]; ++i) {
        const State t = csr_[i].target;
        dst[t >> 6] |= std::uint64_t{1} << (t & 63);
      }
    }
  }
}

DynBitset Nfa::run(const Word& w) const {
  DynBitset current(num_states());
  for (const State s : initial_) current.set(s);
  for (const Symbol a : w) {
    if (current.none()) break;
    current = step(current, a);
  }
  return current;
}

bool Nfa::accepts(const Word& w) const {
  return run(w).any_of([&](std::size_t s) { return accepting_[s]; });
}

DynBitset Nfa::reachable() const {
  DynBitset seen(num_states());
  std::vector<State> work;
  for (const State s : initial_) {
    if (!seen.test(s)) {
      seen.set(s);
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const State s = work.back();
    work.pop_back();
    for (const Transition& t : out(s)) {
      if (!seen.test(t.target)) {
        seen.set(t.target);
        work.push_back(t.target);
      }
    }
  }
  return seen;
}

DynBitset Nfa::productive() const {
  // Backward reachability from accepting states over reversed edges, the
  // predecessors of t counting-sorted into pred[pred_begin[t] ..
  // pred_begin[t + 1]).
  const std::size_t n = num_states();
  std::vector<std::uint32_t> pred_begin(n + 1, 0);
  for (State s = 0; s < n; ++s) {
    for (const Transition& t : out(s)) ++pred_begin[t.target + 1];
  }
  for (std::size_t i = 0; i < n; ++i) pred_begin[i + 1] += pred_begin[i];
  std::vector<State> pred(pred_begin[n]);
  std::vector<std::uint32_t> fill(pred_begin.begin(), pred_begin.end() - 1);
  for (State s = 0; s < n; ++s) {
    for (const Transition& t : out(s)) pred[fill[t.target]++] = s;
  }
  DynBitset seen(n);
  std::vector<State> work;
  for (State s = 0; s < num_states(); ++s) {
    if (accepting_[s]) {
      seen.set(s);
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const State s = work.back();
    work.pop_back();
    for (std::uint32_t i = pred_begin[s]; i < pred_begin[s + 1]; ++i) {
      const State p = pred[i];
      if (!seen.test(p)) {
        seen.set(p);
        work.push_back(p);
      }
    }
  }
  return seen;
}

DynBitset Nfa::accepting_set() const {
  DynBitset acc(num_states());
  for (State s = 0; s < num_states(); ++s) {
    if (accepting_[s]) acc.set(s);
  }
  return acc;
}

std::string Nfa::to_string() const {
  std::string out_str = "NFA states=" + std::to_string(num_states()) +
                        " transitions=" + std::to_string(num_transitions()) +
                        "\n";
  out_str += "initial:";
  for (const State s : initial_) out_str += " " + std::to_string(s);
  out_str += "\n";
  for (State s = 0; s < num_states(); ++s) {
    out_str += std::to_string(s);
    if (accepting_[s]) out_str += "*";
    out_str += ":";
    for (const Transition& t : out(s)) {
      out_str +=
          " -" + sigma_->name(t.symbol) + "->" + std::to_string(t.target);
    }
    out_str += "\n";
  }
  return out_str;
}

}  // namespace rlv

#include "rlv/petri/reachability.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "rlv/util/intern.hpp"

namespace rlv {

namespace {

/// Interned markings: token-count rows with stride `places` in one flat
/// vector, deduped through an IdTable. Dense ids are handed out in
/// first-seen order, so they double as reachability-graph states.
class MarkingStore {
 public:
  explicit MarkingStore(std::size_t num_places) : places_(num_places) {}

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::size_t bytes() const {
    return rows_.capacity() * sizeof(std::uint32_t) + table_.bytes();
  }

  /// Finds `m`, or kNoId when it was never interned.
  [[nodiscard]] std::uint32_t find(const Marking& m) const {
    return table_.find(hash_words(m.data(), places_), [&](std::uint32_t id) {
      return std::equal(m.begin(), m.end(),
                        rows_.data() + std::size_t{id} * places_);
    });
  }

  /// Interns `m`; returns (id, fresh).
  std::pair<std::uint32_t, bool> intern(const Marking& m) {
    const std::uint32_t found = find(m);
    if (found != IdTable::kNoId) return {found, false};
    const auto id = static_cast<std::uint32_t>(size());
    rows_.insert(rows_.end(), m.begin(), m.end());
    for (const std::uint32_t tokens : m) one_safe_ = one_safe_ && tokens <= 1;
    table_.insert(hash_words(m.data(), places_), id, [&](std::uint32_t x) {
      return hash_words(rows_.data() + std::size_t{x} * places_, places_);
    });
    return {id, true};
  }

  /// Copies the marking of `id` into `out`.
  void decode(std::uint32_t id, Marking& out) const {
    const std::uint32_t* row = rows_.data() + std::size_t{id} * places_;
    out.assign(row, row + places_);
  }

  /// Moves the backing storage into the finished graph.
  void release(ReachabilityGraph& graph) {
    graph.one_safe = one_safe_;
    graph.marking_counts = std::move(rows_);
  }

 private:
  std::size_t places_;
  bool one_safe_ = true;
  std::vector<std::uint32_t> rows_;  // size() * places_
  IdTable table_;
};

}  // namespace

Marking ReachabilityGraph::marking(State s) const {
  const std::uint32_t* row =
      marking_counts.data() + std::size_t{s} * num_places;
  return Marking(row, row + num_places);
}

std::uint32_t ReachabilityGraph::tokens(State s, PlaceId p) const {
  assert(p < num_places);
  return marking_counts[std::size_t{s} * num_places + p];
}

ReachabilityGraph build_reachability_graph(const PetriNet& net,
                                           const ReachabilityOptions& options,
                                           Budget* budget) {
  StageScope scope(budget, Stage::kPetriUnfold);

  auto sigma = std::make_shared<Alphabet>();
  std::vector<Symbol> label_symbol(net.num_transitions());
  for (TransId t = 0; t < net.num_transitions(); ++t) {
    label_symbol[t] = sigma->intern(net.label(t));
  }

  ReachabilityGraph graph{Nfa(sigma), {}, true, true, net.num_places(), {}};

  MarkingStore store(net.num_places());
  std::deque<std::uint32_t> worklist;

  const auto intern = [&](const Marking& m) -> std::uint32_t {
    if (store.size() >= options.max_states) {
      // Soft cap: known markings still resolve, fresh ones truncate.
      const std::uint32_t found = store.find(m);
      if (found == IdTable::kNoId) graph.complete = false;
      return found;
    }
    const auto [id, fresh] = store.intern(m);
    if (fresh) {
      const State s = graph.system.add_state(true);
      assert(s == id);
      (void)s;
      worklist.push_back(id);
      budget_charge(budget);
      if ((id & 0x3ff) == 0) budget_note_memory(budget, store.bytes());
    }
    return id;
  };

  const std::uint32_t initial = intern(net.initial_marking());
  if (initial != IdTable::kNoId) graph.system.set_initial(initial);

  Marking current;
  Marking next;
  while (!worklist.empty()) {
    const std::uint32_t from = worklist.front();
    worklist.pop_front();
    budget_note_frontier(budget, worklist.size() + 1);
    store.decode(from, current);
    bool any_enabled = false;
    for (TransId t = 0; t < net.num_transitions(); ++t) {
      if (!net.enabled(t, current)) continue;
      any_enabled = true;
      next = current;
      for (const PetriNet::Arc& arc : net.inputs(t)) {
        next[arc.place] -= arc.weight;
      }
      for (const PetriNet::Arc& arc : net.outputs(t)) {
        next[arc.place] += arc.weight;
      }
      const std::uint32_t to = intern(next);
      if (to == IdTable::kNoId) continue;  // soft state cap hit
      graph.system.add_transition(from, label_symbol[t], to);
    }
    if (!any_enabled) graph.deadlocks.push_back(from);
    budget_tick(budget);
  }

  budget_note_memory(budget, store.bytes());
  store.release(graph);
  return graph;
}

}  // namespace rlv

// engine_cold: an in-process Engine with 3 workers in a closed loop that
// keeps 6 queries in flight. Every query is distinct: a seeded
// random_transition_system of 32–256 states over {a0,a1,a2} with either a
// random depth 3–4 formula or a random 2-state Büchi property automaton,
// checked as rl, rs, sat, fair or fairweak, with either inclusion
// algorithm, 1 query in 8 certified. So every cache misses and the kernels
// (io parse, ltl translate, omega product/emptiness/complement, lang
// inclusion, fair, cert) do all the work; a cache or serving change should
// leave this workload unchanged.
//
// fair/fairweak checks ignore max_states. With 3-state property automata
// or depth-4 formulas some of them allocate several GiB and end in
// std::bad_alloc, so property automata have 2 states and fair formulas
// depth 3. Their unbudgeted time still shows as
// engine.unprofiled_ms.{fair,fairweak}.
//
// The submitting thread generates query i+1 while the workers run, so at
// most 4 threads are busy. Query i is a function of (seed, i) alone, which
// lets the checks regenerate it after the timed window instead of keeping
// its text.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "rlv/cert/certificate.hpp"
#include "rlv/cert/oracle.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/engine/engine.hpp"
#include "rlv/gen/random.hpp"
#include "rlv/io/format.hpp"
#include "rlv/lang/ops.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/omega/complement.hpp"
#include "rlv/omega/limit.hpp"

namespace bench {
namespace {

using namespace rlv;

constexpr std::size_t kWorkers = 3;
// Queries in flight: twice the workers, so a finishing worker takes the
// next query from the pool queue instead of waiting for the submitting
// thread to wake up, which on a shared host costs more than a query.
constexpr std::size_t kInFlight = 2 * kWorkers;
constexpr std::uint64_t kMaxStates = 20000;
constexpr std::uint64_t kGuardMs = 60000;
constexpr std::uint64_t kWarmupBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kWarmupSeed = 0;
// Enough to fill the automaton caches (256 entries each), so that the
// resident set after set-up holds full caches of fixed content.
constexpr std::size_t kWarmupQueries = 512;
constexpr std::size_t kReadyAhead = 2 * kWorkers;
constexpr int kSetupRepeats = 5;
// Independent checks cost several times the query they check, so they run
// on every kWitnessEvery-th query (witness validation) and every
// kDirectEvery-th (direct decisions, Thm 4.7, oracle); both by index, so
// the same queries are checked whatever the timing.
constexpr std::size_t kWitnessEvery = 4;
constexpr std::size_t kDirectEvery = 16;
constexpr std::size_t kOracleMaxSystemStates = 64;

constexpr std::array<CheckKind, 5> kKinds = {
    CheckKind::kRelativeLiveness, CheckKind::kRelativeSafety,
    CheckKind::kSatisfaction, CheckKind::kFairStrong, CheckKind::kFairWeak};

/// One slot of the query cycle: what is asked, not of what.
struct Slot {
  CheckKind kind;
  bool automaton;  // property as a 2-state Büchi automaton, else a formula
  InclusionAlgorithm algorithm;
  bool certify;
};

/// Every run of 16 consecutive queries fills these slots in a seeded order,
/// so each seed asks the same mix: 1 in 8 certified, 5 in 16 automata,
/// both inclusion algorithms on rl.
constexpr InclusionAlgorithm kSub = InclusionAlgorithm::kSubset;
constexpr InclusionAlgorithm kAnti = InclusionAlgorithm::kAntichain;
constexpr std::array<Slot, 16> kCycle = {{
    {CheckKind::kRelativeLiveness, false, kSub, false},
    {CheckKind::kRelativeLiveness, true, kSub, false},
    {CheckKind::kRelativeLiveness, false, kAnti, false},
    {CheckKind::kRelativeLiveness, false, kAnti, true},
    {CheckKind::kRelativeSafety, false, kAnti, false},
    {CheckKind::kRelativeSafety, false, kAnti, false},
    {CheckKind::kRelativeSafety, true, kAnti, false},
    {CheckKind::kRelativeSafety, false, kAnti, true},
    {CheckKind::kSatisfaction, false, kAnti, false},
    {CheckKind::kSatisfaction, false, kAnti, false},
    {CheckKind::kSatisfaction, true, kAnti, false},
    {CheckKind::kSatisfaction, false, kAnti, false},
    {CheckKind::kFairStrong, false, kAnti, false},
    {CheckKind::kFairStrong, true, kAnti, false},
    {CheckKind::kFairWeak, false, kAnti, false},
    {CheckKind::kFairWeak, true, kAnti, false},
}};

Slot slot_of(std::uint64_t seed, std::uint64_t index) {
  std::array<std::size_t, kCycle.size()> order{};
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(item_seed(~seed, index / kCycle.size()));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return kCycle[order[index % kCycle.size()]];
}

Query make_query(std::uint64_t seed, std::uint64_t index) {
  const Slot slot = slot_of(seed, index);
  Rng rng(item_seed(seed, index));
  const AlphabetRef sigma = random_alphabet(3);
  // random_transition_system trims; redraw until 32–256 states survive, so
  // that no two queries share a system structure.
  Nfa system(sigma);
  do {
    system = random_transition_system(rng, 32 + rng.next_below(225), sigma);
  } while (system.num_states() < 32);
  Query q;
  q.system = serialize_system(system);
  q.kind = slot.kind;
  q.algorithm = slot.algorithm;
  q.certify = slot.certify;
  const bool fair =
      q.kind == CheckKind::kFairStrong || q.kind == CheckKind::kFairWeak;
  if (slot.automaton) {
    q.property_automaton = serialize_buchi(random_buchi(rng, 2, sigma));
  } else {
    std::vector<std::string> atoms;
    for (Symbol a = 0; a < sigma->size(); ++a) atoms.push_back(sigma->name(a));
    const std::size_t depth = fair ? 3 : 3 + rng.next_below(2);
    q.formula = random_formula(rng, atoms, depth).to_string();
  }
  return q;
}

std::size_t kind_index(CheckKind kind) {
  return static_cast<std::size_t>(
      std::find(kKinds.begin(), kKinds.end(), kind) - kKinds.begin());
}

/// What the checks need of one decided verdict of the sample.
struct Record {
  std::uint64_t index = 0;
  CheckKind kind = CheckKind::kRelativeLiveness;
  bool holds = false;
  std::optional<Word> violating_prefix;
  std::optional<Lasso> counterexample;
};

/// Engine::submit with completions handed back to the submitting thread,
/// which decides how many queries to keep in flight.
class ClosedLoop {
 public:
  explicit ClosedLoop(Engine& engine) : engine_(engine) {}

  void submit(std::uint64_t index, Query query) {
    const CheckKind kind = query.kind;
    const auto submitted = Clock::now();
    ++inflight_;
    engine_.submit(std::move(query), [this, index, kind,
                                      submitted](Verdict v) {
      const auto finished = Clock::now();
      // A worker's CPU time between two of its callbacks is the query's
      // (its wait for the next query costs none).
      static thread_local double last_cpu_ms = thread_cpu_ms();
      const double now_cpu_ms = thread_cpu_ms();
      const double cpu_ms = now_cpu_ms - last_cpu_ms;
      last_cpu_ms = now_cpu_ms;
      std::lock_guard<std::mutex> lock(mu_);
      done_.push_back({index, kind, submitted, finished, cpu_ms, std::move(v)});
      cv_.notify_one();
    });
  }

  struct Done {
    std::uint64_t index;
    CheckKind kind;
    Clock::time_point submitted;
    Clock::time_point finished;
    double cpu_ms;
    Verdict verdict;
  };

  /// Pops finished queries; blocks only when `wait` and none is ready.
  std::vector<Done> collect(bool wait) {
    std::unique_lock<std::mutex> lock(mu_);
    if (wait) cv_.wait(lock, [&] { return !done_.empty(); });
    std::vector<Done> out(std::make_move_iterator(done_.begin()),
                          std::make_move_iterator(done_.end()));
    done_.clear();
    inflight_ -= out.size();
    return out;
  }

  [[nodiscard]] std::size_t inflight() const { return inflight_; }

 private:
  Engine& engine_;
  std::size_t inflight_ = 0;  // touched by the submitting thread only
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Done> done_;
};

EngineOptions engine_options() {
  EngineOptions options;
  options.jobs = kWorkers;
  options.max_states = kMaxStates;
  options.timeout_ms = kGuardMs;
  return options;
}

/// Runs kWarmupQueries queries of a fixed seed outside the timed index
/// range, so that set-up does the same work whatever the run's seed.
void warm_up(Engine& engine) {
  ClosedLoop loop(engine);
  for (std::size_t i = 0; i < kWarmupQueries; ++i) {
    loop.submit(kWarmupBase + i, make_query(kWarmupSeed, kWarmupBase + i));
    if (loop.inflight() >= kWorkers) (void)loop.collect(true);
  }
  while (loop.inflight() > 0) (void)loop.collect(true);
}

std::optional<Formula> formula_of(const Query& q) {
  if (!q.property_automaton.empty()) return std::nullopt;
  return parse_ltl(q.formula);
}

/// Independent checks of one decided engine verdict, outside the timed
/// window: the negative witness through rlv::cert and, on every
/// kDirectEvery-th query, the direct core decision of all of rl/rs/sat
/// (Thm 4.7: sat ⟺ rl ∧ rs) with the brute-force oracle on small systems.
/// Returns failure descriptions.
std::vector<std::string> check_record(std::uint64_t seed, const Record& r) {
  std::vector<std::string> bad;
  const std::string tag = "query " + std::to_string(r.index) + " (" +
                          std::string(check_kind_name(r.kind)) + ")";
  const Record& v = r;

  const Query q = make_query(seed, r.index);
  const Nfa system = parse_system(q.system);
  const Buchi behaviors = limit_of_prefix_closed(system);
  const Labeling lambda = Labeling::canonical(system.alphabet());
  const std::optional<Formula> f = formula_of(q);
  const std::optional<Buchi> property =
      f ? std::nullopt
        : std::optional<Buchi>(Buchi::from_structure(remap_alphabet(
              parse_buchi(q.property_automaton).structure(),
              system.alphabet())));

  const auto validate = [&](const auto& result) {
    return f ? cert::validate(result, behaviors, *f, lambda)
             : cert::validate(result, behaviors, *property);
  };
  if (!v.holds) {
    cert::Validation val;
    switch (r.kind) {
      case CheckKind::kRelativeLiveness:
        val = v.violating_prefix
                  ? validate(RelativeLivenessResult{false, v.violating_prefix,
                                                    std::nullopt})
                  : cert::Validation{false, true, "missing doomed prefix"};
        break;
      case CheckKind::kRelativeSafety:
        val = v.counterexample
                  ? validate(RelativeSafetyResult{false, v.counterexample,
                                                  std::nullopt})
                  : cert::Validation{false, true, "missing lasso"};
        break;
      case CheckKind::kSatisfaction:
        val = v.counterexample
                  ? validate(SatisfactionResult{false, v.counterexample,
                                                std::nullopt})
                  : cert::Validation{false, true, "missing lasso"};
        break;
      case CheckKind::kFairStrong:
      case CheckKind::kFairWeak:
        // Partial check, as the engine's own certification: membership and
        // property violation; the fairness of the run is not re-derived.
        if (!v.counterexample) {
          val = {false, true, "missing lasso"};
        } else if (f) {
          val = cert::check_violation_lasso(*v.counterexample, behaviors, *f,
                                            lambda);
        } else {
          val = cert::check_violation_lasso(*v.counterexample, behaviors,
                                            *property);
        }
        break;
    }
    if (!val.valid) bad.push_back(tag + ": witness rejected: " + val.reason);
  }

  if (r.index % kDirectEvery != 0) return bad;
  Budget rl_budget, rs_budget, sat_budget;
  for (Budget* b : {&rl_budget, &rs_budget, &sat_budget}) {
    b->set_max_states(kMaxStates);
  }
  const auto direct_sat = f ? satisfies(behaviors, *f, lambda, &sat_budget)
                            : satisfies(behaviors, *property, &sat_budget);
  if (r.kind == CheckKind::kFairStrong || r.kind == CheckKind::kFairWeak) {
    // Every run satisfying P implies every fair run does.
    if (!direct_sat.exhausted && direct_sat.holds && !v.holds) {
      bad.push_back(tag + ": fair check fails although sat holds");
    }
    return bad;
  }
  const auto rl = f ? relative_liveness(behaviors, *f, lambda,
                                        InclusionAlgorithm::kAntichain,
                                        &rl_budget)
                    : relative_liveness(behaviors, *property,
                                        InclusionAlgorithm::kAntichain,
                                        &rl_budget);
  const auto rs = f ? relative_safety(behaviors, *f, lambda, &rs_budget)
                    : relative_safety(behaviors, *property, &rs_budget);
  if (rl.exhausted || rs.exhausted || direct_sat.exhausted) return bad;
  if (direct_sat.holds != (rl.holds && rs.holds)) {
    bad.push_back(tag + ": Thm 4.7 identity violated (sat != rl && rs)");
  }
  const bool direct = r.kind == CheckKind::kRelativeLiveness ? rl.holds
                      : r.kind == CheckKind::kRelativeSafety ? rs.holds
                                                             : direct_sat.holds;
  if (direct != v.holds) bad.push_back(tag + ": engine != direct decision");
  if (system.num_states() <= kOracleMaxSystemStates) {
    bool oracle = false;
    if (f) {
      oracle = r.kind == CheckKind::kRelativeLiveness
                   ? cert::oracle_relative_liveness(behaviors, *f, lambda)
               : r.kind == CheckKind::kRelativeSafety
                   ? cert::oracle_relative_safety(behaviors, *f, lambda)
                   : cert::oracle_satisfies(behaviors, *f, lambda);
    } else {
      const Buchi negated = complement_buchi(*property);
      oracle = r.kind == CheckKind::kRelativeLiveness
                   ? cert::oracle_relative_liveness(behaviors, *property)
               : r.kind == CheckKind::kRelativeSafety
                   ? cert::oracle_relative_safety(behaviors, *property,
                                                  negated)
                   : cert::oracle_satisfies(behaviors, negated);
    }
    if (oracle != v.holds) bad.push_back(tag + ": engine != oracle");
  }
  return bad;
}

}  // namespace

void add_cache_metrics(Result& result, const EngineStats& before,
                       const EngineStats& after) {
  const auto hit_ratio = [](const CacheCounters& b, const CacheCounters& a) {
    const std::uint64_t hits = a.hits - b.hits;
    const std::uint64_t lookups =
        hits + (a.coalesced - b.coalesced) + (a.misses - b.misses);
    return lookups ? static_cast<double>(hits) / lookups : 0.0;
  };
  auto& L = result.layers;
  L["engine.cache.systems.hit_ratio"] = {
      hit_ratio(before.systems, after.systems), "ratio"};
  L["engine.cache.translations.hit_ratio"] = {
      hit_ratio(before.translations, after.translations), "ratio"};
  L["engine.cache.verdicts.hit_ratio"] = {
      hit_ratio(before.verdicts, after.verdicts), "ratio"};
  L["engine.cache.evictions"] = {
      static_cast<double>(after.total().evictions - before.total().evictions),
      "count"};
  L["cert.checked"] = {static_cast<double>(after.certificates_checked -
                                           before.certificates_checked),
                       "count"};
  L["cert.failed"] = {static_cast<double>(after.certificates_failed -
                                          before.certificates_failed),
                      "count"};
}

void add_stage_metrics(Result& result, const QueryProfile& stages,
                       std::size_t verdicts) {
  struct Named {
    const char* name;
    Stage stage;
  };
  static constexpr Named kStages[] = {
      {"engine.parse", Stage::kParse},
      {"engine.pre_trim", Stage::kPreTrim},
      {"ltl.translate", Stage::kTranslate},
      {"omega.product", Stage::kProduct},
      {"omega.emptiness", Stage::kEmptiness},
      {"omega.complement", Stage::kComplement},
      {"lang.inclusion", Stage::kInclusion},
  };
  const double n = verdicts ? static_cast<double>(verdicts) : 1.0;
  for (const Named& s : kStages) {
    const StageMetrics& m = stages[s.stage];
    result.layers[std::string(s.name) + "_ms"] = {
        static_cast<double>(m.nanos) / 1e6 / n, "ms"};
    result.layers[std::string(s.name) + "_states"] = {
        static_cast<double>(m.states_built.load()) / n, "count"};
  }
  const StageMetrics& inc = stages[Stage::kInclusion];
  const std::uint64_t inc_states = inc.states_built.load();
  result.layers["lang.inclusion_ns_per_state"] = {
      inc_states ? static_cast<double>(inc.nanos) / inc_states : 0.0, "ns"};
  result.layers["lang.inclusion_peak_frontier"] = {
      static_cast<double>(inc.peak_antichain.load()), "count"};
}

Result run_engine_cold(const Args& args) {
  Result result;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    const double cpu_start = process_cpu_s();
    engine = std::make_unique<Engine>(engine_options());
    warm_up(*engine);
    result.setup_s.push_back(process_cpu_s() - cpu_start);
  }
  result.rss_mb = resident_mb();

  Tracer tracer_storage;
  Tracer* tracer = args.trace ? &tracer_storage : nullptr;
  std::vector<Record> sampled;  // the queries the checks re-examine
  QueryProfile stages;  // timed verdicts only, not the warm-up
  std::array<std::vector<double>, kKinds.size()> kind_ms;  // traced runs
  std::array<double, kKinds.size()> kind_unprofiled{};
  std::array<std::uint64_t, kKinds.size()> kind_count{};
  std::uint64_t exhausted = 0;
  const EngineStats before = engine->stats();
  {
    ClosedLoop loop(*engine);
    std::deque<std::pair<std::uint64_t, Query>> ready;
    std::uint64_t next = 0;
    const auto handle = [&](ClosedLoop::Done& d) {
      const Verdict& v = d.verdict;
      const std::size_t k = kind_index(d.kind);
      const double unprofiled =
          v.millis - static_cast<double>(v.profile.total_nanos()) / 1e6;
      ++result.attempted;
      result.latency_ms.push_back(d.cpu_ms);
      if (v.ok()) ++result.decided;
      if (v.resource_exhausted) ++exhausted;
      if (!v.error.empty()) {
        note_failure(result, "query " + std::to_string(d.index) + ": error " +
                                 v.error);
      }
      ++kind_count[k];
      kind_unprofiled[k] += unprofiled;
      stages += v.profile;
      if (tracer) {
        kind_ms[k].push_back(v.millis);
        const std::int32_t span =
            tracer->add("engine.query", Layer::kEngine,
                        static_cast<std::uint32_t>(d.index), d.submitted,
                        d.finished);
        tracer->attribute_profile(span, v.profile);
        // Fair checks run no budget stage: their unprofiled time is the
        // fair layer's, not the engine's.
        if (d.kind == CheckKind::kFairStrong ||
            d.kind == CheckKind::kFairWeak) {
          tracer->attribute(span, Layer::kFair,
                            static_cast<std::int64_t>(unprofiled * 1e6));
        }
      }
      if (d.index % kWitnessEvery != 0 || !v.ok()) return;
      Record r;
      r.index = d.index;
      r.kind = d.kind;
      r.holds = v.holds;
      r.violating_prefix = std::move(d.verdict.violating_prefix);
      r.counterexample = std::move(d.verdict.counterexample);
      sampled.push_back(std::move(r));
    };
    const auto start = Clock::now();
    const double cpu_start = process_cpu_s();
    while (seconds_since(start) < args.seconds) {
      while (loop.inflight() < kInFlight) {
        if (ready.empty()) {
          ready.emplace_back(next, make_query(args.seed, next));
          ++next;
        }
        loop.submit(ready.front().first, std::move(ready.front().second));
        ready.pop_front();
      }
      if (ready.size() < kReadyAhead) {
        ready.emplace_back(next, make_query(args.seed, next));
        ++next;
        for (auto& d : loop.collect(false)) handle(d);
      } else {
        for (auto& d : loop.collect(true)) handle(d);
      }
    }
    while (loop.inflight() > 0) {
      for (auto& d : loop.collect(true)) handle(d);
    }
    // p99, not p99.9: the 20-40 queries beyond p99.9 are the seed's
    // heaviest fair checks, which moved it by 11% across five seeds.
    result.tail_pct = 99.0;
    result.timed_s = seconds_since(start);
    result.timed_cpu_s = process_cpu_s() - cpu_start;
  }
  const EngineStats stats = engine->stats();
  engine.reset();

  // Correctness, outside the timed window, on kWorkers threads.
  std::vector<std::vector<std::string>> failures(kWorkers);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < sampled.size(); i += kWorkers) {
          try {
            for (auto& line : check_record(args.seed, sampled[i])) {
              failures[t].push_back(std::move(line));
            }
          } catch (const std::exception& e) {
            failures[t].push_back("query " + std::to_string(sampled[i].index) +
                                  ": check threw " + e.what());
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (auto& lines : failures) {
    for (auto& line : lines) note_failure(result, std::move(line));
  }
  if (stats.certificates_failed > 0) {
    note_failure(result, std::to_string(stats.certificates_failed) +
                             " engine certificates rejected");
  }
  result.report["exhausted"] = {static_cast<double>(exhausted), "count"};

  if (tracer) {
    auto& L = result.layers;
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      const std::string kind(check_kind_name(kKinds[k]));
      const auto n = static_cast<double>(kind_count[k]);
      L["engine.kind_p50_ms." + kind] = {percentile(kind_ms[k], 50), "ms"};
      L["engine.unprofiled_ms." + kind] = {n > 0 ? kind_unprofiled[k] / n : 0.0,
                                           "ms"};
    }
    L["engine.exhausted_ratio"] = {static_cast<double>(exhausted) /
                                       static_cast<double>(result.attempted),
                                   "ratio"};
    add_cache_metrics(result, before, stats);
    add_stage_metrics(result, stages, result.attempted);
    add_layer_times(result, *tracer, "engine.query", result.attempted);
    if (!args.trace_out.empty()) tracer->write(args.trace_out);
  }
  return result;
}

}  // namespace bench

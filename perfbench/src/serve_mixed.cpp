// serve_mixed: an in-process rlv::net::Server (1 reactor) over an Engine
// with 2 workers, driven by one client thread that multiplexes 4
// connections with poll(2):
//
//   * 3 connections send closed-loop `query` requests, each a Zipf(1) draw
//     from a seeded pool of 3000 scenario queries (pattern formulas over
//     small figure, ring, buffer, workflow, philosophers and resource-server
//     systems, checked as rl, rs or sat). Most requests hit the verdict
//     cache and a steady trickle misses;
//   * 1 connection opens monitor sessions on scenario specs, streams a
//     seeded walk of the system through them in monitor_step batches, and
//     closes them.
//
// So net (JSON, protocol, reactor, pool hop, record render), the engine
// caches and monitor stepping do the work and the kernels do little.
// Monitor writes on the reactor run beside query reads through the pool.
// A warm-up of kWarmupQueries requests before the timed window fills the
// caches to their steady state.

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "rlv/cert/certificate.hpp"
#include "rlv/cert/oracle.hpp"
#include "rlv/core/relative.hpp"
#include "rlv/gen/families.hpp"
#include "rlv/io/format.hpp"
#include "rlv/ltl/parser.hpp"
#include "rlv/ltl/patterns.hpp"
#include "rlv/monitor/automaton.hpp"
#include "rlv/net/client.hpp"
#include "rlv/net/json.hpp"
#include "rlv/net/server.hpp"
#include "rlv/omega/limit.hpp"
#include "rlv/petri/reachability.hpp"
#include "rlv/petri/scenario.hpp"
#include "rlv/util/rng.hpp"

namespace bench {
namespace {

using namespace rlv;

constexpr std::size_t kPoolSize = 3000;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kQueryConnections = 3;
constexpr std::size_t kEngineWorkers = 2;
constexpr std::uint64_t kMaxStates = 200000;
constexpr std::uint64_t kGuardMs = 30000;
constexpr std::size_t kWarmupQueries = 6000;
constexpr std::size_t kScripts = 32;
constexpr std::size_t kBatches = 16;
constexpr std::size_t kBatchEvents = 64;
constexpr std::size_t kOracleMaxStates = 24;
constexpr int kSetupRepeats = 3;

struct System {
  std::string label;
  Nfa nfa;
  std::string text;
};

struct PoolQuery {
  std::size_t system;
  std::string formula;
  CheckKind kind;
  std::string line;  // rendered request, id = pool index
};

struct Script {
  std::size_t spec;  // index into the monitor specs
  std::vector<std::vector<std::string>> batches;
};

struct Inputs {
  std::vector<System> systems;
  std::vector<PoolQuery> pool;
  std::vector<double> zipf_cdf;
  std::vector<std::pair<std::size_t, std::string>> specs;  // system, formula
  std::vector<Script> scripts;
};

std::vector<System> make_systems() {
  std::vector<System> out;
  const auto add = [&](std::string label, Nfa nfa) {
    std::string text = serialize_system(nfa);
    out.push_back({std::move(label), std::move(nfa), std::move(text)});
  };
  const auto unfold = [](const PetriNet& net) {
    return build_reachability_graph(net).system;
  };
  add("fig2", figure2_system());
  add("fig3", figure3_system());
  add("fig1_net", unfold(figure1_net()));
  for (std::size_t n = 2; n <= 5; ++n) {
    add("token_ring_" + std::to_string(n), token_ring(n));
  }
  for (std::size_t n = 2; n <= 4; ++n) {
    add("ring_" + std::to_string(n), unfold(petri::ring_workflow_net(n).net));
  }
  for (std::size_t b = 1; b <= 3; ++b) {
    add("buffer_" + std::to_string(b),
        unfold(petri::bounded_buffer_net(b).net));
  }
  add("flight", unfold(petri::flight_workflow_net().net));
  add("philosophers_2", unfold(petri::philosophers_net(2).net));
  add("resource_server_1", unfold(resource_server_net(1)));
  return out;
}

std::vector<std::string> pattern_formulas(const Alphabet& sigma) {
  std::vector<std::string> out;
  for (Symbol a = 0; a < sigma.size(); ++a) {
    const std::string& p = sigma.name(a);
    out.push_back(patterns::infinitely_often(p).to_string());
    out.push_back(patterns::eventually_always(p).to_string());
    out.push_back(patterns::never(p).to_string());
    for (Symbol b = 0; b < sigma.size(); ++b) {
      if (a == b) continue;
      const std::string& q = sigma.name(b);
      out.push_back(patterns::response(p, q).to_string());
      out.push_back(patterns::precedence_weak(p, q).to_string());
    }
  }
  return out;
}

/// Walks the system from its initial state along seeded transitions.
std::vector<std::string> walk(const Nfa& nfa, Rng& rng, std::size_t events) {
  std::vector<std::string> out;
  State s = nfa.initial().front();
  const AlphabetRef& sigma = nfa.alphabet();
  for (std::size_t i = 0; i < events; ++i) {
    std::vector<std::pair<Symbol, State>> moves;
    for (Symbol a = 0; a < sigma->size(); ++a) {
      for (const State t : nfa.successors(s, a)) moves.emplace_back(a, t);
    }
    if (moves.empty()) break;
    const auto& [a, t] = moves[rng.next_below(moves.size())];
    out.push_back(sigma->name(a));
    s = t;
  }
  return out;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.systems = make_systems();
  // Rank r of the Zipf order goes to system r mod |systems| and check kind
  // (r / |systems|) mod 3, with a seeded formula of that system: every seed
  // spreads each system and kind evenly over hot and cold ranks, so the
  // cost of the misses does not depend on the seed.
  constexpr std::array<CheckKind, 3> kKinds = {CheckKind::kRelativeLiveness,
                                               CheckKind::kRelativeSafety,
                                               CheckKind::kSatisfaction};
  Rng rng(item_seed(seed, 0));
  std::vector<std::vector<std::string>> formulas;
  for (const System& system : in.systems) {
    formulas.push_back(pattern_formulas(*system.nfa.alphabet()));
    auto& f = formulas.back();
    for (std::size_t i = f.size(); i > 1; --i) {
      std::swap(f[i - 1], f[rng.next_below(i)]);
    }
  }
  for (std::size_t r = 0; r < kPoolSize; ++r) {
    const std::size_t s = r % in.systems.size();
    const std::size_t round = r / in.systems.size();
    const auto& f = formulas[s];
    in.pool.push_back({s, f[(round / kKinds.size()) % f.size()],
                       kKinds[round % kKinds.size()], {}});
  }
  for (std::size_t i = 0; i < in.pool.size(); ++i) {
    PoolQuery& q = in.pool[i];
    Query query;
    query.system = in.systems[q.system].text;
    query.formula = q.formula;
    query.kind = q.kind;
    q.line = net::render_query_request(query, i, in.systems[q.system].label);
  }
  double total = 0.0;
  for (std::size_t r = 1; r <= in.pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
    in.zipf_cdf.push_back(total);
  }
  for (double& c : in.zipf_cdf) c /= total;

  const auto system_index = [&](std::string_view label) {
    for (std::size_t s = 0; s < in.systems.size(); ++s) {
      if (in.systems[s].label == label) return s;
    }
    throw std::logic_error("unknown system");
  };
  in.specs = {{system_index("fig2"), "G F result"},
              {system_index("fig3"), "G F result"},
              {system_index("token_ring_4"), "G F pass_0"},
              {system_index("ring_3"), "G F work_1"},
              {system_index("buffer_2"), "G F consume"},
              {system_index("flight"), "G (takeoff -> F land)"},
              {system_index("philosophers_2"), "G F eat_0"},
              {system_index("resource_server_1"), "G F result_0"}};
  for (std::size_t k = 0; k < kScripts; ++k) {
    Rng walk_rng(item_seed(seed, 1000 + k));
    Script script;
    script.spec = walk_rng.next_below(in.specs.size());
    const std::vector<std::string> events =
        walk(in.systems[in.specs[script.spec].first].nfa, walk_rng,
             kBatches * kBatchEvents);
    for (std::size_t at = 0; at < events.size(); at += kBatchEvents) {
      const auto first = events.begin() + static_cast<std::ptrdiff_t>(at);
      const auto last = events.begin() + static_cast<std::ptrdiff_t>(std::min(
                                             events.size(), at + kBatchEvents));
      script.batches.emplace_back(first, last);
    }
    in.scripts.push_back(std::move(script));
  }
  return in;
}

/// A running server on an ephemeral loopback port; stops and joins on
/// destruction.
class Service {
 public:
  Service() : engine_(engine_options()), server_(engine_, server_options()) {
    port_ = server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~Service() {
    server_.request_stop();
    thread_.join();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] net::Server& server() { return server_; }

 private:
  static EngineOptions engine_options() {
    EngineOptions options;
    options.jobs = kEngineWorkers;
    options.max_states = kMaxStates;
    options.timeout_ms = kGuardMs;
    return options;
  }
  static net::ServerOptions server_options() {
    net::ServerOptions options;
    options.reactors = 1;
    options.limits.max_timeout_ms = kGuardMs;
    options.limits.max_max_states = kMaxStates;
    return options;
  }

  Engine engine_;
  net::Server server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// The first served response of a pool query; later ones must agree.
struct Served {
  bool seen = false;
  bool holds = false;
  std::string line;
};

monitor::Verdict parse_verdict(const std::string& name) {
  if (name == "doomed") return monitor::Verdict::kDoomed;
  if (name == "left_system") return monitor::Verdict::kLeftSystem;
  return monitor::Verdict::kSatisfiable;
}

constexpr int kNoVerdict = -1;

/// The client side: 3 query connections and 1 monitor connection on one
/// thread. run() drives them until a deadline or a request count.
class LoadClient {
 public:
  LoadClient(const Inputs& in, std::uint16_t port, std::uint64_t seed,
             Result& result)
      : served(in.pool.size()),
        step_verdicts(in.scripts.size(),
                      std::vector<int>(kBatches, kNoVerdict)),
        in_(in),
        rng_(item_seed(seed, 77)),
        result_(result) {
    for (std::size_t c = 0; c <= kQueryConnections; ++c) {
      conns_.emplace_back();
      conns_.back().client.connect("127.0.0.1", port);
    }
  }

  /// Runs until `seconds` pass (timed) or `queries` query responses arrive
  /// (warm-up), then lets every outstanding request finish.
  void run(double seconds, std::size_t queries, Tracer* tracer) {
    tracer_ = tracer;
    const auto start = Clock::now();
    const auto done = [&] {
      return queries > 0 ? query_responses_ >= queries
                         : seconds_since(start) >= seconds;
    };
    for (std::size_t c = 0; c < conns_.size(); ++c) send_next(c);
    std::vector<pollfd> fds(conns_.size());
    std::size_t outstanding = conns_.size();
    bool stopping = false;
    while (outstanding > 0) {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        fds[c] = {conns_[c].client.fd(), POLLIN, 0};
      }
      if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      stopping = stopping || done();
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        const bool ready = fds[c].revents & (POLLIN | POLLHUP | POLLERR);
        if (!conns_[c].busy || !ready) continue;
        receive(c);
        // The monitor connection finishes its session before stopping, so
        // sessions never outlive the window.
        const bool monitor_mid_session =
            c == kQueryConnections && monitor_.phase != Phase::kOpen;
        if (!stopping || monitor_mid_session) {
          send_next(c);
        } else {
          --outstanding;
        }
      }
    }
    elapsed_s_ = seconds_since(start);
  }

  [[nodiscard]] double elapsed_s() const { return elapsed_s_; }

  // Responses are folded in on arrival; only their times are kept.
  std::uint64_t queries = 0;
  std::uint64_t decided = 0;
  std::vector<double> round_trips;  // client round trips, ms
  std::vector<double> server_ms;  // the records' "ms": the engine's time
  double server_ms_total = 0.0;
  std::vector<Served> served;  // by pool index
  std::uint64_t batches = 0;
  std::uint64_t events = 0;
  std::vector<double> batch_us;
  double open_ms = 0.0;  // sum of monitor_open "ms"
  std::uint64_t opens = 0;
  std::vector<std::vector<int>> step_verdicts;  // [script][batch]

 private:
  enum class Phase { kOpen, kStep, kClose };

  struct Conn {
    net::Client client;
    bool busy = false;
    Clock::time_point sent;
    std::uint32_t pool = 0;
  };

  struct MonitorState {
    Phase phase = Phase::kOpen;
    std::size_t script = 0;
    std::size_t batch = 0;
    std::uint64_t session = 0;
  };

  std::size_t draw() {
    const double u = rng_.next_double();
    const auto it =
        std::lower_bound(in_.zipf_cdf.begin(), in_.zipf_cdf.end(), u);
    return std::min(static_cast<std::size_t>(it - in_.zipf_cdf.begin()),
                    in_.pool.size() - 1);
  }

  void send_next(std::size_t c) {
    Conn& conn = conns_[c];
    conn.busy = true;
    if (c < kQueryConnections) {
      conn.pool = static_cast<std::uint32_t>(draw());
      conn.sent = Clock::now();
      conn.client.send_line(in_.pool[conn.pool].line);
      return;
    }
    const Script& script = in_.scripts[monitor_.script];
    std::string line;
    switch (monitor_.phase) {
      case Phase::kOpen: {
        MonitorSpec spec;
        spec.system = in_.systems[in_.specs[script.spec].first].text;
        spec.formula = in_.specs[script.spec].second;
        line = net::render_monitor_open_request(spec, next_id_++);
        break;
      }
      case Phase::kStep:
        line = net::render_monitor_step_request(
            monitor_.session, script.batches[monitor_.batch], next_id_++);
        break;
      case Phase::kClose:
        line = net::render_monitor_close_request(monitor_.session, next_id_++);
        break;
    }
    conn.sent = Clock::now();
    conn.client.send_line(line);
  }

  void receive(std::size_t c) {
    Conn& conn = conns_[c];
    const std::string line = conn.client.read_line();
    const auto received = Clock::now();
    conn.busy = false;
    const double rtt_ms =
        std::chrono::duration<double, std::milli>(received - conn.sent).count();
    const net::JsonValue root = net::parse_json(line);
    const net::JsonValue* ok = root.find("ok");
    const bool is_ok = ok && ok->as_bool();
    if (c < kQueryConnections) {
      ++query_responses_;
      ++queries;
      round_trips.push_back(rtt_ms);
      const net::JsonValue* ms = root.find("ms");
      const double server = ms ? ms->as_number() : 0.0;
      server_ms.push_back(server);
      server_ms_total += server;
      if (!is_ok) {
        const net::JsonValue* exhausted = root.find("resource_exhausted");
        if (!exhausted || !exhausted->as_bool()) {
          note_failure(result_, "query failed: " + line);
        }
      } else {
        ++decided;
        const net::JsonValue* holds = root.find("holds");
        const bool h = holds && holds->as_bool();
        Served& first = served[conn.pool];
        if (!first.seen) {
          first = {true, h, line};
        } else if (first.holds != h) {
          note_failure(result_, "pool query " + std::to_string(conn.pool) +
                                    " served both verdicts");
        }
      }
      if (tracer_) {
        const std::int32_t span = tracer_->add(
            "net.query", Layer::kNet, conn.pool, conn.sent, received);
        // The record's ms is the engine's; its stages are the kernels'.
        std::int64_t staged = 0;
        if (const net::JsonValue* stages = root.find("stages")) {
          for (const auto& [name, value] : stages->object) {
            const auto nanos =
                static_cast<std::int64_t>(value.as_number() * 1e6);
            staged += nanos;
            tracer_->attribute(span, stage_layer(stage_of(name)), nanos);
          }
        }
        tracer_->attribute(span, Layer::kEngine,
                           static_cast<std::int64_t>(server * 1e6) - staged);
      }
      return;
    }

    const Script& script = in_.scripts[monitor_.script];
    if (!is_ok) {
      note_failure(result_, "monitor request failed: " + line);
      monitor_.phase = Phase::kOpen;
      monitor_.script = (monitor_.script + 1) % in_.scripts.size();
      return;
    }
    switch (monitor_.phase) {
      case Phase::kOpen:
        monitor_.session = root.find("session")->as_uint();
        if (const net::JsonValue* ms = root.find("ms")) {
          open_ms += ms->as_number();
          ++opens;
          if (tracer_) {
            const std::int32_t span = tracer_->add(
                "net.monitor_open", Layer::kNet,
                static_cast<std::uint32_t>(monitor_.script), conn.sent,
                received);
            tracer_->attribute(
                span, Layer::kMonitor,
                static_cast<std::int64_t>(ms->as_number() * 1e6));
          }
        }
        monitor_.batch = 0;
        monitor_.phase = script.batches.empty() ? Phase::kClose : Phase::kStep;
        break;
      case Phase::kStep:
        {
          const int verdict = static_cast<int>(
              parse_verdict(root.find("verdict")->as_string()));
          int& seen = step_verdicts[monitor_.script][monitor_.batch];
          if (seen == kNoVerdict) {
            seen = verdict;
          } else if (seen != verdict) {
            note_failure(result_, "monitor script " +
                                      std::to_string(monitor_.script) +
                                      " changed verdict between sessions");
          }
        }
        ++batches;
        batch_us.push_back(rtt_ms * 1e3);
        events += script.batches[monitor_.batch].size();
        if (tracer_) {
          tracer_->add("net.monitor_step", Layer::kNet,
                       static_cast<std::uint32_t>(monitor_.script), conn.sent,
                       received);
        }
        if (++monitor_.batch == script.batches.size()) {
          monitor_.phase = Phase::kClose;
        }
        break;
      case Phase::kClose:
        monitor_.phase = Phase::kOpen;
        monitor_.script = (monitor_.script + 1) % in_.scripts.size();
        break;
    }
  }

  static Stage stage_of(std::string_view name) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      if (stage_name(static_cast<Stage>(i)) == name) {
        return static_cast<Stage>(i);
      }
    }
    return Stage::kOther;
  }

  const Inputs& in_;
  Rng rng_;
  Result& result_;
  Tracer* tracer_ = nullptr;
  std::vector<Conn> conns_;
  MonitorState monitor_;
  std::uint64_t next_id_ = 1;
  std::size_t query_responses_ = 0;
  double elapsed_s_ = 0.0;
};

struct Direct {
  bool rl = false, rs = false, sat = false;
};

/// Decides rl, rs and sat of one pool (system, formula) pair directly and
/// checks Thm 4.7 on it (and the oracle on small systems).
Direct decide_directly(const Inputs& in, const PoolQuery& q, Result& result) {
  const Nfa& nfa = in.systems[q.system].nfa;
  const Buchi behaviors = limit_of_prefix_closed(nfa);
  const Labeling lambda = Labeling::canonical(nfa.alphabet());
  const Formula f = parse_ltl(q.formula);
  Direct d;
  d.rl = relative_liveness(behaviors, f, lambda).holds;
  d.rs = relative_safety(behaviors, f, lambda).holds;
  d.sat = satisfies(behaviors, f, lambda).holds;
  const std::string tag = in.systems[q.system].label + " " + q.formula;
  if (d.sat != (d.rl && d.rs)) {
    note_failure(result, tag + ": Thm 4.7 identity violated");
  }
  if (nfa.num_states() <= kOracleMaxStates &&
      (cert::oracle_relative_liveness(behaviors, f, lambda) != d.rl ||
       cert::oracle_relative_safety(behaviors, f, lambda) != d.rs ||
       cert::oracle_satisfies(behaviors, f, lambda) != d.sat)) {
    note_failure(result, tag + ": direct decision disagrees with oracle");
  }
  return d;
}

Word word_of(const net::JsonValue& names, const Alphabet& sigma) {
  Word w;
  for (const net::JsonValue& n : names.array) {
    w.push_back(sigma.id(n.as_string()));
  }
  return w;
}

/// Validates the witness a served negative verdict carries.
void check_witness(const Inputs& in, const PoolQuery& q,
                   const std::string& line, Result& result) {
  const net::JsonValue root = net::parse_json(line);
  const Nfa& nfa = in.systems[q.system].nfa;
  const Alphabet& sigma = *nfa.alphabet();
  const Buchi behaviors = limit_of_prefix_closed(nfa);
  const Labeling lambda = Labeling::canonical(nfa.alphabet());
  const Formula f = parse_ltl(q.formula);
  const net::JsonValue* prefix = root.find("witness_prefix");
  const net::JsonValue* period = root.find("witness_period");
  cert::Validation v{false, true, "missing witness"};
  if (q.kind == CheckKind::kRelativeLiveness && prefix) {
    v = cert::validate(
        RelativeLivenessResult{false, word_of(*prefix, sigma), std::nullopt},
        behaviors, f, lambda);
  } else if (prefix && period) {
    const Lasso lasso{word_of(*prefix, sigma), word_of(*period, sigma)};
    v = q.kind == CheckKind::kRelativeSafety
            ? cert::validate(RelativeSafetyResult{false, lasso, std::nullopt},
                             behaviors, f, lambda)
            : cert::validate(SatisfactionResult{false, lasso, std::nullopt},
                             behaviors, f, lambda);
  }
  if (!v.valid) {
    note_failure(result, in.systems[q.system].label + " " + q.formula +
                             ": served witness rejected: " + v.reason);
  }
}

}  // namespace

Result run_serve_mixed(const Args& args) {
  Result result;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Service> service;
  std::unique_ptr<LoadClient> warm;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    warm.reset();
    service.reset();
    const double cpu_start = process_cpu_s();
    inputs = std::make_unique<Inputs>(make_inputs(args.seed));
    service = std::make_unique<Service>();
    warm = std::make_unique<LoadClient>(*inputs, service->port(), args.seed,
                                        result);
    warm->run(0, kWarmupQueries, nullptr);
    result.setup_s.push_back(process_cpu_s() - cpu_start);
  }
  result.rss_mb = resident_mb();
  // Counting starts after the warm-up.
  const Inputs& in = *inputs;
  LoadClient timed(in, service->port(), args.seed + 1, result);
  warm.reset();
  const EngineStats before = service->engine().stats();
  const net::ServerCounters net_before = service->server().counters();

  Tracer tracer_storage;
  Tracer* tracer = args.trace ? &tracer_storage : nullptr;
  const double cpu_start = process_cpu_s();
  timed.run(args.seconds, 0, tracer);
  result.tail_pct = 99.0;
  result.timed_s = timed.elapsed_s();
  result.timed_cpu_s = process_cpu_s() - cpu_start;
  const EngineStats after = service->engine().stats();
  const net::ServerCounters net_after = service->server().counters();
  service.reset();

  result.attempted = timed.queries;
  result.decided = timed.decided;
  // Verdict times are the server's: on this shared host the client's
  // round trips are mostly thread hand-offs waiting for a CPU, and their
  // median moved by 40% across five seeds. They are printed, not gated.
  result.latency_ms = timed.server_ms;
  const std::vector<double>& rtt = timed.round_trips;
  result.report["client_rtt_p50_ms"] = {percentile(rtt, 50), "ms"};
  result.report["client_rtt_p99_ms"] = {percentile(rtt, 99), "ms"};

  // Correctness, outside the timed window: the first verdict served for
  // each pool query (the later ones were compared with it on arrival)
  // against the direct decision, and its witness through rlv::cert.
  std::map<std::pair<std::size_t, std::string>, Direct> direct;
  for (std::size_t pool = 0; pool < timed.served.size(); ++pool) {
    const Served& first = timed.served[pool];
    if (!first.seen) continue;
    const PoolQuery& q = in.pool[pool];
    const auto key = std::make_pair(q.system, q.formula);
    auto it = direct.find(key);
    if (it == direct.end()) {
      it = direct.emplace(key, decide_directly(in, q, result)).first;
    }
    const Direct& d = it->second;
    const bool expected = q.kind == CheckKind::kRelativeLiveness ? d.rl
                          : q.kind == CheckKind::kRelativeSafety ? d.rs
                                                                 : d.sat;
    if (first.holds != expected) {
      note_failure(result, in.systems[q.system].label + " " + q.formula +
                               ": served verdict differs from direct check");
    }
    if (!first.holds) check_witness(in, q, first.line, result);
  }
  // Monitor verdicts against a locally compiled automaton per spec.
  std::vector<std::unique_ptr<monitor::MonitorAutomaton>> automata;
  for (const auto& [system, formula] : in.specs) {
    const Nfa& nfa = in.systems[system].nfa;
    automata.push_back(std::make_unique<monitor::MonitorAutomaton>(
        limit_of_prefix_closed(nfa), parse_ltl(formula),
        Labeling::canonical(nfa.alphabet())));
  }
  for (std::size_t k = 0; k < in.scripts.size(); ++k) {
    const monitor::MonitorAutomaton& aut = *automata[in.scripts[k].spec];
    std::uint32_t state = aut.initial();
    for (std::size_t b = 0; b < in.scripts[k].batches.size(); ++b) {
      for (const std::string& event : in.scripts[k].batches[b]) {
        state = aut.step(state, aut.alphabet()->id(event));
      }
      const int served = timed.step_verdicts[k][b];
      if (served != kNoVerdict &&
          served != static_cast<int>(aut.verdict(state))) {
        note_failure(result, "monitor script " + std::to_string(k) +
                                 " batch " + std::to_string(b) +
                                 ": served verdict differs from local monitor");
      }
    }
  }
  const std::uint64_t overloads =
      net_after.overload_rejects - net_before.overload_rejects;
  const std::uint64_t protocol_errors =
      net_after.protocol_errors - net_before.protocol_errors;
  if (overloads + protocol_errors > 0) {
    note_failure(result, std::to_string(overloads) + " overload rejects, " +
                             std::to_string(protocol_errors) +
                             " protocol errors");
  }

  const double events_per_s =
      static_cast<double>(timed.events) / result.timed_s;
  const double batch_tail_p = 99.0;
  const std::vector<double>& batch_us = timed.batch_us;
  const double batch_tail_us = percentile(batch_us, batch_tail_p);
  result.report["monitor_events_per_s"] = {events_per_s, "1/s"};
  result.report["monitor_batch_tail_us"] = {batch_tail_us, "us"};
  result.report["monitor_batch_tail_pct"] = {batch_tail_p, "percentile"};
  result.report["monitor_batches"] = {static_cast<double>(timed.batches),
                                      "count"};

  if (tracer) {
    auto& L = result.layers;
    const auto n = static_cast<double>(timed.queries);
    double rtt_total = 0.0;
    for (const double ms : rtt) rtt_total += ms;
    add_cache_metrics(result, before, after);
    L["engine.server_ms_per_query"] = {timed.server_ms_total / n, "ms"};
    L["net.outside_engine_ms"] = {(rtt_total - timed.server_ms_total) / n,
                                  "ms"};
    const std::uint64_t requests = net_after.requests - net_before.requests;
    L["net.bytes_per_query"] = {
        requests ? static_cast<double>(
                       (net_after.bytes_read - net_before.bytes_read) +
                       (net_after.bytes_written - net_before.bytes_written)) /
                       static_cast<double>(requests)
                 : 0.0,
        "bytes"};
    L["net.overload_rejects"] = {static_cast<double>(overloads), "count"};
    L["net.protocol_errors"] = {static_cast<double>(protocol_errors), "count"};
    L["monitor.step_rtt_p50_us"] = {percentile(batch_us, 50), "us"};
    L["monitor.compile_ms"] = {
        timed.opens ? timed.open_ms / static_cast<double>(timed.opens) : 0.0,
        "ms"};
    L["monitor.dooms"] = {
        static_cast<double>(after.monitor.dooms - before.monitor.dooms),
        "count"};
    L["monitor.events_per_s"] = {events_per_s, "1/s"};
    L["monitor.batch_tail_us"] = {batch_tail_us, "us"};
    add_stage_metrics(result, [&] {
      QueryProfile stages = after.stages;
      for (std::size_t i = 0; i < kNumStages; ++i) {
        StageMetrics& m = stages.stages[i];
        const StageMetrics& b = before.stages.stages[i];
        m.nanos -= b.nanos;
        m.states_built.store(m.states_built.load() - b.states_built.load());
      }
      return stages;
    }(), timed.queries);
    add_layer_times(result, *tracer, "net.query", timed.queries);
    if (!args.trace_out.empty()) tracer->write(args.trace_out);
  }
  return result;
}

}  // namespace bench

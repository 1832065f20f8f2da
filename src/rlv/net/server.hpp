#pragma once

// rlv::net::Server — the resident serving layer over rlv::Engine. One
// process owns one Engine (and thus one set of warm caches) and serves the
// newline-delimited JSON protocol of protocol.hpp to any number of
// concurrent TCP clients.
//
// Threading model: N reactor threads (options.reactors; run() spawns
// N-1 and becomes reactor 0), each a self-contained poll(2) event loop
// owning its own pollfd table, connection map, wake pipe, completion
// sink, and monitor-session-ownership sets — no connection state is ever
// shared across reactors, so the loops need no locks between them.
// Reactor 0 is the one acceptor: it owns the only listener and deals
// accepted fds round-robin, so client k lands on reactor k mod N (the
// others receive theirs through their completion sinks). Reactors never
// execute a query: query work happens on the Engine's worker pool via
// Engine::submit, results are rendered on the worker thread (rendering
// re-parses the system text — keep that off the loops) and handed back
// through the owning reactor's mutex-protected completion queue plus a
// self-pipe wakeup. Because the engine runs queries inline when built
// with jobs <= 1, a Server requires an Engine with jobs >= 2.
//
// Backpressure: in-flight queries are bounded per connection and globally;
// a request over either bound is answered immediately with the structured
// "overloaded" rejection (scope "connection" / "server") instead of
// queueing without bound or stalling the socket. A connection with more
// than 8 MiB of unsent responses stops being read until the client drains
// it (TCP backpressure). At max_connections the acceptor stops polling
// the listener; a close on any reactor wakes it to accept again.
//
// Shutdown: request_stop() is async-signal-safe (an atomic store plus a
// write to every reactor's self-pipe) so a SIGINT/SIGTERM handler can
// call it directly. The acceptor closes the listener; each reactor stops
// reading, lets its in-flight queries finish under their Budget deadlines
// (apply_limits gives every served query one), flushes buffered
// responses, reclaims its connections' monitor sessions, and returns;
// a drain deadline bounds the wait against budget-less stragglers.
// run() returns once every reactor has drained.
//
// fd exhaustion: accept(2) failing with EMFILE/ENFILE/ENOMEM/ENOBUFS is
// an overload signal, not a crash — the acceptor logs once, bumps
// accept_soft_errors, and stops polling the listener until one of its
// connections closes (or a short retry backoff elapses). Established
// connections keep being served the whole time.

#include <cstdint>
#include <memory>
#include <string>

#include "rlv/engine/engine.hpp"
#include "rlv/net/protocol.hpp"

namespace rlv::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; start() returns the bound port
  std::size_t max_connections = 256;
  std::size_t max_inflight_per_connection = 8;
  std::size_t max_inflight = 64;  // across all connections
  /// A request line (and thus an embedded system text) larger than this is
  /// rejected and the connection closed — the parser never sees it.
  std::size_t max_request_bytes = 1 << 20;
  std::uint64_t idle_timeout_ms = 120000;  // 0 = never close idle clients
  std::uint64_t drain_timeout_ms = 5000;   // bound on the graceful drain
  /// Monitor sessions untouched for this long are reclaimed by the loop
  /// (idle-session GC, independent of connection idle close); 0 = never.
  /// A later step on a reclaimed session reports "unknown_session".
  std::uint64_t session_idle_timeout_ms = 0;
  /// Event-loop reactors. 1 keeps the classic single-loop server; N > 1
  /// runs N independent loops (run() spawns N-1 threads), sharing only the
  /// engine, the global in-flight gauge, and the stats counters. Client k
  /// lands on reactor k mod N.
  std::size_t reactors = 1;
  ServerLimits limits;  // caps/defaults for per-request overrides
};

class Server {
 public:
  /// The engine must outlive the server AND be built with jobs >= 2 (see
  /// the threading model above); the constructor enforces the latter.
  Server(Engine& engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Installs SIGPIPE protection, binds, and listens. Returns the bound
  /// port (== options.port unless that was 0). Throws on bind failure.
  std::uint16_t start();

  /// The event loop. Blocks until request_stop() completes the drain.
  /// start() must have been called.
  void run();

  /// Begins graceful drain. Async-signal-safe; callable from any thread
  /// or from a signal handler, before or during run(). Idempotent.
  void request_stop();

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] ServerCounters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlv::net

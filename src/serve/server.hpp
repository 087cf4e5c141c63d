// tut::serve — the simulation service: Engine (request handling) and
// Server (TCP transport).
//
// The split is deliberate: Engine maps one request payload to one response
// payload with no sockets anywhere in sight, so tests and benches drive the
// exact production request path in-process (serve::Engine::handle is what
// bench_serve measures). Server owns the listening socket, the accept loop
// and a worker pool bounded by the profile's concurrency cap; each worker
// speaks the frame protocol of serve/protocol.hpp over one connection at a
// time.
//
// Warm-request fast path: Engine resolves the model through ModelCache
// (content-hash lookup), pops a pooled Simulation context, resets it under
// the request's config, injects the declared workload and runs — no XML
// parse, no lowering, no behaviour compilation. Byte-identity of warm and
// cold responses is inherited from the Simulation::reset contract and
// pinned by tests/test_serve.cpp and the serve-smoke CI job.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "sim/resource.hpp"

namespace tut::serve {

/// The socket-free request processor: one instance per daemon, shared by
/// every connection worker. Thread-safe — all mutable state lives in the
/// ModelCache, which synchronizes itself.
class Engine {
 public:
  explicit Engine(const sim::ResourceProfile& profile);

  /// Handles one request payload (everything after the frame header) and
  /// returns the response payload. Never throws: every failure — malformed
  /// payload, unknown kind, model defect, envelope miss — becomes a
  /// status-1 error response carrying the failure's rule tag. Sets
  /// `*shutdown` when the request was a shutdown (the transport should stop
  /// accepting after sending the response).
  std::string handle(std::string_view payload, bool* shutdown = nullptr);

  ModelCache& cache() noexcept { return cache_; }
  const sim::ResourceProfile& profile() const noexcept { return profile_; }

 private:
  std::string do_simulate(wire::Reader& r);
  std::string do_batch(wire::Reader& r);
  std::string do_lint(wire::Reader& r);
  std::string do_campaign(wire::Reader& r);
  std::string do_stats();
  std::string do_evict(wire::Reader& r);
  std::string do_shutdown();

  /// Cache acquire with the CLI's native-backend fallback: a [native.*]
  /// build failure (typically no C++ compiler) retries as interpreter
  /// instead of failing the request. Results are byte-identical either way.
  ModelCache::Acquired acquire(std::string_view model_xml,
                               sim::Backend backend) const;

  sim::ResourceProfile profile_;
  mutable ModelCache cache_;
};

/// The TCP transport: accepts connections on 127.0.0.1 and feeds their
/// frames through a shared Engine. `threads` workers serve one connection
/// each (clamped by the profile's concurrency cap); a shutdown request
/// stops the accept loop after its response is written.
class Server {
 public:
  /// Binds and listens on 127.0.0.1:`port` (0 picks an ephemeral port —
  /// read it back with port()). Throws std::runtime_error when the bind
  /// fails (port in use, no permission).
  Server(Engine& engine, std::uint16_t port, std::size_t threads = 0);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  std::size_t threads() const noexcept { return threads_; }

  /// Runs the accept loop until stop() or a shutdown request. Connections
  /// are queued to the worker pool; run() joins every worker before
  /// returning, so the caller owns a quiescent server afterwards.
  void run();
  /// Stops the accept loop from another thread (idempotent).
  void stop();

 private:
  void worker();
  void serve_connection(int fd);

  Engine& engine_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::size_t threads_ = 1;
  std::atomic<bool> stopping_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  bool closed_ = false;  ///< no more connections will be queued
};

/// The thin client: one connection, blocking call/response. Throws
/// std::runtime_error on connect/transport failures and rethrows server-side
/// errors as the "serve: [tag] message" the error response carries.
class Client {
 public:
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one framed request payload and returns the response *body*
  /// (status stripped; a status-1 response throws instead).
  std::string call(std::string_view request_payload);

 private:
  std::string read_frame();
  int fd_ = -1;
};

}  // namespace tut::serve

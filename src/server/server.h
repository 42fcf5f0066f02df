/// \file server.h
/// \brief vpbnd: the long-running concurrent query server over a Catalog.
///
/// Architecture: a tiny accept loop (one thread) hands each accepted
/// connection to a worker drawn from a common::ThreadPool. Workers speak
/// the newline-delimited protocol (server/protocol.h): read a line,
/// dispatch, write one JSON line back. Each request runs on its worker's
/// thread; the workers are the only concurrency in the server.
///
/// The full request path for QUERY:
///
///   admission gate (bounded in-flight)  ->  token bucket (rate limit)
///   ->  catalog lookup (shared_ptr pins the generation; reloads cannot
///       invalidate it mid-query)
///   ->  result cache probe keyed by (doc, view, path, epoch)
///   ->  on miss: engine Prepare (plan cache) + Execute + StringValues,
///       then populate the result cache
///
/// Shed requests fail fast with wire code `overload` (ErrorCode::kOverload)
/// instead of queueing. Every response carries the generation epoch it was
/// answered from.
///
/// `HandleLine` is the transport-free entry point: tests and the E14
/// closed-loop driver call it in-process (it is exactly what a connection
/// worker runs per line), so the whole dispatch/caching/admission stack is
/// exercised under TSan without sockets.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "common/result.h"
#include "common/thread_pool.h"
#include "query/exec_context.h"
#include "server/catalog.h"
#include "server/protocol.h"
#include "server/rate_limiter.h"
#include "server/result_cache.h"

namespace vpbn::server {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Bind address. Loopback by default: vpbnd has no auth layer.
  std::string host = "127.0.0.1";
  /// Connection worker threads (each serves one connection at a time).
  int num_workers = 8;
  /// Max concurrently executing queries; further QUERYs shed. <= 0: off.
  int max_inflight = 64;
  /// Sustained queries/second admitted by the token bucket. <= 0: off.
  double rate_limit = 0;
  /// Token-bucket burst capacity; <= 0 defaults to max(rate_limit, 1).
  double burst = 0;
  /// Result-cache capacity in entries; 0 disables the cache.
  size_t result_cache_capacity = 256;
};

/// \brief Cumulative counters exported by STATS.
struct ServerMetrics {
  std::atomic<uint64_t> requests{0};   ///< lines received (any verb)
  std::atomic<uint64_t> queries{0};    ///< QUERY lines admitted past parsing
  std::atomic<uint64_t> ok{0};         ///< code 0 responses
  std::atomic<uint64_t> parse_errors{0};
  std::atomic<uint64_t> not_found{0};
  std::atomic<uint64_t> overload{0};
  std::atomic<uint64_t> internal{0};
  std::atomic<uint64_t> reloads{0};
};

class Server {
 public:
  /// \p catalog must outlive the server. The server never mutates it except
  /// through RELOAD requests.
  Server(Catalog* catalog, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the accept loop. InvalidArgument/Internal on
  /// socket failures.
  Status Start();

  /// Stop accepting, unblock every open connection, drain workers. Safe to
  /// call twice; also called by the destructor.
  void Stop();

  /// The bound port (after Start), even when options.port was 0.
  int port() const { return port_; }

  /// Longest unterminated request line a connection may buffer. Past it
  /// the connection gets one parse error (code 1) and is closed, so a
  /// client that never sends a newline cannot grow the buffer without
  /// bound.
  static constexpr size_t kMaxLineBytes = size_t{1} << 20;

  /// Serve one request line (without trailing newline) and return the
  /// one-line JSON response (without trailing newline). Thread-safe; this
  /// is the exact per-line path of a connection worker.
  std::string HandleLine(std::string_view line);

  /// True once a SHUTDOWN request was served (the transport is still up —
  /// the owner decides when to Stop()).
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Block until SHUTDOWN is requested or \p timeout elapses; returns
  /// shutdown_requested().
  bool WaitForShutdownRequest(std::chrono::milliseconds timeout);

  /// The STATS response body (also what the STATS verb returns).
  std::string StatsJson() const;

  const ServerMetrics& metrics() const { return metrics_; }
  const ResultCache& result_cache() const { return result_cache_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  std::string HandleQuery(const Request& req);
  std::string HandleList();
  std::string HandleReload(const Request& req);
  std::string HandleShutdown();
  std::string CountedResponse(std::string response);

  Catalog* const catalog_;
  const ServerOptions options_;

  ResultCache result_cache_;
  AdmissionGate gate_;
  TokenBucket bucket_;
  ServerMetrics metrics_;
  std::chrono::steady_clock::time_point start_time_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::unique_ptr<common::ThreadPool> workers_;
  std::mutex conns_mu_;
  std::unordered_set<int> conns_;

  std::atomic<bool> shutdown_requested_{false};
  mutable std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
};

}  // namespace vpbn::server

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "query/error_code.h"

namespace vpbn::server {

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

/// Write all of \p data to \p fd, riding out partial writes and EINTR.
/// MSG_NOSIGNAL: a client that hangs up mid-response must not SIGPIPE the
/// whole server.
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

Server::Server(Catalog* catalog, ServerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      result_cache_(options_.result_cache_capacity),
      gate_(options_.max_inflight),
      bucket_(options_.rate_limit, options_.burst),
      start_time_(std::chrono::steady_clock::now()) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal(std::string("bind ") + options_.host + ":" +
                                 std::to_string(options_.port) + ": " +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status st = Status::Internal(std::string("listen: ") +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  workers_ = std::make_unique<common::ThreadPool>(
      options_.num_workers > 0 ? options_.num_workers : 1);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller still waits for the first teardown to finish (the
    // destructor racing an explicit Stop).
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Unblock every connection reader; each ServeConnection closes its own
    // fd on the way out.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  workers_.reset();  // blocks until every connection task has returned
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() from Stop lands here; anything else while running is a
      // transient accept failure worth retrying until stopped.
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.insert(fd);
    }
    workers_->Submit([this, fd] { ServeConnection(fd); });
  }
}

void Server::ServeConnection(int fd) {
  std::string buffer;
  size_t scanned = 0;  // leading bytes of buffer known to hold no newline
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', scanned); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      std::string response = HandleLine(line);
      response += '\n';
      if (!WriteAll(fd, response)) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (open && buffer.size() > kMaxLineBytes) {
      metrics_.requests.fetch_add(1, std::memory_order_relaxed);
      std::string response = CountedResponse(ErrorResponse(Status::ParseError(
          "request line exceeds " + std::to_string(kMaxLineBytes) +
          " bytes without a newline")));
      response += '\n';
      WriteAll(fd, response);
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(fd);
  }
  ::close(fd);
}

std::string Server::HandleLine(std::string_view line) {
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    return CountedResponse(ErrorResponse(parsed.status()));
  }
  const Request& req = parsed.value();
  switch (req.verb) {
    case Request::Verb::kQuery:
      return CountedResponse(HandleQuery(req));
    case Request::Verb::kList:
      return CountedResponse(HandleList());
    case Request::Verb::kReload:
      return CountedResponse(HandleReload(req));
    case Request::Verb::kStats:
      return CountedResponse(StatsJson());
    case Request::Verb::kShutdown:
      return CountedResponse(HandleShutdown());
  }
  return CountedResponse(
      ErrorResponse(Status::Internal("unhandled verb")));  // unreachable
}

std::string Server::CountedResponse(std::string response) {
  // Every response leads with {"code":<digit>}; classify off that digit.
  constexpr std::string_view kPrefix = "{\"code\":";
  char digit =
      response.size() > kPrefix.size() ? response[kPrefix.size()] : '4';
  switch (digit) {
    case '0':
      metrics_.ok.fetch_add(1, std::memory_order_relaxed);
      break;
    case '1':
      metrics_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    case '2':
      metrics_.not_found.fetch_add(1, std::memory_order_relaxed);
      break;
    case '3':
      metrics_.overload.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      metrics_.internal.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return response;
}

std::string Server::HandleQuery(const Request& req) {
  metrics_.queries.fetch_add(1, std::memory_order_relaxed);

  // Admission first: shed before touching the catalog or caches, so an
  // overloaded server does the minimum possible work per rejected request.
  AdmissionGate::Ticket ticket(gate_);
  if (!ticket.admitted()) {
    return ErrorResponse(Status::ResourceExhausted(
        "server at max in-flight queries (" +
        std::to_string(options_.max_inflight) + "); retry later"));
  }
  if (!bucket_.TryAcquire()) {
    return ErrorResponse(
        Status::ResourceExhausted("rate limit exceeded; retry later"));
  }

  std::shared_ptr<const CatalogEntry> entry = catalog_->Find(req.doc);
  if (!entry) {
    return ErrorResponse(Status::NotFound("no document '" + req.doc + "'"));
  }
  auto engine_result = entry->EngineFor(req.view);
  if (!engine_result.ok()) {
    return ErrorResponse(engine_result.status());
  }
  std::shared_ptr<const query::QueryEngine> engine =
      std::move(engine_result).value();

  const std::string key =
      ResultCache::Key(req.doc, req.view, req.path, entry->epoch);
  const bool want_stats = engine->EffectiveOptions(req.overrides).collect_stats;

  // A --stats hit replays the stats of the execution that filled the
  // entry; an entry filled without them runs again and is refreshed.
  std::shared_ptr<const ResultCache::Entry> cached =
      result_cache_.Get(key, want_stats);
  const bool cache_hit = cached != nullptr;
  if (!cached) {
    auto prepared = engine->Prepare(req.path);
    if (!prepared.ok()) {
      return ErrorResponse(prepared.status());
    }
    auto executed = engine->Execute(prepared.value(), req.overrides);
    if (!executed.ok()) {
      return ErrorResponse(executed.status());
    }
    const query::QueryResult& result = executed.value();
    auto fresh = std::make_shared<ResultCache::Entry>();
    fresh->values = engine->StringValues(result);
    fresh->result_nodes = result.size();
    fresh->plan = result.stats().plan;
    fresh->wall_ms = result.stats().wall_ms;
    if (want_stats) fresh->stats_json = result.stats().ToJson();
    result_cache_.Put(key, fresh);
    cached = std::move(fresh);
  }

  std::string out = "{\"code\":0,";
  out += JsonField("doc", req.doc);
  out += ',';
  out += JsonField("view", req.view);
  out += ",\"epoch\":";
  out += std::to_string(entry->epoch);
  out += ",\"count\":";
  out += std::to_string(cached->result_nodes);
  out += ',';
  out += JsonField("plan", cached->plan);
  out += ",\"cached\":";
  out += cache_hit ? "true" : "false";
  out += ",\"wall_ms\":";
  out += FormatMs(cached->wall_ms);
  out += ",\"values\":";
  out += JsonStringArray(cached->values);
  if (want_stats) {
    out += ",\"stats\":";
    out += cached->stats_json;
  }
  out += '}';
  return out;
}

std::string Server::HandleList() {
  std::string out = "{\"code\":0,\"docs\":[";
  bool first_doc = true;
  for (const auto& entry : catalog_->List()) {
    if (!first_doc) out += ',';
    first_doc = false;
    out += '{';
    out += JsonField("name", entry->name);
    out += ",\"epoch\":";
    out += std::to_string(entry->epoch);
    out += ",\"nodes\":";
    out += std::to_string(entry->stored->doc().num_nodes());
    out += ",\"views\":[";
    bool first_view = true;
    for (const auto& [view_name, view] : entry->views) {
      (void)view;
      if (!first_view) out += ',';
      first_view = false;
      out += '"';
      out += JsonEscape(view_name);
      out += '"';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string Server::HandleReload(const Request& req) {
  Result<uint64_t> epoch = catalog_->Reload(req.doc);
  if (!epoch.ok()) {
    return ErrorResponse(epoch.status());
  }
  metrics_.reloads.fetch_add(1, std::memory_order_relaxed);
  std::string out = "{\"code\":0,";
  out += JsonField("doc", req.doc);
  out += ",\"epoch\":";
  out += std::to_string(epoch.value());
  out += '}';
  return out;
}

std::string Server::HandleShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_.store(true, std::memory_order_release);
  }
  shutdown_cv_.notify_all();
  return "{\"code\":0,\"message\":\"shutting down\"}";
}

bool Server::WaitForShutdownRequest(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait_for(lock, timeout, [this] {
    return shutdown_requested_.load(std::memory_order_acquire);
  });
  return shutdown_requested_.load(std::memory_order_acquire);
}

std::string Server::StatsJson() const {
  const auto& m = metrics_;
  // Plan-cache totals are summed over the *current* catalog generation's
  // engines (stored + every view); replaced generations take their counters
  // with them, which is the honest reading — those caches are gone.
  uint64_t plan_hits = 0, plan_misses = 0;
  for (const auto& entry : catalog_->List()) {
    plan_hits += entry->engine->plan_cache_hits();
    plan_misses += entry->engine->plan_cache_misses();
    for (const auto& [name, view] : entry->views) {
      (void)name;
      plan_hits += view.engine->plan_cache_hits();
      plan_misses += view.engine->plan_cache_misses();
    }
  }
  const double uptime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time_)
          .count();

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"code\":0,\"uptime_ms\":%.1f,\"documents\":%zu,"
      "\"requests\":%" PRIu64 ",\"queries\":%" PRIu64 ",\"ok\":%" PRIu64
      ",\"parse_errors\":%" PRIu64 ",\"not_found\":%" PRIu64
      ",\"overload\":%" PRIu64 ",\"internal\":%" PRIu64
      ",\"reloads\":%" PRIu64
      ",\"admission\":{\"inflight\":%d,\"max_inflight\":%d,"
      "\"gate_shed\":%" PRIu64 ",\"rate_shed\":%" PRIu64
      "},\"result_cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
      ",\"size\":%zu,\"capacity\":%zu},\"plan_cache\":{\"hits\":%" PRIu64
      ",\"misses\":%" PRIu64 "}}",
      uptime_ms, catalog_->size(), m.requests.load(), m.queries.load(),
      m.ok.load(), m.parse_errors.load(), m.not_found.load(),
      m.overload.load(), m.internal.load(), m.reloads.load(),
      gate_.inflight(), options_.max_inflight, gate_.shed(), bucket_.shed(),
      result_cache_.hits(), result_cache_.misses(), result_cache_.size(),
      result_cache_.capacity(), plan_hits, plan_misses);
  return buf;
}

}  // namespace vpbn::server

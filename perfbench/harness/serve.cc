/// \file serve.cc
/// \brief The `serve` phase: a closed-loop client on a loopback TCP
/// connection to an in-process vpbnd Server (default ServerOptions, engine
/// thread budget 1). The catalog holds `books` with view `ta` and
/// `auctions` with view `bids`. Requests come from parameterized templates
/// whose literals are drawn Zipf-skewed, so far more distinct lines occur
/// than the result cache holds; one request in a thousand is
/// `RELOAD books`.
///
/// End-to-end numbers come from one client: the machine's parallel
/// capacity swings between one and four cores from minute to minute, and a
/// single closed loop keeps one thread busy at a time. Traced runs add
/// slices with one client per thread of the run's budget, reporting their
/// latencies and the throughput gained, and an admission slice against a
/// second server that admits one query at a time, reporting the requests it
/// sheds.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "query/eval_nav.h"
#include "server/catalog.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats.h"
#include "workload/auctions.h"
#include "workload/books.h"
#include "xml/serializer.h"

namespace perfbench {

namespace {

using vpbn::server::Catalog;
using vpbn::server::Server;

constexpr int kBooks = 1850;               // about 20k nodes
constexpr double kAuctionsScale = 0.15;    // about 60k nodes
constexpr int kSetups = 15;
/// Each client sends `RELOAD books` once per kReloadEvery requests, the
/// clients staggered so that the first reloads come early in the run.
constexpr uint64_t kReloadEvery = 1000;
constexpr double kZipfS = 1.3;  // about two thirds of lookups hit
constexpr uint64_t kFixedOrderSeed = 0x5eed;
constexpr size_t kGateLines = 48;
constexpr size_t kReloadWindow = 100;
/// Samples p99_ms needs: ten beyond the 99th percentile.
constexpr size_t kTailSamples = 1000;
/// Share of each solo slice spent on untimed requests first: the other
/// phases ran just before and left the caches holding their data, which
/// made the first requests of a slice land in the tail.
constexpr double kWarmupShare = 0.1;
/// Requests each client sends in the admission slice.
constexpr int kAdmissionRequests = 250;
constexpr char kReloadLine[] = "RELOAD books";

/// One side of a loopback connection speaking the line protocol.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  /// Sends \p line and reads one response line (without its newline).
  bool Call(const std::string& line, std::string* response) {
    std::string out = line + '\n';
    std::string_view pending(out);
    while (!pending.empty()) {
      ssize_t n = ::send(fd_, pending.data(), pending.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      pending.remove_prefix(static_cast<size_t>(n));
    }
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        response->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Literal values of one kind, in a seed-shuffled order so that which
/// value is hot depends on the seed.
struct Domain {
  std::vector<std::string> values;
  std::unique_ptr<ZipfSampler> zipf;
};

struct Template {
  std::string doc;
  std::string view;
  std::string before;  ///< path text before the literal
  std::string after;   ///< path text after the literal
  const Domain* domain;
};

/// A drawn request, kept apart so the oracle can evaluate its path.
struct Request {
  std::string line;
  const Template* tmpl = nullptr;  ///< null for RELOAD
  std::string path;
};

class RequestStream {
 public:
  /// \p reload_phase in [0, kReloadEvery) places this stream's reloads;
  /// a stream with reload_phase kReloadEvery never reloads.
  RequestStream(const std::vector<Template>* templates, uint64_t seed,
                uint64_t reload_phase)
      : templates_(templates), rng_(seed), reload_phase_(reload_phase) {}

  Request Next() {
    Request r;
    if (count_++ % kReloadEvery == reload_phase_) {
      r.line = kReloadLine;
      return r;
    }
    r.tmpl = &(*templates_)[rng_.Uniform(templates_->size())];
    const Domain& d = *r.tmpl->domain;
    r.path = r.tmpl->before + d.values[d.zipf->Draw(&rng_)] + r.tmpl->after;
    r.line = "QUERY " + r.tmpl->doc +
             (r.tmpl->view.empty() ? "" : "/" + r.tmpl->view) + " " + r.path;
    return r;
  }

 private:
  const std::vector<Template>* templates_;
  SplitMix64 rng_;
  const uint64_t reload_phase_;
  uint64_t count_ = 0;
};

bool IsOk(const std::string& response) {
  return response.rfind("{\"code\":0", 0) == 0;
}

bool IsOverload(const std::string& response) {
  return response.rfind("{\"code\":3", 0) == 0;
}

bool IsCached(const std::string& response) {
  return response.find("\"cached\":true") != std::string::npos;
}

/// The system under test: catalog, server, one connection per client.
struct Stack {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<LineClient>> clients;

  /// Tears down in dependency order: connections, server, catalog.
  void Reset() {
    clients.clear();
    server.reset();
    catalog.reset();
  }
};

/// What one client measured, and where its request sequence stands.
struct ClientLog {
  std::unique_ptr<RequestStream> stream;
  uint64_t requests = 0;
  // Traced runs only.
  std::vector<double> hit_ms, miss_ms, transport_ms, reload_direct_ms;
  std::vector<double> concurrent_ms;  ///< untraced QUERYs, several clients
  std::vector<double> misses_after_reload;
  std::vector<std::pair<size_t, size_t>> windows;  // after each reload:
                                                   // {seen, misses}
  uint64_t hits = 0, lookups = 0;
  double response_bytes = 0;
};

/// Requests and wall time of the slices of one kind.
struct Throughput {
  uint64_t requests = 0;
  double wall_s = 0;
  double qps() const { return wall_s > 0 ? requests / wall_s : 0; }
};

Domain MakeDomain(std::vector<std::string> values, SplitMix64* rng) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng->Uniform(i)]);
  }
  Domain d;
  d.zipf = std::make_unique<ZipfSampler>(values.size(), kZipfS);
  d.values = std::move(values);
  return d;
}

std::vector<std::string> TextValues(const vpbn::xml::Document& doc,
                                    const char* path) {
  std::vector<std::string> out;
  auto nodes = vpbn::query::EvalNav(doc, path);
  if (nodes.ok()) {
    for (vpbn::xml::NodeId id : *nodes) out.push_back(doc.StringValue(id));
  }
  return out;
}

std::vector<std::string> Numbered(const std::string& prefix, int first,
                                  int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(prefix + std::to_string(first + i));
  }
  return out;
}

/// What a slice of the closed loop measures.
enum class SliceKind {
  kWarmup,      ///< one untraced client, nothing recorded
  kSolo,        ///< one untraced client: the end-to-end latencies
  kTraced,      ///< one client, spans and direct HandleLine calls
  kConcurrent,  ///< one untraced client per thread of the run's budget
};

class ServePhase : public Phase {
 public:
  ServePhase(Run* run, bool primary) : run_(run), primary_(primary) {}

  bool Prepare() override;
  void Measure(double seconds) override;
  void Finish() override;

 private:
  /// Runs the closed loops of \p kind for \p seconds.
  void Slice(SliceKind kind, double seconds, Throughput* totals);
  /// Client \p c's closed loop until \p deadline.
  void ClientLoop(int c, int64_t deadline, SliceKind kind);
  /// Every client of the run's budget sends kAdmissionRequests QUERY lines
  /// at once to a second server over the same catalog that admits one
  /// query at a time; returns the number it shed.
  uint64_t AdmissionSlice();

  Run* const run_;
  const bool primary_;
  vpbn::xml::Document books_, auctions_;
  Domain years_, book_ids_, authors_, locations_, item_ids_, person_ids_,
      cities_, descriptions_, quantities_, prices_;
  std::vector<Template> templates_;
  Stack stack_;
  // Expected response tail (`"values":[...]}`) of every gated line, so the
  // timed loop checks each later answer to those lines too.
  std::unordered_map<std::string, std::string> expected_;
  std::vector<ClientLog> logs_;
  RoundSeries query_ms_, reload_ms_, qps_;
  Throughput solo_, traced_, concurrent_;
};

bool ServePhase::Prepare() {
  Report& report = run_->report;
  const int num_clients = run_->threads;

  // --- Corpus and literal domains (not timed) ---------------------------
  vpbn::workload::BooksOptions bopts;
  bopts.seed = run_->StreamSeed("serve.books");
  bopts.num_books = kBooks;
  books_ = vpbn::workload::GenerateBooks(bopts);
  const vpbn::workload::AuctionsOptions aopts =
      vpbn::workload::ScaledAuctions(kAuctionsScale,
                                     run_->StreamSeed("serve.auctions"));
  auctions_ = vpbn::workload::GenerateAuctions(aopts);
  const std::string books_xml = vpbn::xml::SerializeDocument(books_);
  const std::string auctions_xml = vpbn::xml::SerializeDocument(auctions_);

  // Which value is hot follows the seed, except for the numeric bounds of
  // range predicates: their result sizes differ by orders of magnitude, so
  // their order is fixed and the mix costs the same under every seed.
  SplitMix64 shuffle(run_->StreamSeed("serve.domains"));
  SplitMix64 fixed(kFixedOrderSeed);
  years_ = MakeDomain(Numbered("", 1960, 65), &fixed);
  book_ids_ = MakeDomain(Numbered("b", 0, kBooks), &shuffle);
  authors_ = MakeDomain(TextValues(books_, "//author/name"), &shuffle);
  locations_ =
      MakeDomain(TextValues(books_, "//publisher/location"), &shuffle);
  item_ids_ = MakeDomain(Numbered("item", 0, aopts.num_items), &shuffle);
  person_ids_ =
      MakeDomain(Numbered("person", 0, aopts.num_people), &shuffle);
  cities_ = MakeDomain(TextValues(auctions_, "//person/city"), &shuffle);
  descriptions_ =
      MakeDomain(TextValues(auctions_, "//item/description"), &shuffle);
  quantities_ = MakeDomain(Numbered("", 1, 5), &fixed);
  prices_ = MakeDomain(Numbered("", 10, 240), &fixed);

  templates_ = {
      {"books", "", "//book[@year = ", "]/title", &years_},
      {"books", "", "//book[@year >= ", "]/title", &years_},
      {"books", "", "//book[@year < ", "]/publisher/location", &years_},
      {"books", "", "//book[@id = \"", "\"]/author/name", &book_ids_},
      {"books", "", "//book[author/name = \"", "\"]/title", &authors_},
      {"books", "", "//author[name = \"", "\"]/name", &authors_},
      {"books", "", "//book[publisher/location = \"", "\"]/title",
       &locations_},
      {"books", "ta", "//title[author/name = \"", "\"]", &authors_},
      {"books", "ta", "//author[name = \"", "\"]/name", &authors_},
      {"auctions", "", "//auction[itemref = \"", "\"]/bidder/price",
       &item_ids_},
      {"auctions", "", "//auction[bidder/personref = \"", "\"]/itemref",
       &person_ids_},
      {"auctions", "", "//item[@id = \"", "\"]/name", &item_ids_},
      {"auctions", "", "//person[@id = \"", "\"]/city", &person_ids_},
      {"auctions", "", "//person[city = \"", "\"]/name", &cities_},
      {"auctions", "", "//item[description = \"", "\"]/name",
       &descriptions_},
      {"auctions", "", "//item[quantity > ", "]/name", &quantities_},
      {"auctions", "", "//bidder[price > ", "]/personref", &prices_},
      {"auctions", "bids", "//auction[itemref = \"", "\"]//price",
       &item_ids_},
      {"auctions", "bids", "//bidder[price > ", "]/price", &prices_},
      {"auctions", "bids", "//auction[bidder/price > ", "]/itemref",
       &prices_},
  };

  // --- Set-up: catalog + server + connections, several times ------------
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    stack_.Reset();
    const int64_t t0 = NowNs();
    stack_.catalog = std::make_unique<Catalog>(vpbn::query::ExecOptions{});
    vpbn::Status s = stack_.catalog->AddDocumentXml("books", books_xml);
    if (s.ok()) {
      s = stack_.catalog->AddView("books", "ta", "title { author { name } }");
    }
    if (s.ok()) s = stack_.catalog->AddDocumentXml("auctions", auctions_xml);
    if (s.ok()) {
      s = stack_.catalog->AddView("auctions", "bids",
                                  "auction { itemref bidder { price } }");
    }
    if (s.ok()) {
      stack_.server = std::make_unique<Server>(stack_.catalog.get(),
                                               vpbn::server::ServerOptions{});
      s = stack_.server->Start();
    }
    for (int c = 0; s.ok() && c < num_clients; ++c) {
      stack_.clients.push_back(std::make_unique<LineClient>());
      if (!stack_.clients.back()->Connect(stack_.server->port())) {
        s = vpbn::Status::Internal("connect failed");
      }
    }
    if (!s.ok()) {
      report.Fail("serve: set-up: " + s.ToString());
      return false;
    }
    setup_s.push_back(MsSince(t0) / 1000);
  }
  if (primary_) report.Set("setup_s", Median(setup_s), "s");

  // --- Correctness gate: a Zipf sample of lines against the oracle -------
  std::map<std::string, vpbn::virt::Materialized> views;
  for (const char* doc : {"books", "auctions"}) {
    for (const auto& [name, view] : stack_.catalog->Find(doc)->views) {
      auto m = vpbn::virt::Materialize(*view.vdoc);
      if (!m.ok()) {
        report.Fail("serve: materialize " + name);
        return false;
      }
      views.emplace(name, std::move(*m));
    }
  }
  RequestStream gate(&templates_, run_->StreamSeed("serve.gate"),
                     kReloadEvery);
  for (int draws = 0; expected_.size() < kGateLines && draws < 100000;
       ++draws) {
    Request r = gate.Next();
    if (r.tmpl == nullptr || expected_.count(r.line) != 0) continue;
    auto want = r.tmpl->view.empty()
                    ? NavStoredValues(
                          r.tmpl->doc == "books" ? books_ : auctions_, r.path)
                    : NavViewValues(views.at(r.tmpl->view), r.path);
    std::string response;
    report.Attempt();
    if (!want.ok() || !stack_.clients[0]->Call(r.line, &response)) {
      report.Fail("serve: gate line failed: " + r.line);
      continue;
    }
    std::string tail =
        "\"values\":" + vpbn::server::JsonStringArray(*want) + "}";
    if (!IsOk(response) || !response.ends_with(tail)) {
      report.Fail("serve: answer differs from the oracle: " + r.line);
    }
    expected_.emplace(r.line, std::move(tail));
  }

  logs_.resize(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    logs_[c].stream = std::make_unique<RequestStream>(
        &templates_, run_->StreamSeed("serve.client" + std::to_string(c)),
        kReloadEvery * c / num_clients);
  }
  return true;
}

void ServePhase::Measure(double seconds) {
  query_ms_.StartRound();
  reload_ms_.StartRound();
  qps_.StartRound();
  if (!run_->traced) {
    Throughput warmup;
    Slice(SliceKind::kWarmup, kWarmupShare * seconds, &warmup);
    Slice(SliceKind::kSolo, (1 - kWarmupShare) * seconds, &solo_);
    return;
  }
  Slice(SliceKind::kTraced, seconds / 3, &traced_);
  Slice(SliceKind::kSolo, seconds / 3, &solo_);
  Slice(SliceKind::kConcurrent, seconds / 3, &concurrent_);
}

void ServePhase::Slice(SliceKind kind, double seconds, Throughput* totals) {
  const int clients = kind == SliceKind::kConcurrent ? run_->threads : 1;
  if (clients > 1) run_->Widen();
  run_->tracer.set_enabled(kind == SliceKind::kTraced);
  auto sent = [&] {
    uint64_t n = 0;
    for (int c = 0; c < clients; ++c) n += logs_[c].requests;
    return n;
  };
  const uint64_t before = sent();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(
        [this, c, deadline, kind] { ClientLoop(c, deadline, kind); });
  }
  for (auto& t : threads) t.join();
  const double wall_s = MsSince(start) / 1000;
  run_->tracer.set_enabled(false);
  if (clients > 1) run_->Narrow();

  const uint64_t requests = sent() - before;
  totals->requests += requests;
  totals->wall_s += wall_s;
  if (kind == SliceKind::kSolo) qps_.Add(requests / wall_s);
}

void ServePhase::ClientLoop(int c, int64_t deadline, SliceKind kind) {
  const bool traced = kind == SliceKind::kTraced;
  Report& report = run_->report;
  Tracer* tracer = &run_->tracer;
  Server& server = *stack_.server;
  ClientLog& log = logs_[c];
  LineClient& client = *stack_.clients[c];
  std::string response;
  do {
    const uint64_t request =
        (static_cast<uint64_t>(c) << 40) | ++log.requests;
    Request r = log.stream->Next();
    report.Attempt();
    ScopedSpan root(tracer, "bench.request", request);
    if (r.tmpl == nullptr) {
      if (traced) {
        ScopedSpan span(tracer, "server.reload", request, root.id());
        response = server.HandleLine(r.line);
        log.reload_direct_ms.push_back(span.Stop());
        log.windows.push_back({0, 0});
      } else {
        const int64_t t0 = NowNs();
        if (!client.Call(r.line, &response)) response.clear();
        if (kind == SliceKind::kSolo) reload_ms_.Add(MsSince(t0));
      }
      if (!IsOk(response)) report.Fail("serve: reload failed");
      continue;
    }

    bool ok = true;
    if (traced) {
      // Direct call (hit or miss as the mix decides), then the same line
      // over TCP and directly again, both now hits: the wire round trip
      // minus the direct hit is the transport cost.
      ScopedSpan first(tracer, "server.HandleLine", request, root.id());
      const std::string direct = server.HandleLine(r.line);
      const double first_ms = first.Stop();
      const bool hit = IsCached(direct);
      ++log.lookups;
      log.hits += hit ? 1 : 0;
      (hit ? log.hit_ms : log.miss_ms).push_back(first_ms);
      log.response_bytes += static_cast<double>(direct.size());
      for (auto& w : log.windows) {
        if (w.first < kReloadWindow) {
          ++w.first;
          w.second += hit ? 0 : 1;
        }
      }
      ScopedSpan wire(tracer, "server.tcp", request, root.id());
      ok = client.Call(r.line, &response);
      const double wire_ms = wire.Stop();
      ScopedSpan again(tracer, "server.HandleLine", request, root.id());
      const std::string repeat = server.HandleLine(r.line);
      const double again_ms = again.Stop();
      if (IsCached(response) && IsCached(repeat)) {
        log.transport_ms.push_back(wire_ms - again_ms);
      }
      ok = ok && IsOk(direct);
    } else {
      const int64_t t0 = NowNs();
      ok = client.Call(r.line, &response);
      const double ms = MsSince(t0);
      if (kind == SliceKind::kSolo) query_ms_.Add(ms);
      if (kind == SliceKind::kConcurrent) log.concurrent_ms.push_back(ms);
    }
    if (!ok || !IsOk(response)) {
      report.Fail("serve: request failed: " + r.line);
      continue;
    }
    auto it = expected_.find(r.line);
    if (it != expected_.end() && !response.ends_with(it->second)) {
      report.Fail("serve: answer differs from the oracle: " + r.line);
    }
  } while (NowNs() < deadline);
}

uint64_t ServePhase::AdmissionSlice() {
  vpbn::server::ServerOptions options;
  options.max_inflight = 1;
  Server server(stack_.catalog.get(), options);
  if (!server.Start().ok()) {
    run_->report.Fail("serve: admission server did not start");
    return 0;
  }
  run_->Widen();
  std::vector<std::thread> threads;
  for (int c = 0; c < run_->threads; ++c) {
    threads.emplace_back([this, c, &server] {
      LineClient client;
      if (!client.Connect(server.port())) {
        run_->report.Fail("serve: admission connect failed");
        return;
      }
      RequestStream stream(
          &templates_,
          run_->StreamSeed("serve.admission" + std::to_string(c)),
          kReloadEvery);
      std::string response;
      for (int i = 0; i < kAdmissionRequests; ++i) {
        const Request r = stream.Next();
        run_->report.Attempt();
        if (!client.Call(r.line, &response) ||
            !(IsOk(response) || IsOverload(response))) {
          run_->report.Fail("serve: admission request failed: " + r.line);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  run_->Narrow();
  return server.metrics().overload.load();
}

void ServePhase::Finish() {
  Report& report = run_->report;
  ClientLog all;
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (const ClientLog& log : logs_) {
    append(&all.hit_ms, log.hit_ms);
    append(&all.miss_ms, log.miss_ms);
    append(&all.transport_ms, log.transport_ms);
    append(&all.reload_direct_ms, log.reload_direct_ms);
    append(&all.concurrent_ms, log.concurrent_ms);
    for (const auto& w : log.windows) {
      if (w.first == kReloadWindow) {
        all.misses_after_reload.push_back(static_cast<double>(w.second));
      }
    }
    all.requests += log.requests;
    all.hits += log.hits;
    all.lookups += log.lookups;
    all.response_bytes += log.response_bytes;
  }
  Server& server = *stack_.server;
  std::vector<double> latencies = query_ms_.All();
  std::sort(latencies.begin(), latencies.end());
  const Summary query = Summarize(latencies);
  report.Detail(
      "serve",
      "{\"primary\":" + std::string(primary_ ? "true" : "false") +
          ",\"books_nodes\":" + std::to_string(books_.num_nodes()) +
          ",\"auctions_nodes\":" + std::to_string(auctions_.num_nodes()) +
          ",\"gated_lines\":" + std::to_string(expected_.size()) +
          ",\"requests\":" + std::to_string(all.requests) +
          ",\"reloads\":" +
          std::to_string(reload_ms_.count() + all.reload_direct_ms.size()) +
          ",\"qps_by_round\":" + JsonNumberList(qps_.RoundMedians()) +
          ",\"p50_ms_by_round\":" + JsonNumberList(query_ms_.RoundMedians()) +
          ",\"query_n\":" + std::to_string(query.n) +
          ",\"query_pooled_p99_ms\":" +
          std::to_string(SortedQuantile(latencies, 0.99)) +
          ",\"query_p50_ms\":" + std::to_string(query.p50) +
          ",\"query_tail_pct\":" + std::to_string(query.tail_pct) +
          ",\"query_tail_ms\":" + std::to_string(query.tail) +
          ",\"result_cache\":{\"hits\":" +
          std::to_string(server.result_cache().hits()) + ",\"misses\":" +
          std::to_string(server.result_cache().misses()) + "}}");
  if (!run_->traced) {
    stack_.Reset();
    if (latencies.size() < kTailSamples) {
      report.Fail("serve: too few requests for a p99");
    }
    // A serve round holds too few requests for its median to be steady, so
    // the latencies are pooled and the throughputs' median taken; the busy
    // plateau covers most of the run and sets both.
    report.Set("qps", Median(qps_.All()), "1/s");
    report.Set("p50_ms", query.p50, "ms");
    report.Set("p99_ms", SortedQuantile(latencies, 0.99), "ms");
    report.Set("reload_p50_ms", Median(reload_ms_.All()), "ms");
    return;
  }
  const double overloads = static_cast<double>(AdmissionSlice());
  stack_.Reset();
  report.Set("server.concurrency_speedup",
             solo_.qps() > 0 ? concurrent_.qps() / solo_.qps() : 0, "ratio");
  std::vector<double> miss_sorted = all.miss_ms;
  std::sort(miss_sorted.begin(), miss_sorted.end());
  std::vector<double> concurrent_sorted = all.concurrent_ms;
  std::sort(concurrent_sorted.begin(), concurrent_sorted.end());
  report.Set("server.concurrent_p50_ms",
             SortedQuantile(concurrent_sorted, 0.5), "ms");
  report.Set("server.concurrent_p99_ms",
             SortedQuantile(concurrent_sorted, 0.99), "ms");
  report.Set("server.hit_p50_ms", Median(all.hit_ms), "ms");
  report.Set("server.miss_p50_ms", Median(all.miss_ms), "ms");
  report.Set("server.miss_p99_ms", SortedQuantile(miss_sorted, 0.99), "ms");
  report.Set("server.transport_p50_ms", Median(all.transport_ms), "ms");
  report.Set("server.response_bytes_mean",
             all.lookups == 0 ? 0 : all.response_bytes / all.lookups,
             "bytes");
  report.Set("server.result_cache.hit_ratio",
             all.lookups == 0 ? 0
                              : static_cast<double>(all.hits) / all.lookups,
             "ratio");
  report.Set("server.overload_count", overloads, "count");
  report.Set("catalog.reload_ms", Median(all.reload_direct_ms), "ms");
  double mean_misses = 0;
  for (double m : all.misses_after_reload) mean_misses += m;
  if (!all.misses_after_reload.empty()) {
    mean_misses /= static_cast<double>(all.misses_after_reload.size());
  }
  report.Set("catalog.misses_after_reload", mean_misses, "count");
}

}  // namespace

std::unique_ptr<Phase> MakeServe(Run* run, bool primary) {
  return std::make_unique<ServePhase>(run, primary);
}

}  // namespace perfbench

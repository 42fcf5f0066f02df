/// \file server_test.cc
/// \brief The vpbnd server: the transport-free HandleLine dispatch path
/// (QUERY/LIST/RELOAD/STATS/SHUTDOWN, result-cache behaviour, admission
/// shedding), end-to-end TCP exchanges including the request-line cap, and
/// the reload-under-load stress that proves epoch-keyed caching never
/// serves a cross-epoch result.

#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "server/catalog.h"

namespace vpbn::server {
namespace {

constexpr const char* kBooksV1 =
    "<catalog><book><title>A</title></book>"
    "<book><title>B</title></book></catalog>";
constexpr const char* kBooksV2 =
    "<catalog><book><title>A</title></book>"
    "<book><title>B</title></book>"
    "<book><title>C</title></book></catalog>";
constexpr const char* kAuctions =
    "<site><auction><price>10</price></auction>"
    "<auction><price>20</price></auction></site>";

/// Pulls the integer after `"<key>":` out of a one-line JSON response.
/// (The responses are machine-assembled with a fixed field order, so a
/// substring scan is reliable enough for tests.)
int64_t JsonInt(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + needle.size());
}

bool JsonBool(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  return pos != std::string::npos &&
         json.compare(pos + needle.size(), 4, "true") == 0;
}

struct ServerFixture {
  Catalog catalog;
  ServerOptions options;
  std::unique_ptr<Server> server;

  explicit ServerFixture(ServerOptions opts = {}) : options(opts) {
    EXPECT_TRUE(catalog.AddDocumentXml("books", kBooksV1).ok());
    EXPECT_TRUE(catalog.AddDocumentXml("auctions", kAuctions).ok());
    EXPECT_TRUE(catalog.AddView("books", "titles", "book { title }").ok());
    server = std::make_unique<Server>(&catalog, options);
  }
};

TEST(ServerTest, QueryAnswersWithEpochCountAndValues) {
  ServerFixture f;
  std::string r = f.server->HandleLine("QUERY books //book/title");
  EXPECT_EQ(r.rfind("{\"code\":0", 0), 0u) << r;
  EXPECT_EQ(JsonInt(r, "epoch"), 1);
  EXPECT_EQ(JsonInt(r, "count"), 2);
  EXPECT_FALSE(JsonBool(r, "cached"));
  EXPECT_NE(r.find("\"values\":[\"<title>A</title>\",\"<title>B</title>\"]"), std::string::npos) << r;
  EXPECT_EQ(r.find('\n'), std::string::npos);  // one line, no newline

  // A second document resolves independently.
  std::string a = f.server->HandleLine("QUERY auctions //auction/price");
  EXPECT_EQ(JsonInt(a, "count"), 2);

  // Views dispatch to the view engine.
  std::string v = f.server->HandleLine("QUERY books/titles //title");
  EXPECT_EQ(v.rfind("{\"code\":0", 0), 0u) << v;
  EXPECT_EQ(JsonInt(v, "count"), 2);
  EXPECT_NE(v.find("\"view\":\"titles\""), std::string::npos) << v;
}

TEST(ServerTest, RepeatQueryHitsTheResultCache) {
  ServerFixture f;
  std::string miss = f.server->HandleLine("QUERY books //book/title");
  EXPECT_FALSE(JsonBool(miss, "cached"));
  std::string hit = f.server->HandleLine("QUERY books //book/title");
  EXPECT_TRUE(JsonBool(hit, "cached"));
  EXPECT_EQ(JsonInt(hit, "count"), 2);
  EXPECT_NE(hit.find("\"values\":[\"<title>A</title>\",\"<title>B</title>\"]"), std::string::npos);
  EXPECT_EQ(f.server->result_cache().hits(), 1u);

  // --stats shares the entry, but one filled without stats holds none to
  // replay: the first --stats line runs again and refreshes the entry, the
  // next one hits it.
  std::string shaped = f.server->HandleLine("QUERY books --stats //book/title");
  EXPECT_FALSE(JsonBool(shaped, "cached"));
  std::string shaped_hit =
      f.server->HandleLine("QUERY books --stats //book/title");
  EXPECT_TRUE(JsonBool(shaped_hit, "cached"));
  EXPECT_EQ(f.server->result_cache().hits(), 2u);
}

/// The `stats` object of a response, from its opening brace to the end of
/// the line's outer object.
std::string StatsObject(const std::string& json) {
  size_t pos = json.find("\"stats\":{");
  EXPECT_NE(pos, std::string::npos) << json;
  if (pos == std::string::npos) return "";
  return json.substr(pos + 8, json.size() - 1 - (pos + 8));
}

TEST(ServerTest, StatsHitReplaysTheCachedExecutionsStats) {
  ServerFixture f;
  std::string miss = f.server->HandleLine("QUERY books --stats //book/title");
  std::string hit = f.server->HandleLine("QUERY books --stats //book/title");
  EXPECT_FALSE(JsonBool(miss, "cached"));
  EXPECT_TRUE(JsonBool(hit, "cached"));
  EXPECT_FALSE(StatsObject(miss).empty());
  EXPECT_EQ(StatsObject(hit), StatsObject(miss));
  // A plain line keeps the stored stats for the next --stats hit.
  std::string plain = f.server->HandleLine("QUERY books //book/title");
  EXPECT_TRUE(JsonBool(plain, "cached"));
  EXPECT_EQ(plain.find("\"stats\":"), std::string::npos) << plain;
  EXPECT_EQ(StatsObject(f.server->HandleLine(
                "QUERY books --stats //book/title")),
            StatsObject(miss));
}

TEST(ServerTest, StatsAfterAPlainLineReturnsStats) {
  ServerFixture f;
  std::string plain = f.server->HandleLine("QUERY auctions //auction/price");
  EXPECT_EQ(plain.find("\"stats\":"), std::string::npos) << plain;
  std::string r =
      f.server->HandleLine("QUERY auctions --stats //auction/price");
  size_t stats_pos = r.find("\"stats\":{");
  ASSERT_NE(stats_pos, std::string::npos) << r;
  EXPECT_NE(r.find("\"result_nodes\":2", stats_pos), std::string::npos) << r;
}

TEST(ServerTest, StatsOptionAttachesExecStats) {
  ServerFixture f;
  std::string r = f.server->HandleLine("QUERY books --stats //book/title");
  EXPECT_EQ(r.rfind("{\"code\":0", 0), 0u) << r;
  size_t stats_pos = r.find("\"stats\":{");
  ASSERT_NE(stats_pos, std::string::npos) << r;
  // The embedded object is the single ExecStats serializer's output.
  EXPECT_NE(r.find("\"wall_ms\":", stats_pos), std::string::npos);
  EXPECT_NE(r.find("\"result_nodes\":", stats_pos), std::string::npos);
  EXPECT_NE(r.find("\"plan\":", stats_pos), std::string::npos);
}

/// The string after `"<key>":"` at or after \p from, up to the next quote.
std::string JsonStr(const std::string& json, const std::string& key,
                    size_t from = 0) {
  std::string needle = "\"" + key + "\":\"";
  size_t pos = json.find(needle, from);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return "";
  pos += needle.size();
  return json.substr(pos, json.find('"', pos) - pos);
}

// The response's plan field names the plan that executed: bulk for a
// path in the bulk fragment, however selective its value predicate, and
// indexed for one outside it (a positional predicate).
TEST(ServerTest, PlanFieldIsThePlanThatRan) {
  std::string xml = "<r>";
  for (int i = 0; i < 100; ++i) {
    xml += "<p><v>k" + std::to_string(i) + "</v>";
    for (int c = 0; c < 100; ++c) xml += "<c/>";
    xml += "</p>";
  }
  xml += "</r>";
  Catalog catalog;
  ASSERT_TRUE(catalog.AddDocumentXml("d", xml).ok());
  Server server(&catalog, ServerOptions{});

  struct Case {
    const char* path;
    const char* plan;
  };
  for (const Case& c : {Case{"//p/c[1]", "indexed"},
                        Case{"//p[v = \"k7\"]/c", "bulk"}}) {
    SCOPED_TRACE(c.path);
    std::string r =
        server.HandleLine(std::string("QUERY d --stats ") + c.path);
    ASSERT_EQ(r.rfind("{\"code\":0", 0), 0u) << r;
    EXPECT_EQ(JsonInt(r, "count"), 100);
    size_t stats_pos = r.find("\"stats\":{");
    ASSERT_NE(stats_pos, std::string::npos) << r;
    EXPECT_EQ(JsonStr(r, "plan"), c.plan) << r;
    EXPECT_EQ(JsonStr(r, "plan"), JsonStr(r, "plan", stats_pos)) << r;
  }
}

TEST(ServerTest, ErrorTaxonomyOnTheWire) {
  ServerFixture f;
  // 1: malformed request line and malformed path.
  EXPECT_EQ(f.server->HandleLine("FROB").rfind("{\"code\":1", 0), 0u);
  EXPECT_EQ(f.server->HandleLine("QUERY books //book[").rfind("{\"code\":1", 0),
            0u);
  // 2: unknown document / unknown view.
  EXPECT_EQ(f.server->HandleLine("QUERY nope //x").rfind("{\"code\":2", 0),
            0u);
  EXPECT_EQ(f.server->HandleLine("QUERY books/nope //x").rfind("{\"code\":2", 0),
            0u);
  EXPECT_EQ(f.server->HandleLine("RELOAD nope").rfind("{\"code\":2", 0), 0u);

  EXPECT_EQ(f.server->metrics().parse_errors.load(), 2u);
  EXPECT_EQ(f.server->metrics().not_found.load(), 3u);
  EXPECT_EQ(f.server->metrics().requests.load(), 5u);
  EXPECT_EQ(f.server->metrics().ok.load(), 0u);
}

TEST(ServerTest, RateLimitShedsWithOverloadCode) {
  ServerOptions opts;
  opts.rate_limit = 0.001;  // ~one token per 1000s: only the burst admits
  opts.burst = 2;
  ServerFixture f(opts);

  EXPECT_EQ(f.server->HandleLine("QUERY books //book").rfind("{\"code\":0", 0),
            0u);
  EXPECT_EQ(f.server->HandleLine("QUERY books //book").rfind("{\"code\":0", 0),
            0u);
  std::string shed = f.server->HandleLine("QUERY books //book");
  EXPECT_EQ(shed.rfind("{\"code\":3,\"error\":\"overload\"", 0), 0u) << shed;
  EXPECT_EQ(f.server->metrics().overload.load(), 1u);

  // Sheds are QUERY-only: control verbs stay available under overload.
  EXPECT_EQ(f.server->HandleLine("STATS").rfind("{\"code\":0", 0), 0u);
  EXPECT_EQ(f.server->HandleLine("LIST").rfind("{\"code\":0", 0), 0u);
}

TEST(ServerTest, ListAndStatsReportTheCatalogAndCounters) {
  ServerFixture f;
  f.server->HandleLine("QUERY books //book/title");
  f.server->HandleLine("QUERY books //book/title");

  std::string list = f.server->HandleLine("LIST");
  EXPECT_EQ(list.rfind("{\"code\":0", 0), 0u) << list;
  EXPECT_NE(list.find("\"name\":\"auctions\""), std::string::npos);
  EXPECT_NE(list.find("\"name\":\"books\""), std::string::npos);
  EXPECT_NE(list.find("\"views\":[\"titles\"]"), std::string::npos) << list;

  std::string stats = f.server->HandleLine("STATS");
  EXPECT_EQ(stats.rfind("{\"code\":0", 0), 0u) << stats;
  EXPECT_EQ(JsonInt(stats, "documents"), 2);
  EXPECT_EQ(JsonInt(stats, "queries"), 2);
  EXPECT_EQ(JsonInt(stats, "hits"), 1);    // result_cache.hits
  EXPECT_EQ(JsonInt(stats, "misses"), 1);  // result_cache.misses
  EXPECT_NE(stats.find("\"admission\":{"), std::string::npos);
  EXPECT_NE(stats.find("\"plan_cache\":{"), std::string::npos);
  EXPECT_NE(stats.find("\"uptime_ms\":"), std::string::npos);
}

TEST(ServerTest, ReloadBumpsEpochAndNeverServesCrossEpochResults) {
  ServerFixture f;
  std::string before = f.server->HandleLine("QUERY books //book/title");
  EXPECT_EQ(JsonInt(before, "epoch"), 1);
  EXPECT_EQ(JsonInt(before, "count"), 2);
  EXPECT_TRUE(JsonBool(f.server->HandleLine("QUERY books //book/title"),
                       "cached"));

  // Change the document out from under the server (the XML-text analogue
  // of editing the file RELOAD would re-read).
  ASSERT_TRUE(f.catalog.ReplaceDocumentXml("books", kBooksV2).ok());

  std::string after = f.server->HandleLine("QUERY books //book/title");
  EXPECT_EQ(JsonInt(after, "epoch"), 2);
  EXPECT_EQ(JsonInt(after, "count"), 3);       // new data, not the cached 2
  EXPECT_FALSE(JsonBool(after, "cached"));     // epoch key -> forced miss
  EXPECT_NE(after.find("\"values\":[\"<title>A</title>\",\"<title>B</title>\",\"<title>C</title>\"]"), std::string::npos)
      << after;

  // The RELOAD verb itself: rebuilds from source at epoch+1.
  std::string reload = f.server->HandleLine("RELOAD books");
  EXPECT_EQ(reload.rfind("{\"code\":0", 0), 0u) << reload;
  EXPECT_EQ(JsonInt(reload, "epoch"), 3);
  EXPECT_EQ(f.server->metrics().reloads.load(), 1u);
  EXPECT_FALSE(JsonBool(f.server->HandleLine("QUERY books //book/title"),
                        "cached"));
}

TEST(ServerTest, ShutdownVerbRequestsShutdown) {
  ServerFixture f;
  EXPECT_FALSE(f.server->shutdown_requested());
  EXPECT_FALSE(
      f.server->WaitForShutdownRequest(std::chrono::milliseconds(1)));
  std::string r = f.server->HandleLine("SHUTDOWN");
  EXPECT_EQ(r.rfind("{\"code\":0", 0), 0u) << r;
  EXPECT_TRUE(f.server->shutdown_requested());
  EXPECT_TRUE(
      f.server->WaitForShutdownRequest(std::chrono::milliseconds(1)));
}

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// One round trip over a real socket: connect, write a line, read a line.
std::string RoundTrip(int port, const std::string& line) {
  int fd = Connect(port);
  std::string out = line + "\n";
  EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));
  std::string response;
  char buf[4096];
  while (response.find('\n') == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (!response.empty() && response.back() == '\n') response.pop_back();
  return response;
}

TEST(ServerTest, ServesQueriesOverTcp) {
  ServerOptions opts;
  opts.num_workers = 2;
  ServerFixture f(opts);
  ASSERT_TRUE(f.server->Start().ok());
  ASSERT_GT(f.server->port(), 0);

  std::string r = RoundTrip(f.server->port(), "QUERY books //book/title");
  EXPECT_EQ(r.rfind("{\"code\":0", 0), 0u) << r;
  EXPECT_EQ(JsonInt(r, "count"), 2);

  // Two concurrent connections are served by the worker pool.
  std::string a, b;
  std::thread ta([&] { a = RoundTrip(f.server->port(), "LIST"); });
  std::thread tb([&] { b = RoundTrip(f.server->port(), "STATS"); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.rfind("{\"code\":0", 0), 0u) << a;
  EXPECT_EQ(b.rfind("{\"code\":0", 0), 0u) << b;

  f.server->Stop();
}

// A request line that never ends must not grow the connection buffer
// without bound: one byte past the cap draws a single parse error, then the
// server hangs up. Other connections are unaffected.
TEST(ServerTest, OverlongLineIsRejectedAndClosed) {
  ServerOptions opts;
  opts.num_workers = 2;
  ServerFixture f(opts);
  ASSERT_TRUE(f.server->Start().ok());

  int fd = Connect(f.server->port());
  const std::string line(Server::kMaxLineBytes + 1, 'x');  // no newline
  for (size_t sent = 0; sent < line.size();) {
    ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response.rfind("{\"code\":1,\"error\":\"parse\"", 0), 0u)
      << response.substr(0, 200);
  EXPECT_EQ(std::count(response.begin(), response.end(), '\n'), 1)
      << response.substr(0, 200);
  EXPECT_EQ(f.server->metrics().parse_errors.load(), 1u);

  std::string r = RoundTrip(f.server->port(), "QUERY books //book/title");
  EXPECT_EQ(r.rfind("{\"code\":0", 0), 0u) << r;
  EXPECT_EQ(JsonInt(r, "count"), 2);

  f.server->Stop();
}

/// The reload-under-load stress (the TSan build runs this too): readers
/// hammer QUERY on the stored document and a view while a writer keeps
/// republishing alternating document contents. Epoch parity determines the
/// only correct answer — epoch 1,3,5,... is kBooksV1 (2 titles), epoch
/// 2,4,6,... is kBooksV2 (3 titles) — so any cross-epoch result-cache hit
/// or torn generation shows up as a count/epoch mismatch.
TEST(ServerTest, ReloadUnderLoadServesConsistentEpochs) {
  ServerFixture f;
  constexpr int kReaders = 4;
  constexpr int kIterations = 150;
  constexpr int kReloads = 25;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> served{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const char* line = (t % 2 == 0) ? "QUERY books //book/title"
                                      : "QUERY books/titles //title";
      for (int i = 0; i < kIterations && !done.load(); ++i) {
        std::string r = f.server->HandleLine(line);
        if (r.rfind("{\"code\":0", 0) != 0) {
          mismatches.fetch_add(1);
          continue;
        }
        int64_t epoch = JsonInt(r, "epoch");
        int64_t count = JsonInt(r, "count");
        int64_t expected = (epoch % 2 == 1) ? 2 : 3;
        if (count != expected) mismatches.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < kReloads; ++i) {
      const char* xml = (i % 2 == 0) ? kBooksV2 : kBooksV1;  // epoch i+2
      auto epoch = f.catalog.ReplaceDocumentXml("books", xml);
      ASSERT_TRUE(epoch.ok()) << epoch.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  writer.join();
  done.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  // The cache saw traffic; with 26 epochs and hundreds of requests the
  // steady phases repeat keys, so some hits are expected — and every hit
  // was epoch-consistent (asserted above).
  EXPECT_GT(f.server->result_cache().hits() +
                f.server->result_cache().misses(),
            0u);
}

}  // namespace
}  // namespace vpbn::server

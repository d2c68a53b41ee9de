// End-to-end tests for the stsyn serve daemon: real sockets against an
// in-process Server, exercising the result cache, the bounded queue, the
// per-request deadline, and the control verbs.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "casestudies/token_ring.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"
#include "serve/cache.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"

namespace {

using namespace stsyn;

/// A blocking one-request client: connect, send the frame, read the
/// response, close.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send(const std::string& request) { serve::writeFrame(fd_, request); }

  [[nodiscard]] std::string receive() {
    std::string payload;
    EXPECT_TRUE(serve::readFrame(fd_, payload));
    return payload;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::string roundTrip(int port, const std::string& request) {
  Client c(port);
  EXPECT_TRUE(c.connected());
  c.send(request);
  return c.receive();
}

obs::JsonValue parsed(const std::string& payload) {
  std::string error;
  const auto doc = obs::parseJson(payload, &error);
  EXPECT_TRUE(doc.has_value()) << error << "\npayload: " << payload;
  return doc.value_or(obs::JsonValue{});
}

/// tokenRing() names its protocol "token-ring", which the .stsyn grammar
/// cannot re-read; rename before printing so the text parses.
std::string tokenRingSource(int processes, int domain) {
  protocol::Protocol p = casestudies::tokenRing(processes, domain);
  p.name = "token_ring_serve";
  return lang::printProtocol(p);
}

std::string synthesizeRequest(const std::string& source,
                              std::uint64_t timeoutMs = 0) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.beginObject();
  w.field("verb", "synthesize");
  w.field("protocol", source);
  if (timeoutMs > 0) w.field("timeout_ms", timeoutMs);
  w.endObject();
  return out.str();
}

struct RunningServer {
  serve::Server server;

  explicit RunningServer(serve::ServeOptions options) : server(options) {
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;
  }
  ~RunningServer() { server.stop(); }

  [[nodiscard]] int port() const { return server.port(); }
};

serve::ServeOptions smallServer() {
  serve::ServeOptions o;
  o.workers = 2;
  o.queueCapacity = 4;
  o.cacheCapacity = 8;
  return o;
}

TEST(ResultCache, LruEvictionAndCollisionSafety) {
  serve::ResultCache cache(2);
  cache.insert("a", "1");
  cache.insert("b", "2");
  EXPECT_EQ(cache.lookup("a"), "1");  // refreshes a
  cache.insert("c", "3");             // evicts b (LRU)
  EXPECT_EQ(cache.lookup("a"), "1");
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_EQ(cache.lookup("c"), "3");
  cache.insert("a", "updated");
  EXPECT_EQ(cache.lookup("a"), "updated");
  EXPECT_EQ(cache.size(), 2u);

  serve::ResultCache disabled(0);
  disabled.insert("a", "1");
  EXPECT_FALSE(disabled.lookup("a").has_value());
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(Serve, PingStatsAndInvalidRequests) {
  RunningServer rs(smallServer());

  auto pong = parsed(roundTrip(rs.port(), R"({"verb":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->boolean);
  EXPECT_EQ(pong.find("verb")->str, "pong");

  auto stats = parsed(roundTrip(rs.port(), R"({"verb":"stats"})"));
  ASSERT_NE(stats.find("counters"), nullptr);
  const auto* counters = stats.find("counters");
  EXPECT_EQ(counters->find("requests")->number, 2);  // ping + this stats
  EXPECT_EQ(counters->find("workers")->number, 2);

  auto bad = parsed(roundTrip(rs.port(), "this is not json"));
  EXPECT_FALSE(bad.find("ok")->boolean);
  EXPECT_EQ(bad.find("kind")->str, "invalid_request");

  auto unknownVerb = parsed(roundTrip(rs.port(), R"({"verb":"dance"})"));
  EXPECT_EQ(unknownVerb.find("kind")->str, "invalid_request");

  auto noProto = parsed(roundTrip(rs.port(), R"({"verb":"synthesize"})"));
  EXPECT_EQ(noProto.find("kind")->str, "invalid_request");

  auto badOption = parsed(roundTrip(
      rs.port(),
      R"({"verb":"synthesize","protocol":"x","options":{"portfolio":"2x"}})"));
  EXPECT_EQ(badOption.find("kind")->str, "invalid_request");

  // Unknown keys are named in the error, including the removed
  // image_workers, image_policy and orbit_prune, so old clients learn why
  // they were refused.
  for (const std::string key :
       {"threads", "image_workers", "image_policy", "orbit_prune"}) {
    auto unknownOption = parsed(roundTrip(
        rs.port(), R"({"verb":"synthesize","protocol":"x","options":{")" +
                       key + R"(":2}})"));
    EXPECT_EQ(unknownOption.find("kind")->str, "invalid_request");
    EXPECT_EQ(unknownOption.find("error")->str,
              "unknown option '" + key + "'");
  }
  // The removed var_order key, with a value it used to accept.
  auto varOrder = parsed(roundTrip(rs.port(),
                                  R"({"verb":"synthesize","protocol":"x",)"
                                  R"("options":{"var_order":"static"}})"));
  EXPECT_EQ(varOrder.find("kind")->str, "invalid_request");
  EXPECT_EQ(varOrder.find("error")->str, "unknown option 'var_order'");

  auto parseError = parsed(roundTrip(
      rs.port(), R"({"verb":"synthesize","protocol":"protocol oops"})"));
  EXPECT_EQ(parseError.find("kind")->str, "parse_error");

  // Since v2, a parse_error counts as invalid too: every request is
  // exactly one of synthesize / lint / inline / invalid, so the
  // reconciliation invariant `requests == synthesize + lint + inline +
  // invalid` holds with no leakage category.
  EXPECT_EQ(rs.server.counters().invalid.load(), 10u);
}

TEST(Serve, CacheHitReplaysByteIdenticalResult) {
  RunningServer rs(smallServer());
  const std::string source = tokenRingSource(3, 2);

  const std::string first =
      roundTrip(rs.port(), synthesizeRequest(source));
  auto firstDoc = parsed(first);
  ASSERT_TRUE(firstDoc.find("ok")->boolean) << first;
  EXPECT_FALSE(firstDoc.find("cache_hit")->boolean);
  const auto* result = firstDoc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("exit_code")->number, 0);
  EXPECT_TRUE(result->find("success")->boolean);
  EXPECT_TRUE(result->find("verified")->boolean);
  EXPECT_FALSE(result->find("program")->str.empty());
  ASSERT_NE(result->find("stats"), nullptr);

  // The same protocol, textually mangled: extra comments, blank lines and
  // indentation. Canonicalization must fold it onto the same cache entry.
  std::string mangled = "# a comment\n\n";
  for (const char c : source) {
    mangled += c;
    if (c == '\n') mangled += "  \n";
  }
  const std::string second =
      roundTrip(rs.port(), synthesizeRequest(mangled));
  auto secondDoc = parsed(second);
  ASSERT_TRUE(secondDoc.find("ok")->boolean) << second;
  EXPECT_TRUE(secondDoc.find("cache_hit")->boolean) << second;

  // Byte-identical replay: everything after the envelope's cache_hit flag
  // is the stored fragment. Compare the serialized result objects.
  const auto fragmentOf = [](const std::string& payload) {
    const std::size_t at = payload.find("\"result\":");
    EXPECT_NE(at, std::string::npos);
    return payload.substr(at);
  };
  EXPECT_EQ(fragmentOf(first), fragmentOf(second));

  EXPECT_EQ(rs.server.counters().cacheHits.load(), 1u);
  EXPECT_EQ(rs.server.counters().cacheMisses.load(), 1u);
  EXPECT_EQ(rs.server.counters().completed.load(), 2u);

  // Different options miss the cache: a --weak run is a different result.
  const std::string weakRequest =
      R"({"verb":"synthesize","protocol":)" + obs::jsonQuote(source) +
      R"(,"options":{"weak":true}})";
  auto weakDoc = parsed(roundTrip(rs.port(), weakRequest));
  ASSERT_TRUE(weakDoc.find("ok")->boolean);
  EXPECT_FALSE(weakDoc.find("cache_hit")->boolean);
  EXPECT_EQ(rs.server.counters().cacheMisses.load(), 2u);
}

TEST(Serve, CacheKeySeparatesProtocolsDifferingOnlyInReads) {
  // The key is the printed protocol, which names every read set: two
  // protocols that differ in one process's reads must never share an
  // entry.
  RunningServer rs(smallServer());
  protocol::Protocol narrow = casestudies::tokenRing(3, 2);
  narrow.name = "token_ring_serve";
  protocol::Protocol wide = narrow;
  wide.processes[1].reads = {0, 1, 2};
  ASSERT_NE(narrow.processes[1].reads, wide.processes[1].reads);

  auto narrowDoc = parsed(
      roundTrip(rs.port(), synthesizeRequest(lang::printProtocol(narrow))));
  auto wideDoc = parsed(
      roundTrip(rs.port(), synthesizeRequest(lang::printProtocol(wide))));
  ASSERT_TRUE(narrowDoc.find("ok")->boolean);
  ASSERT_TRUE(wideDoc.find("ok")->boolean);
  EXPECT_FALSE(narrowDoc.find("cache_hit")->boolean);
  EXPECT_FALSE(wideDoc.find("cache_hit")->boolean);
  EXPECT_EQ(rs.server.counters().cacheMisses.load(), 2u);
  EXPECT_EQ(rs.server.counters().cacheHits.load(), 0u);
  const auto* narrowResult = narrowDoc.find("result");
  const auto* wideResult = wideDoc.find("result");
  ASSERT_NE(narrowResult, nullptr);
  ASSERT_NE(wideResult, nullptr);
  EXPECT_NE(narrowResult->find("program")->str,
            wideResult->find("program")->str);
}

TEST(Serve, DeadlineExceededLeavesDaemonHealthy) {
  RunningServer rs(smallServer());

  // Big enough that a 1ms budget cannot finish; the cancel token aborts
  // the fixpoint and the worker's Manager is destroyed cleanly.
  const std::string big = tokenRingSource(11, 4);
  auto doc = parsed(roundTrip(rs.port(), synthesizeRequest(big, 1)));
  ASSERT_TRUE(doc.find("ok")->boolean);
  EXPECT_FALSE(doc.find("cache_hit")->boolean);
  const auto* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("deadline_exceeded")->boolean);
  EXPECT_FALSE(result->find("success")->boolean);
  EXPECT_EQ(result->find("exit_code")->number, 1);
  EXPECT_EQ(rs.server.counters().deadlineExceeded.load(), 1u);

  // Deadline results are not cached: a generous retry synthesizes fresh.
  const std::string small = tokenRingSource(3, 2);
  auto retry = parsed(roundTrip(rs.port(), synthesizeRequest(small)));
  ASSERT_TRUE(retry.find("ok")->boolean);
  EXPECT_TRUE(retry.find("result")->find("success")->boolean);

  // And the daemon is still responsive.
  auto pong = parsed(roundTrip(rs.port(), R"({"verb":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->boolean);
}

TEST(Serve, BoundedQueueRejectsWhenFull) {
  serve::ServeOptions options;
  options.workers = 1;
  options.queueCapacity = 1;
  options.cacheCapacity = 8;
  RunningServer rs(options);
  rs.server.holdJobs(true);  // workers idle: jobs pile up in the queue

  const std::string source = tokenRingSource(3, 2);

  Client queued(rs.port());
  ASSERT_TRUE(queued.connected());
  queued.send(synthesizeRequest(source));
  // Wait for the acceptor to enqueue it.
  for (int i = 0; i < 200 && rs.server.queueDepth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rs.server.queueDepth(), 1u);

  // The queue is full: the next request is rejected immediately, without
  // waiting for a worker.
  auto rejected = parsed(roundTrip(rs.port(), synthesizeRequest(source)));
  EXPECT_FALSE(rejected.find("ok")->boolean);
  EXPECT_EQ(rejected.find("kind")->str, "rejected");
  EXPECT_EQ(rs.server.counters().rejected.load(), 1u);

  // Control verbs bypass the queue entirely.
  auto pong = parsed(roundTrip(rs.port(), R"({"verb":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->boolean);

  // Release the hold: the queued job completes and answers its client.
  rs.server.holdJobs(false);
  auto done = parsed(queued.receive());
  ASSERT_TRUE(done.find("ok")->boolean);
  EXPECT_TRUE(done.find("result")->find("success")->boolean);
}

TEST(Serve, ShutdownVerbStopsTheServer) {
  auto rs = std::make_unique<RunningServer>(smallServer());
  const int port = rs->port();
  auto bye = parsed(roundTrip(port, R"({"verb":"shutdown"})"));
  EXPECT_TRUE(bye.find("ok")->boolean);
  // The verb flips the stop flag; waitUntilStopped returns promptly and a
  // full stop() joins every thread without deadlocking.
  rs->server.waitUntilStopped();
  rs->server.stop();
  rs.reset();  // destructor stop() is idempotent

  // The listening socket is gone: a fresh connect is refused.
  Client after(port);
  EXPECT_FALSE(after.connected());
}

}  // namespace

// The serve protocol v2 wall: keep-alive pipelined sessions, per-client
// fairness, the persistent result cache, and the lint verb — pinned
// against real sockets on an in-process Server.
//
// The two acceptance differentials live here:
//  * KeepAliveDifferential: K pipelined requests on ONE connection are
//    byte-identical (modulo the echoed "id") to K one-shot v1-style
//    connections, including the cache-hit replay.
//  * RestartReplaysWarm: a daemon restarted on the same --cache-dir
//    answers a previously synthesized request with cache_hit:true and a
//    byte-for-byte identical result document.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "casestudies/token_ring.hpp"
#include "core/stats.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"
#include "serve/fairness.hpp"
#include "serve/frame.hpp"
#include "serve/persist.hpp"
#include "serve/server.hpp"

namespace {

using namespace stsyn;
namespace fs = std::filesystem;

/// A keep-alive client: the connection stays open across any number of
/// frames, like a real v2 client. Blocking reads (the tests always know
/// how many responses they are owed).
class PipelinedClient {
 public:
  explicit PipelinedClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~PipelinedClient() { close(); }

  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] int fd() const { return fd_; }

  void send(const std::string& payload) { serve::writeFrame(fd_, payload); }

  /// Raw bytes, bypassing the framing helper — for adversarial writes.
  void sendRaw(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  [[nodiscard]] std::string receive() {
    std::string payload;
    EXPECT_TRUE(serve::readFrame(fd_, payload));
    return payload;
  }

  /// Returns false on clean EOF instead of failing the test.
  [[nodiscard]] bool tryReceive(std::string& payload) {
    try {
      return serve::readFrame(fd_, payload);
    } catch (const std::exception&) {
      return false;  // connection torn down mid-frame also counts as EOF
    }
  }

  /// Half-close: no more requests, but responses can still arrive.
  void shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

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
  p.name = "token_ring_serve_v2";
  return lang::printProtocol(p);
}

/// Builds a synthesize request; id < 0 means "no id field".
std::string synthesizeRequest(const std::string& source, long long id = -1,
                              const std::string& optionsJson = "") {
  std::ostringstream out;
  out << '{';
  if (id >= 0) out << "\"id\":" << id << ',';
  out << R"("verb":"synthesize","protocol":)" << obs::jsonQuote(source);
  if (!optionsJson.empty()) out << R"(,"options":)" << optionsJson;
  out << '}';
  return out.str();
}

std::string lintRequest(const std::string& source, long long id = -1) {
  std::ostringstream out;
  out << '{';
  if (id >= 0) out << "\"id\":" << id << ',';
  out << R"("verb":"lint","protocol":)" << obs::jsonQuote(source) << '}';
  return out.str();
}

/// Strips the leading "id" field: everything from the "ok" key on is
/// id-independent by construction (the envelope renders id first).
std::string moduloId(const std::string& payload) {
  const std::size_t at = payload.find("\"ok\"");
  EXPECT_NE(at, std::string::npos) << payload;
  return "{" + payload.substr(at);
}

/// Replaces the values of wall-clock fields ("ranking_seconds":1.2e-05)
/// with a fixed token. Two separately-synthesized runs of the same input
/// agree on every byte EXCEPT measured durations; the differential wants
/// to pin exactly that.
std::string moduloTimings(std::string payload) {
  std::size_t at = 0;
  while ((at = payload.find("_seconds\":", at)) != std::string::npos) {
    const std::size_t valueStart = at + 10;
    std::size_t valueEnd = valueStart;
    while (valueEnd < payload.size() &&
           (std::isdigit(static_cast<unsigned char>(payload[valueEnd])) !=
                0 ||
            payload[valueEnd] == '.' || payload[valueEnd] == 'e' ||
            payload[valueEnd] == '-' || payload[valueEnd] == '+')) {
      ++valueEnd;
    }
    payload.replace(valueStart, valueEnd - valueStart, "T");
    at = valueStart;
  }
  return payload;
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

serve::ServeOptions smallServer(unsigned workers = 2) {
  serve::ServeOptions o;
  o.workers = workers;
  o.queueCapacity = 8;
  o.cacheCapacity = 16;
  return o;
}

/// A scratch directory removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("stsyn_serve_v2_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

// ---------------------------------------------------------------------------
// FairQueue scheduling policy (pure unit tests — no sockets).
// ---------------------------------------------------------------------------

TEST(FairQueue, RoundRobinAcrossClients) {
  serve::FairQueue<int> q(16, 8);
  // Client 1 floods; clients 2 and 3 each queue one job afterwards.
  EXPECT_EQ(q.push(1, 10), serve::Admission::Admitted);
  EXPECT_EQ(q.push(1, 11), serve::Admission::Admitted);
  EXPECT_EQ(q.push(1, 12), serve::Admission::Admitted);
  EXPECT_EQ(q.push(2, 20), serve::Admission::Admitted);
  EXPECT_EQ(q.push(3, 30), serve::Admission::Admitted);
  EXPECT_EQ(q.depth(), 5u);

  int job = 0;
  std::uint64_t client = 0;
  std::vector<int> order;
  while (q.pop(job, client)) order.push_back(job);
  // The flooder gets every third slot, not all of the first three; each
  // client's own jobs stay FIFO.
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30, 11, 12}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(FairQueue, PerClientCapCountsQueuedPlusRunning) {
  serve::FairQueue<int> q(16, 2);
  EXPECT_EQ(q.push(7, 1), serve::Admission::Admitted);
  EXPECT_EQ(q.push(7, 2), serve::Admission::Admitted);
  EXPECT_EQ(q.push(7, 3), serve::Admission::ClientCapped);
  EXPECT_EQ(q.inflight(7), 2u);

  // Popping does NOT release the charge: the job is running now.
  int job = 0;
  std::uint64_t client = 0;
  ASSERT_TRUE(q.pop(job, client));
  EXPECT_EQ(q.push(7, 3), serve::Admission::ClientCapped);
  EXPECT_EQ(q.inflight(7), 2u);

  // finish() releases it; the client has room again.
  q.finish(7);
  EXPECT_EQ(q.inflight(7), 1u);
  EXPECT_EQ(q.push(7, 3), serve::Admission::Admitted);
}

TEST(FairQueue, CapIsCheckedBeforeCapacity) {
  serve::FairQueue<int> q(1, 1);
  EXPECT_EQ(q.push(1, 10), serve::Admission::Admitted);
  // Queue is full AND client 1 is at cap: the client-specific verdict
  // wins, because "finish something first" is actionable and "retry
  // later" is not, for this client.
  EXPECT_EQ(q.push(1, 11), serve::Admission::ClientCapped);
  // A different client under its cap sees the global condition.
  EXPECT_EQ(q.push(2, 20), serve::Admission::QueueFull);
}

TEST(FairQueue, FinishForgetsIdleClients) {
  serve::FairQueue<int> q(8, 4);
  for (std::uint64_t c = 1; c <= 100; ++c) {
    ASSERT_EQ(q.push(c, static_cast<int>(c)), serve::Admission::Admitted);
    int job = 0;
    std::uint64_t client = 0;
    ASSERT_TRUE(q.pop(job, client));
    q.finish(client);
    EXPECT_EQ(q.inflight(c), 0u);  // no tombstone accumulates per client
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(FairQueue, DrainReturnsEverythingQueued) {
  serve::FairQueue<int> q(16, 8);
  ASSERT_EQ(q.push(1, 10), serve::Admission::Admitted);
  ASSERT_EQ(q.push(2, 20), serve::Admission::Admitted);
  ASSERT_EQ(q.push(1, 11), serve::Admission::Admitted);
  const std::vector<int> leftovers = q.drain();
  EXPECT_EQ(leftovers.size(), 3u);
  EXPECT_EQ(q.depth(), 0u);
  int job = 0;
  std::uint64_t client = 0;
  EXPECT_FALSE(q.pop(job, client));
}

// ---------------------------------------------------------------------------
// Keep-alive sessions and pipelining.
// ---------------------------------------------------------------------------

TEST(ServeV2, ConnectionSurvivesManySequentialRequests) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  for (int i = 0; i < 10; ++i) {
    c.send(R"({"verb":"ping"})");
    auto pong = parsed(c.receive());
    EXPECT_TRUE(pong.find("ok")->boolean);
    EXPECT_EQ(pong.find("verb")->str, "pong");
  }
  // One connection, ten requests.
  EXPECT_EQ(rs.server.counters().sessions.load(), 1u);
  EXPECT_EQ(rs.server.counters().requests.load(), 10u);
}

TEST(ServeV2, PipelinedRequestsCompleteAndCorrelateById) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());

  // One write carrying several frames; ids correlate the responses, which
  // may legally arrive in any order (two workers race).
  std::string burst;
  burst += serve::encodeFrame(R"({"id":1,"verb":"ping"})");
  burst += serve::encodeFrame(synthesizeRequest(tokenRingSource(3, 2), 2));
  burst += serve::encodeFrame(R"({"id":"three","verb":"ping"})");
  burst += serve::encodeFrame(lintRequest(tokenRingSource(3, 2), 4));
  c.sendRaw(burst);

  std::map<std::string, obs::JsonValue> byId;
  for (int i = 0; i < 4; ++i) {
    const std::string payload = c.receive();
    auto doc = parsed(payload);
    const auto* id = doc.find("id");
    ASSERT_NE(id, nullptr) << payload;
    // The id is the FIRST field of the envelope.
    EXPECT_EQ(payload.find("{\"id\":"), 0u) << payload;
    const std::string key = id->kind == obs::JsonValue::Kind::String
                                ? id->str
                                : std::to_string(
                                      static_cast<long long>(id->number));
    byId.emplace(key, std::move(doc));
  }
  ASSERT_EQ(byId.size(), 4u);
  EXPECT_EQ(byId.at("1").find("verb")->str, "pong");
  EXPECT_TRUE(byId.at("2").find("ok")->boolean);
  EXPECT_TRUE(byId.at("2").find("result")->find("success")->boolean);
  EXPECT_EQ(byId.at("three").find("verb")->str, "pong");
  EXPECT_EQ(byId.at("4").find("verb")->str, "lint");
}

TEST(ServeV2, ReplyAfterAnInlineReplyIsNotHeldByNagle) {
  // A ping is answered inline by the event loop and a synthesize by a
  // worker moments later. Without TCP_NODELAY on the server's socket the
  // second small frame waits for the ACK of the first, which a client
  // with Nagle on (the default here) delays by ~40 ms. Distinct protocol
  // names keep every synthesize a cache miss, so it really goes through
  // a worker.
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  std::vector<double> secondReplyMs;
  for (int i = 0; i < 10; ++i) {
    protocol::Protocol p = casestudies::tokenRing(3, 2);
    p.name = "nagle_" + std::to_string(i);
    std::string burst = serve::encodeFrame(R"({"verb":"ping"})");
    burst += serve::encodeFrame(synthesizeRequest(lang::printProtocol(p)));
    const auto start = std::chrono::steady_clock::now();
    c.sendRaw(burst);
    (void)c.receive();
    (void)c.receive();
    secondReplyMs.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  }
  std::sort(secondReplyMs.begin(), secondReplyMs.end());
  EXPECT_LT(secondReplyMs[secondReplyMs.size() / 2], 20.0)
      << "median time to the second reply, ms";
}

TEST(ServeV2, BadIdShapesAreRejected) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  for (const char* request : {
           R"({"id":-1,"verb":"ping"})",
           R"({"id":1.5,"verb":"ping"})",
           R"({"id":[1],"verb":"ping"})",
           R"({"id":{"a":1},"verb":"ping"})",
           R"({"id":true,"verb":"ping"})",
       }) {
    c.send(request);
    auto doc = parsed(c.receive());
    EXPECT_FALSE(doc.find("ok")->boolean) << request;
    EXPECT_EQ(doc.find("kind")->str, "invalid_request") << request;
  }
  // The session survives its own invalid requests.
  c.send(R"({"id":7,"verb":"ping"})");
  auto pong = parsed(c.receive());
  EXPECT_EQ(pong.find("id")->number, 7);
  EXPECT_EQ(pong.find("verb")->str, "pong");
}

TEST(ServeV2, PortfolioForwardsPassOptionsAndRejectsSchedule) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  const std::string ring = tokenRingSource(4, 3);

  // Each portfolio instance runs its own schedule, so a schedule with it
  // is refused by name rather than ignored.
  c.send(synthesizeRequest(ring, -1,
                           R"({"portfolio":1,"schedule":"P1,P2,P3,P0"})"));
  auto conflict = parsed(c.receive());
  EXPECT_FALSE(conflict.find("ok")->boolean);
  EXPECT_EQ(conflict.find("kind")->str, "invalid_request");
  EXPECT_EQ(conflict.find("error")->str.rfind("schedule conflicts with", 0),
            0u);

  // max_pass reaches every instance: token_ring(4,3) needs pass 2.
  c.send(synthesizeRequest(ring, -1, R"({"portfolio":1,"max_pass":1})"));
  auto capped = parsed(c.receive());
  ASSERT_TRUE(capped.find("ok")->boolean);
  EXPECT_FALSE(capped.find("result")->find("success")->boolean);
}

TEST(ServeV2, ErrorResponsesEchoTheRequestId) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  c.send(R"({"id":"err-1","verb":"synthesize"})");
  const std::string payload = c.receive();
  auto doc = parsed(payload);
  EXPECT_EQ(doc.find("id")->str, "err-1");
  EXPECT_EQ(doc.find("kind")->str, "invalid_request");
  EXPECT_EQ(payload.find(R"({"id":"err-1",)"), 0u) << payload;
}

// The acceptance differential: one keep-alive session pipelining K mixed
// requests produces, modulo the echoed id, the same K response byte
// strings a fresh daemon produces for K one-shot connections.
TEST(ServeV2, KeepAliveDifferentialAgainstOneShotConnections) {
  const std::string ring = tokenRingSource(3, 2);
  const std::string ringBig = tokenRingSource(4, 2);
  const std::vector<std::string> plainRequests = {
      R"({"verb":"ping"})",
      synthesizeRequest(ring),      // cache miss
      synthesizeRequest(ring),      // cache hit: replay
      lintRequest(ring),
      synthesizeRequest(ringBig),   // different key: miss
      synthesizeRequest(ring, -1, R"({"weak":true})"),  // different options
  };

  // One worker on both sides so hit/miss sequencing is deterministic.
  std::vector<std::string> oneShot;
  {
    RunningServer rs(smallServer(/*workers=*/1));
    for (const std::string& request : plainRequests) {
      PipelinedClient c(rs.port());
      ASSERT_TRUE(c.connected());
      c.send(request);
      oneShot.push_back(c.receive());
    }
  }

  std::vector<std::string> pipelined(plainRequests.size());
  {
    RunningServer rs(smallServer(/*workers=*/1));
    PipelinedClient c(rs.port());
    ASSERT_TRUE(c.connected());
    std::string burst;
    for (std::size_t i = 0; i < plainRequests.size(); ++i) {
      // Same request, plus an id: {"id":N,...rest}.
      std::string withId = "{\"id\":" + std::to_string(i) + "," +
                           plainRequests[i].substr(1);
      burst += serve::encodeFrame(withId);
    }
    c.sendRaw(burst);
    for (std::size_t i = 0; i < plainRequests.size(); ++i) {
      const std::string payload = c.receive();
      auto doc = parsed(payload);
      const auto* id = doc.find("id");
      ASSERT_NE(id, nullptr) << payload;
      pipelined.at(static_cast<std::size_t>(id->number)) = payload;
    }
  }

  for (std::size_t i = 0; i < plainRequests.size(); ++i) {
    EXPECT_EQ(moduloTimings(moduloId(pipelined[i])),
              moduloTimings(oneShot[i]))
        << "request " << i << " diverged: " << plainRequests[i];
  }
}

// ---------------------------------------------------------------------------
// Adversarial framing against a live session.
// ---------------------------------------------------------------------------

TEST(ServeV2, ByteAtATimeWritesStillParse) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  const std::string wire = serve::encodeFrame(R"({"id":1,"verb":"ping"})");
  for (const char byte : wire) {
    c.sendRaw(std::string_view(&byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto pong = parsed(c.receive());
  EXPECT_EQ(pong.find("verb")->str, "pong");
  // The trickled session is a normal session afterwards.
  c.send(R"({"verb":"stats"})");
  EXPECT_TRUE(parsed(c.receive()).find("ok")->boolean);
}

TEST(ServeV2, TornHeaderAfterEarlierFramesIsHarmless) {
  RunningServer rs(smallServer());
  {
    PipelinedClient c(rs.port());
    ASSERT_TRUE(c.connected());
    // Two complete frames, fully answered...
    c.send(R"({"verb":"ping"})");
    EXPECT_TRUE(parsed(c.receive()).find("ok")->boolean);
    c.send(R"({"verb":"ping"})");
    EXPECT_TRUE(parsed(c.receive()).find("ok")->boolean);
    // ...then 2 bytes of a third header, and the client vanishes.
    c.sendRaw(std::string_view("\x00\x00", 2));
  }
  // The daemon neither crashed nor leaked the half-frame into anything:
  // a fresh client gets normal service.
  PipelinedClient after(rs.port());
  ASSERT_TRUE(after.connected());
  after.send(R"({"verb":"ping"})");
  EXPECT_TRUE(parsed(after.receive()).find("ok")->boolean);
  EXPECT_EQ(rs.server.counters().requests.load(), 3u);  // torn frame ≠ request
}

TEST(ServeV2, OversizedLengthMidSessionClosesThatSessionOnly) {
  RunningServer rs(smallServer());
  PipelinedClient victim(rs.port());
  ASSERT_TRUE(victim.connected());
  victim.send(R"({"verb":"ping"})");
  EXPECT_TRUE(parsed(victim.receive()).find("ok")->boolean);

  // Frame 2 declares 128 MiB. The daemon answers with an error frame and
  // drops the connection — the stream past a hostile header is garbage.
  const std::uint32_t huge = 128u << 20;
  char header[4] = {static_cast<char>(huge >> 24),
                    static_cast<char>((huge >> 16) & 0xFF),
                    static_cast<char>((huge >> 8) & 0xFF),
                    static_cast<char>(huge & 0xFF)};
  victim.sendRaw(std::string_view(header, 4));

  std::string payload;
  if (victim.tryReceive(payload)) {
    auto doc = parsed(payload);
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("kind")->str, "invalid_request");
  }
  // Either way the connection is now closed.
  EXPECT_FALSE(victim.tryReceive(payload));

  // Other sessions were never affected.
  PipelinedClient bystander(rs.port());
  ASSERT_TRUE(bystander.connected());
  bystander.send(R"({"verb":"ping"})");
  EXPECT_TRUE(parsed(bystander.receive()).find("ok")->boolean);
}

TEST(ServeV2, HeldOpenIdleConnectionDoesNotStallOthers) {
  RunningServer rs(smallServer());
  // A slow-loris connection: opened, never writes a byte.
  PipelinedClient loris(rs.port());
  ASSERT_TRUE(loris.connected());

  // Everyone else gets immediate service while it sits there.
  for (int i = 0; i < 5; ++i) {
    PipelinedClient c(rs.port());
    ASSERT_TRUE(c.connected());
    c.send(R"({"verb":"ping"})");
    EXPECT_TRUE(parsed(c.receive()).find("ok")->boolean);
  }
  // And the idle connection is still alive, not reaped.
  loris.send(R"({"verb":"ping"})");
  EXPECT_TRUE(parsed(loris.receive()).find("ok")->boolean);
}

TEST(ServeV2, HalfClosedClientStillReceivesItsResponses) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  c.send(synthesizeRequest(tokenRingSource(3, 2), 1));
  c.shutdownWrite();  // EOF reaches the daemon before the job completes
  auto doc = parsed(c.receive());
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_TRUE(doc.find("result")->find("success")->boolean);
}

TEST(ServeV2, ClientKilledMidJobLeavesWorkerHealthy) {
  RunningServer rs(smallServer());
  {
    PipelinedClient doomed(rs.port());
    ASSERT_TRUE(doomed.connected());
    doomed.send(synthesizeRequest(tokenRingSource(4, 2), 1));
    // Destructor closes the socket immediately; the worker is (or soon
    // will be) mid-synthesis with nobody to answer.
  }
  // The job still runs to completion (counters reconcile) and the daemon
  // keeps serving.
  for (int i = 0; i < 400; ++i) {
    if (rs.server.counters().completed.load() >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(rs.server.counters().completed.load(), 1u);
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  c.send(R"({"verb":"ping"})");
  EXPECT_TRUE(parsed(c.receive()).find("ok")->boolean);
}

// ---------------------------------------------------------------------------
// Fairness on the wire.
// ---------------------------------------------------------------------------

TEST(ServeV2, PerClientCapAndQueueFullAreDistinguished) {
  serve::ServeOptions options;
  options.workers = 1;
  options.queueCapacity = 3;
  options.cacheCapacity = 8;
  options.maxInflight = 2;
  RunningServer rs(options);
  rs.server.holdJobs(true);

  const std::string source = tokenRingSource(3, 2);

  PipelinedClient greedy(rs.port());
  ASSERT_TRUE(greedy.connected());
  greedy.send(synthesizeRequest(source, 1));
  greedy.send(synthesizeRequest(source, 2));
  for (int i = 0; i < 200 && rs.server.queueDepth() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rs.server.queueDepth(), 2u);

  // Request 3 breaches the greedy client's own cap — rejected with the
  // client-specific reason even though the queue still has room.
  greedy.send(synthesizeRequest(source, 3));
  auto capped = parsed(greedy.receive());
  EXPECT_FALSE(capped.find("ok")->boolean);
  EXPECT_EQ(capped.find("id")->number, 3);
  EXPECT_EQ(capped.find("kind")->str, "rejected");
  EXPECT_EQ(capped.find("reason")->str, "client_capped");

  // A second client fills the last global slot...
  PipelinedClient other(rs.port());
  ASSERT_TRUE(other.connected());
  other.send(synthesizeRequest(source, 10));
  for (int i = 0; i < 200 && rs.server.queueDepth() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rs.server.queueDepth(), 3u);

  // ...so its next request — the client itself is under its cap — sees
  // the global condition.
  other.send(synthesizeRequest(source, 11));
  auto full = parsed(other.receive());
  EXPECT_EQ(full.find("kind")->str, "rejected");
  EXPECT_EQ(full.find("reason")->str, "queue_full");

  EXPECT_EQ(rs.server.counters().rejectedCapped.load(), 1u);
  EXPECT_EQ(rs.server.counters().rejectedQueueFull.load(), 1u);
  EXPECT_EQ(rs.server.counters().rejected.load(), 2u);

  // Release the hold: all three admitted jobs are answered.
  rs.server.holdJobs(false);
  EXPECT_TRUE(parsed(greedy.receive()).find("ok")->boolean);
  EXPECT_TRUE(parsed(greedy.receive()).find("ok")->boolean);
  EXPECT_TRUE(parsed(other.receive()).find("ok")->boolean);
}

// ---------------------------------------------------------------------------
// The lint verb.
// ---------------------------------------------------------------------------

TEST(ServeV2, LintVerbReturnsSarif) {
  RunningServer rs(smallServer());
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());

  c.send(lintRequest(tokenRingSource(3, 2), 1));
  auto doc = parsed(c.receive());
  ASSERT_TRUE(doc.find("ok")->boolean);
  EXPECT_EQ(doc.find("verb")->str, "lint");
  const auto* sarif = doc.find("sarif");
  ASSERT_NE(sarif, nullptr);
  ASSERT_TRUE(sarif->isObject());
  EXPECT_EQ(sarif->find("version")->str, "2.1.0");
  ASSERT_NE(sarif->find("runs"), nullptr);

  // Lint requests are answered inline — never queued, never cached.
  EXPECT_EQ(rs.server.counters().lint.load(), 1u);
  EXPECT_EQ(rs.server.counters().synthesize.load(), 0u);
  EXPECT_EQ(rs.server.counters().cacheMisses.load(), 0u);

  // Unknown lint options are rejected like synthesize options.
  c.send(R"({"verb":"lint","protocol":"x","options":{"portfolio":2}})");
  auto bad = parsed(c.receive());
  EXPECT_EQ(bad.find("kind")->str, "invalid_request");

  // Unparseable source is still a lint RESULT (SARIF carries the parse
  // diagnostic), not a protocol error: linting broken files is the job.
  c.send(lintRequest("protocol oops", 2));
  auto broken = parsed(c.receive());
  ASSERT_TRUE(broken.find("ok")->boolean) << "lint must answer broken input";
  EXPECT_EQ(broken.find("exit_code")->number, 1);
}

// ---------------------------------------------------------------------------
// Persistent result cache.
// ---------------------------------------------------------------------------

TEST(PersistV2, DocumentRoundTripsArbitraryBytes) {
  const std::string key = "key with spaces\nand\nnewlines \x01\xff";
  const std::string result = std::string("result\0with NUL", 15);
  std::ostringstream os;
  serve::saveResultDocument(os, key, result);
  std::istringstream is(os.str());
  std::string keyBack;
  std::string resultBack;
  serve::loadResultDocument(is, keyBack, resultBack);
  EXPECT_EQ(keyBack, key);
  EXPECT_EQ(resultBack, result);
}

TEST(PersistV2, ByteChopCorpusAlwaysRejects) {
  std::ostringstream os;
  serve::saveResultDocument(os, "canonical-key", "{\"ok\":true}");
  const std::string good = os.str();
  // Every proper prefix must be rejected as truncated — no prefix length
  // may be read as a shorter valid document.
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::istringstream is(good.substr(0, len));
    std::string key;
    std::string result;
    EXPECT_THROW(serve::loadResultDocument(is, key, result),
                 std::runtime_error)
        << "prefix of length " << len << " was accepted";
  }
  // And one extra byte is trailing garbage, also rejected.
  std::istringstream is(good + "x");
  std::string key;
  std::string result;
  EXPECT_THROW(serve::loadResultDocument(is, key, result),
               std::runtime_error);
}

TEST(PersistV2, TokenMutationCorpusAlwaysRejects) {
  const std::string docText = [] {
    std::ostringstream os;
    serve::saveResultDocument(os, "kk", "rrrr");
    return os.str();
  }();  // "stsynres 1 2 4\nkkrrrr"
  const std::vector<std::string> mutants = {
      "stsynres 2 2 4\nkkrrrr",          // future version
      "stsynRES 1 2 4\nkkrrrr",          // wrong magic
      "stsynres 1 3 4\nkkrrrr",          // key length lies long
      "stsynres 1 2 9999999999999999999999 \nkkrrrr",  // absurd size
      "stsynres 1 2 4 kkrrrr",           // missing newline terminator
      "stsynres 1 -2 4\nkkrrrr",         // negative size
      "",                                 // empty file
      "stsynres",                         // header alone
  };
  for (const std::string& mutant : mutants) {
    std::istringstream is(mutant);
    std::string key;
    std::string result;
    EXPECT_THROW(serve::loadResultDocument(is, key, result),
                 std::runtime_error)
        << "mutant accepted: " << mutant;
  }
}

TEST(PersistV2, WriteIsAtomicAndLoadSkipsForeignFiles) {
  TempDir dir;
  ASSERT_TRUE(serve::writeCacheEntry(dir.path.string(), "k1", "r1"));
  ASSERT_TRUE(serve::writeCacheEntry(dir.path.string(), "k2", "r2"));
  // Distractors: a leftover temp file and an unrelated file.
  { std::ofstream(dir.path / ".tmp-999-0.stsynres") << "partial"; }
  { std::ofstream(dir.path / "README.txt") << "not an entry"; }

  std::map<std::string, std::string> loaded;
  std::size_t rejected = 99;
  const std::size_t n = serve::loadCacheDir(
      dir.path.string(),
      [&](std::string key, std::string result) {
        loaded[std::move(key)] = std::move(result);
      },
      &rejected);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(rejected, 0u);  // skipped files are not "rejected entries"
  EXPECT_EQ(loaded.at("k1"), "r1");
  EXPECT_EQ(loaded.at("k2"), "r2");

  // Same key rewritten: still one file, new content.
  ASSERT_TRUE(serve::writeCacheEntry(dir.path.string(), "k1", "r1-v2"));
  loaded.clear();
  serve::loadCacheDir(
      dir.path.string(),
      [&](std::string key, std::string result) {
        loaded[std::move(key)] = std::move(result);
      },
      nullptr);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at("k1"), "r1-v2");
}

// The second acceptance differential: restart the daemon on the same
// cache directory and replay a previously synthesized result warm,
// byte-for-byte.
TEST(PersistV2, RestartReplaysWarmByteForByte) {
  TempDir dir;
  const std::string source = tokenRingSource(3, 2);

  std::string coldResponse;
  {
    serve::ServeOptions options = smallServer();
    options.cacheDir = dir.path.string();
    RunningServer rs(options);
    EXPECT_EQ(rs.server.cacheEntriesLoaded(), 0u);
    PipelinedClient c(rs.port());
    ASSERT_TRUE(c.connected());
    c.send(synthesizeRequest(source));
    coldResponse = c.receive();
    auto doc = parsed(coldResponse);
    ASSERT_TRUE(doc.find("ok")->boolean) << coldResponse;
    EXPECT_FALSE(doc.find("cache_hit")->boolean);
  }  // daemon fully stopped

  serve::ServeOptions options = smallServer();
  options.cacheDir = dir.path.string();
  RunningServer restarted(options);
  EXPECT_EQ(restarted.server.cacheEntriesLoaded(), 1u);
  EXPECT_EQ(restarted.server.cacheEntriesRejected(), 0u);

  PipelinedClient c(restarted.port());
  ASSERT_TRUE(c.connected());
  c.send(synthesizeRequest(source));
  const std::string warmResponse = c.receive();
  auto doc = parsed(warmResponse);
  ASSERT_TRUE(doc.find("ok")->boolean) << warmResponse;
  EXPECT_TRUE(doc.find("cache_hit")->boolean);
  EXPECT_EQ(restarted.server.counters().cacheHits.load(), 1u);
  EXPECT_EQ(restarted.server.counters().cacheMisses.load(), 0u);

  // The result fragment — everything after the cache_hit flag — is the
  // stored document, byte for byte.
  const auto fragmentOf = [](const std::string& payload) {
    const std::size_t at = payload.find("\"result\":");
    EXPECT_NE(at, std::string::npos);
    return payload.substr(at);
  };
  EXPECT_EQ(fragmentOf(coldResponse), fragmentOf(warmResponse));
}

// The cache key names the stats schema version, so an entry persisted by
// a daemon writing another schema (an old --cache-dir) is never replayed
// as a current document: after a restart it loads, and still misses.
TEST(PersistV2, EntryFromAnotherSchemaVersionIsAMiss) {
  TempDir dir;
  const std::string source = tokenRingSource(3, 2);

  {
    serve::ServeOptions options = smallServer();
    options.cacheDir = dir.path.string();
    RunningServer rs(options);
    PipelinedClient c(rs.port());
    ASSERT_TRUE(c.connected());
    c.send(synthesizeRequest(source));
    ASSERT_TRUE(parsed(c.receive()).find("ok")->boolean);
  }

  // Rewrite the one entry as if the previous schema's daemon had written
  // it: same protocol, options and result, another version in the key.
  std::string key;
  std::string result;
  ASSERT_EQ(serve::loadCacheDir(
                dir.path.string(),
                [&](std::string k, std::string r) {
                  key = std::move(k);
                  result = std::move(r);
                }),
            1u);
  const std::string current =
      "schema=" + std::to_string(core::kStatsJsonSchemaVersion) + ";";
  const std::size_t at = key.find(current);
  ASSERT_NE(at, std::string::npos) << key;
  std::string staleKey = key;
  staleKey.replace(
      at, current.size(),
      "schema=" + std::to_string(core::kStatsJsonSchemaVersion - 1) + ";");
  fs::remove(dir.path / serve::cacheEntryFileName(key));
  ASSERT_TRUE(serve::writeCacheEntry(dir.path.string(), staleKey, result));

  serve::ServeOptions options = smallServer();
  options.cacheDir = dir.path.string();
  RunningServer restarted(options);
  EXPECT_EQ(restarted.server.cacheEntriesLoaded(), 1u);
  EXPECT_EQ(restarted.server.cacheEntriesRejected(), 0u);

  PipelinedClient c(restarted.port());
  ASSERT_TRUE(c.connected());
  c.send(synthesizeRequest(source));
  auto doc = parsed(c.receive());
  ASSERT_TRUE(doc.find("ok")->boolean);
  EXPECT_FALSE(doc.find("cache_hit")->boolean);
  EXPECT_EQ(restarted.server.counters().cacheHits.load(), 0u);
  EXPECT_EQ(restarted.server.counters().cacheMisses.load(), 1u);
}

TEST(PersistV2, CorruptEntriesOnDiskDegradeToMisses) {
  TempDir dir;
  const std::string source = tokenRingSource(3, 2);

  {
    serve::ServeOptions options = smallServer();
    options.cacheDir = dir.path.string();
    RunningServer rs(options);
    PipelinedClient c(rs.port());
    ASSERT_TRUE(c.connected());
    c.send(synthesizeRequest(source));
    ASSERT_TRUE(parsed(c.receive()).find("ok")->boolean);
  }

  // Chop the single entry file in half: classic torn write / bad disk.
  fs::path entry;
  for (const auto& it : fs::directory_iterator(dir.path)) {
    if (it.path().extension() == ".stsynres") entry = it.path();
  }
  ASSERT_FALSE(entry.empty());
  const auto size = fs::file_size(entry);
  fs::resize_file(entry, size / 2);

  serve::ServeOptions options = smallServer();
  options.cacheDir = dir.path.string();
  RunningServer rs(options);
  EXPECT_EQ(rs.server.cacheEntriesLoaded(), 0u);
  EXPECT_EQ(rs.server.cacheEntriesRejected(), 1u);

  // The request misses (fresh synthesis), then re-persists a good entry.
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  c.send(synthesizeRequest(source));
  auto doc = parsed(c.receive());
  ASSERT_TRUE(doc.find("ok")->boolean);
  EXPECT_FALSE(doc.find("cache_hit")->boolean);
  EXPECT_GT(fs::file_size(entry), size / 2);
}

// ---------------------------------------------------------------------------
// Counter reconciliation after a mixed concurrent soak.
// ---------------------------------------------------------------------------

TEST(ServeV2, CountersReconcileAfterMixedSoak) {
  serve::ServeOptions options;
  options.workers = 3;
  options.queueCapacity = 4;
  options.cacheCapacity = 8;
  options.maxInflight = 2;
  RunningServer rs(options);

  const std::vector<std::string> sources = {tokenRingSource(3, 2),
                                            tokenRingSource(4, 2)};
  constexpr int kClients = 4;
  constexpr int kRounds = 6;

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      PipelinedClient c(rs.port());
      if (!c.connected()) {
        failures.fetch_add(1);
        return;
      }
      int sent = 0;
      for (int round = 0; round < kRounds; ++round) {
        // A mixed burst per round: inline verbs, lint, synthesis with
        // repeats (cache hits), malformed requests, bad options. Some
        // synthesize calls will be fairness-capped — that is the point.
        c.send(R"({"verb":"ping"})");
        ++sent;
        c.send(synthesizeRequest(sources[(t + round) % sources.size()],
                                 round));
        ++sent;
        c.send(lintRequest(sources[0]));
        ++sent;
        c.send(R"({"verb":"stats"})");
        ++sent;
        c.send("not json at all");
        ++sent;
        c.send(R"({"verb":"synthesize","protocol":"protocol oops"})");
        ++sent;
        c.send(
            R"({"verb":"synthesize","protocol":"x","options":{"nope":1}})");
        ++sent;
        // Read this round's responses before the next burst so the
        // pipeline depth stays bounded (and some rounds hit the cache).
        for (; sent > 0; --sent) {
          std::string payload;
          if (!c.tryReceive(payload)) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every response was delivered, so every counter is final.
  const serve::ServeCounters& n = rs.server.counters();
  const auto total = [](const std::atomic<std::uint64_t>& c) {
    return c.load();
  };
  EXPECT_EQ(total(n.requests), static_cast<std::uint64_t>(kClients) *
                                   kRounds * 7);
  EXPECT_EQ(total(n.requests), total(n.synthesize) + total(n.lint) +
                                   total(n.inlineVerbs) + total(n.invalid));
  EXPECT_EQ(total(n.synthesize), total(n.completed) + total(n.rejected));
  EXPECT_EQ(total(n.rejected),
            total(n.rejectedQueueFull) + total(n.rejectedCapped));
  EXPECT_EQ(total(n.cacheHits) + total(n.cacheMisses), total(n.completed));
  EXPECT_EQ(rs.server.queueDepth(), 0u);
  // The soak exercised real synthesis, and repeats hit the cache.
  EXPECT_GT(total(n.completed), 0u);
  EXPECT_GT(total(n.cacheHits), 0u);
  EXPECT_EQ(total(n.invalid),
            static_cast<std::uint64_t>(kClients) * kRounds * 3);

  // Stats report the same numbers over the wire.
  PipelinedClient c(rs.port());
  ASSERT_TRUE(c.connected());
  c.send(R"({"verb":"stats"})");
  auto stats = parsed(c.receive());
  const auto* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("queue_depth")->number, 0);
  EXPECT_EQ(counters->find("max_inflight")->number, 2);
  EXPECT_EQ(counters->find("queue_capacity")->number, 4);
}

}  // namespace

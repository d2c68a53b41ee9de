// Concurrent load harness for the serve v2 daemon (no google-benchmark:
// the subject is a multi-threaded server under concurrent pipelined
// clients, not a single timed loop).
//
// For each client count N in {1, 2, 4, 8, 16}, a fresh in-process Server
// is driven by N keep-alive connections. Each client issues a mixed
// corpus of pipelined bursts — ping, synthesize over rotating token-ring
// instances (repeats hit the result cache), lint — and records one
// latency sample per response (arrival time minus the burst's send
// instant, i.e. the queueing delay a pipelining client actually
// observes). The sweep reports throughput, p50/p90/p99 latency, and the
// rejection and cache-hit rates as N grows, and writes the same rows to
// BENCH_serve_load.json ($STSYN_BENCH_DIR honored) for CI's serve-soak
// job and future perf trajectories.
//
// Environment knobs (all optional) shrink the sweep for CI:
//   STSYN_SERVE_LOAD_CLIENTS   max client count (default 16)
//   STSYN_SERVE_LOAD_REQUESTS  requests per client (default 48)
//   STSYN_SERVE_LOAD_WORKERS   server worker threads (default 4)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "casestudies/token_ring.hpp"
#include "core/stats.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"

namespace {

using namespace stsyn;
using Clock = std::chrono::steady_clock;

unsigned envOr(const char* name, unsigned fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<unsigned>(parsed) : fallback;
}

std::string tokenRingSource(int processes, int domain) {
  protocol::Protocol p = casestudies::tokenRing(processes, domain);
  p.name = "token_ring_load";
  return lang::printProtocol(p);
}

int connectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  // Requests are small frames too; measure the server, not Nagle.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One client's tally, merged into the sweep point afterwards.
struct ClientTally {
  std::vector<double> latenciesMs;
  std::uint64_t rejected = 0;
  std::uint64_t cacheHits = 0;
  bool failed = false;
};

struct SweepPoint {
  unsigned clients = 0;
  std::uint64_t requests = 0;
  double wallSeconds = 0;
  double throughputPerSec = 0;
  double p50Ms = 0;
  double p90Ms = 0;
  double p99Ms = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t serverCompleted = 0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// The per-client driver: bursts of kBurst pipelined requests, one
/// latency sample per response.
void runClient(int port, unsigned requests,
               const std::vector<std::string>& corpus, ClientTally& tally) {
  constexpr unsigned kBurst = 4;
  const int fd = connectTo(port);
  if (fd < 0) {
    tally.failed = true;
    return;
  }
  unsigned sent = 0;
  try {
    while (sent < requests) {
      const unsigned burst = std::min(kBurst, requests - sent);
      const Clock::time_point start = Clock::now();
      for (unsigned i = 0; i < burst; ++i) {
        serve::writeFrame(fd, corpus[(sent + i) % corpus.size()]);
      }
      for (unsigned i = 0; i < burst; ++i) {
        std::string payload;
        if (!serve::readFrame(fd, payload)) throw std::runtime_error("eof");
        const std::chrono::duration<double, std::milli> dt =
            Clock::now() - start;
        tally.latenciesMs.push_back(dt.count());
        if (payload.find("\"kind\":\"rejected\"") != std::string::npos) {
          ++tally.rejected;
        }
        if (payload.find("\"cache_hit\":true") != std::string::npos) {
          ++tally.cacheHits;
        }
      }
      sent += burst;
    }
  } catch (const std::exception&) {
    tally.failed = true;
  }
  ::close(fd);
}

SweepPoint runSweepPoint(unsigned clients, unsigned requestsPerClient,
                         unsigned workers) {
  serve::ServeOptions options;
  options.workers = workers;
  options.queueCapacity = 32;
  options.cacheCapacity = 64;
  options.maxInflight = 8;
  serve::Server server(options);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "serve_load: cannot start server: %s\n",
                 error.c_str());
    std::exit(1);
  }

  // The request corpus: a quarter inline verbs, the rest synthesis and
  // lint over three ring instances. Every client cycles the same corpus,
  // so later requests re-derive what earlier ones cached — the hit rate
  // under load is part of what the sweep measures.
  const std::vector<std::string> sources = {
      tokenRingSource(3, 2), tokenRingSource(4, 2), tokenRingSource(5, 2)};
  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    std::ostringstream synth;
    synth << R"({"verb":"synthesize","protocol":)"
          << obs::jsonQuote(sources[i]) << '}';
    corpus.push_back(synth.str());
    corpus.push_back(R"({"verb":"ping"})");
    std::ostringstream lint;
    lint << R"({"verb":"lint","protocol":)" << obs::jsonQuote(sources[i])
         << '}';
    corpus.push_back(lint.str());
    corpus.push_back(synth.str());  // immediate repeat: a likely hit
  }

  std::vector<ClientTally> tallies(clients);
  std::vector<std::thread> threads;
  const Clock::time_point wallStart = Clock::now();
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back(runClient, server.port(), requestsPerClient,
                         std::cref(corpus), std::ref(tallies[c]));
  }
  for (std::thread& t : threads) t.join();
  const std::chrono::duration<double> wall = Clock::now() - wallStart;
  server.stop();

  SweepPoint point;
  point.clients = clients;
  point.wallSeconds = wall.count();
  std::vector<double> latencies;
  for (const ClientTally& tally : tallies) {
    if (tally.failed) {
      std::fprintf(stderr, "serve_load: a client failed at N=%u\n", clients);
      std::exit(1);
    }
    point.requests += tally.latenciesMs.size();
    point.rejected += tally.rejected;
    point.cacheHits += tally.cacheHits;
    latencies.insert(latencies.end(), tally.latenciesMs.begin(),
                     tally.latenciesMs.end());
  }
  std::sort(latencies.begin(), latencies.end());
  point.throughputPerSec =
      point.wallSeconds > 0
          ? static_cast<double>(point.requests) / point.wallSeconds
          : 0;
  point.p50Ms = percentile(latencies, 0.50);
  point.p90Ms = percentile(latencies, 0.90);
  point.p99Ms = percentile(latencies, 0.99);
  point.serverCompleted = server.counters().completed.load();

  // The counter-reconciliation invariant holds under load, not just in
  // the test wall; a broken ledger invalidates the rates reported here.
  const serve::ServeCounters& n = server.counters();
  if (n.requests.load() != n.synthesize.load() + n.lint.load() +
                               n.inlineVerbs.load() + n.invalid.load() ||
      n.synthesize.load() != n.completed.load() + n.rejected.load() ||
      n.cacheHits.load() + n.cacheMisses.load() != n.completed.load()) {
    std::fprintf(stderr, "serve_load: counters do not reconcile at N=%u\n",
                 clients);
    std::exit(1);
  }
  return point;
}

std::string benchJsonPath() {
  const char* dir = std::getenv("STSYN_BENCH_DIR");
  std::string path = dir != nullptr ? std::string(dir) + "/" : std::string();
  return path + "BENCH_serve_load.json";
}

}  // namespace

int main() {
  const unsigned maxClients = envOr("STSYN_SERVE_LOAD_CLIENTS", 16);
  const unsigned requestsPerClient = envOr("STSYN_SERVE_LOAD_REQUESTS", 48);
  const unsigned workers = envOr("STSYN_SERVE_LOAD_WORKERS", 4);

  std::vector<SweepPoint> points;
  for (const unsigned n : {1u, 2u, 4u, 8u, 16u}) {
    if (n > maxClients) break;
    points.push_back(runSweepPoint(n, requestsPerClient, workers));
    const SweepPoint& p = points.back();
    std::printf(
        "N=%-2u  %6llu req in %6.2fs  %8.1f req/s  p50 %7.2fms  p90 %7.2fms"
        "  p99 %7.2fms  rejected %llu  cache hits %llu\n",
        p.clients, static_cast<unsigned long long>(p.requests),
        p.wallSeconds, p.throughputPerSec, p.p50Ms, p.p90Ms, p.p99Ms,
        static_cast<unsigned long long>(p.rejected),
        static_cast<unsigned long long>(p.cacheHits));
  }

  stsyn::util::Table table({"clients", "requests", "wall_s", "req_per_s",
                            "p50_ms", "p90_ms", "p99_ms", "rejected",
                            "cache_hits"});
  for (const SweepPoint& p : points) {
    table.addRow({stsyn::util::Table::cell(static_cast<std::size_t>(
                      p.clients)),
                  stsyn::util::Table::cell(static_cast<std::size_t>(
                      p.requests)),
                  stsyn::util::Table::cell(p.wallSeconds),
                  stsyn::util::Table::cell(p.throughputPerSec),
                  stsyn::util::Table::cell(p.p50Ms),
                  stsyn::util::Table::cell(p.p90Ms),
                  stsyn::util::Table::cell(p.p99Ms),
                  stsyn::util::Table::cell(static_cast<std::size_t>(
                      p.rejected)),
                  stsyn::util::Table::cell(static_cast<std::size_t>(
                      p.cacheHits))});
  }
  std::printf("\n=== serve v2 concurrent load sweep ===\n");
  table.printAligned(std::cout);
  std::printf("\nCSV:\n");
  table.printCsv(std::cout);

  const std::string path = benchJsonPath();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "serve_load: cannot write %s\n", path.c_str());
    return 1;
  }
  {
    stsyn::obs::JsonWriter w(out);
    w.beginObject();
    w.field("schema_version", stsyn::core::kStatsJsonSchemaVersion);
    w.field("bench", "serve_load");
    w.field("requests_per_client",
            static_cast<std::uint64_t>(requestsPerClient));
    w.field("workers", static_cast<std::uint64_t>(workers));
    w.key("records");
    w.beginArray();
    for (const SweepPoint& p : points) {
      w.beginObject();
      w.field("clients", static_cast<std::uint64_t>(p.clients));
      w.field("requests", p.requests);
      w.field("wall_seconds", p.wallSeconds);
      w.field("throughput_per_sec", p.throughputPerSec);
      w.field("p50_ms", p.p50Ms);
      w.field("p90_ms", p.p90Ms);
      w.field("p99_ms", p.p99Ms);
      w.field("rejected", p.rejected);
      w.field("rejection_rate",
              p.requests > 0 ? static_cast<double>(p.rejected) /
                                   static_cast<double>(p.requests)
                             : 0);
      w.field("cache_hits", p.cacheHits);
      w.field("cache_hit_rate",
              p.serverCompleted > 0
                  ? static_cast<double>(p.cacheHits) /
                        static_cast<double>(p.serverCompleted)
                  : 0);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  out << '\n';
  std::printf("\nwrote %s (%zu records)\n", path.c_str(), points.size());
  return out.good() ? 0 : 1;
}

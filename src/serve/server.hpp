// The stsyn serve daemon: synthesis-as-a-service over a TCP socket.
//
// Wire protocol v2 (docs/serve.md): a connection is a SESSION that stays
// open across frames. The client pipelines any number of length-prefixed
// JSON requests; each may carry a client-chosen "id" that is echoed as
// the first field of its response, so responses are free to complete out
// of order (two workers finishing pipelined jobs race; the id is the
// correlation). Verbs:
//
//   {"id":7,"verb":"synthesize","protocol":"<stsyn text>",
//    "options":{...},"timeout_ms":N}
//   {"verb":"lint","protocol":"<stsyn text>","options":{...}}
//   {"verb":"ping"} | {"verb":"stats"} | {"verb":"shutdown"}
//
// Architecture: ONE event-loop thread owns every socket. It runs a
// poll() readiness loop over the listening socket, a wake pipe, and all
// live sessions; non-blocking reads feed per-connection FrameReaders, so
// a slow-loris client trickling bytes holds exactly its own buffer and
// nothing else — accept and every other session keep being serviced.
// Control verbs (ping/stats/shutdown) and lint are answered inline on
// the loop; synthesize requests are validated on the loop (options,
// protocol parse) and then admitted to a FairQueue: per-client FIFOs
// drained round-robin by the worker pool, a per-client in-flight cap,
// and a global capacity bound. Both rejection causes answer
// "kind":"rejected", distinguished by "reason": "queue_full" vs
// "client_capped".
//
// Workers never touch sockets: they render a complete response frame and
// append it to the session's outbound buffer; the loop drains buffers as
// sockets become writable. Each job builds — and destroys — its
// thread-confined bdd::Manager entirely on its worker; per-request
// deadlines ride the util::CancelToken the fixpoint loops already poll.
//
// Results are cached by canonical content (serve/cache.hpp); a hit skips
// synthesis and replays the stored program + stats document byte-for-
// byte with "cache_hit":true. With --cache-dir the cache is persistent:
// entries are versioned on-disk documents (serve/persist.hpp) loaded on
// start; a corrupt, truncated or oversized entry is skipped as a miss, so
// a restarted daemon answers warm requests without re-deriving anything.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cli/options.hpp"
#include "protocol/protocol.hpp"
#include "serve/cache.hpp"
#include "serve/fairness.hpp"
#include "serve/session.hpp"

namespace stsyn::obs {
struct JsonValue;
}

namespace stsyn::serve {

struct ServeOptions {
  unsigned port = 0;  ///< 0 = ephemeral; Server::port() has the real one
  unsigned workers = 2;
  unsigned queueCapacity = 16;
  unsigned cacheCapacity = 64;
  /// Per-client (= per-connection) cap on queued + running jobs; a
  /// pipelining client over this budget is rejected with
  /// "reason":"client_capped" even when the queue has room.
  unsigned maxInflight = 8;
  /// When non-empty, the result cache persists across daemon runs as
  /// versioned documents under this directory.
  std::string cacheDir;
};

/// Monotonic counters reported by the stats verb. Mirrored into
/// obs::Tracer counter events so a --trace of the daemon shows the same
/// series. Reconciliation invariants (pinned by test_serve_v2):
///   requests   == synthesize + lint + inlineVerbs + invalid
///   synthesize == completed + rejected   (once the queue is drained)
///   rejected   == rejectedQueueFull + rejectedCapped
///   cacheHits + cacheMisses == completed
struct ServeCounters {
  std::atomic<std::uint64_t> sessions{0};        ///< connections accepted
  std::atomic<std::uint64_t> requests{0};        ///< frames received
  std::atomic<std::uint64_t> synthesize{0};      ///< valid synthesize frames
  std::atomic<std::uint64_t> lint{0};            ///< valid lint frames
  std::atomic<std::uint64_t> inlineVerbs{0};     ///< ping + stats + shutdown
  std::atomic<std::uint64_t> completed{0};       ///< synthesize jobs answered
  std::atomic<std::uint64_t> cacheHits{0};
  std::atomic<std::uint64_t> cacheMisses{0};
  std::atomic<std::uint64_t> rejected{0};        ///< all rejections
  std::atomic<std::uint64_t> rejectedQueueFull{0};
  std::atomic<std::uint64_t> rejectedCapped{0};  ///< fairness cap hit
  std::atomic<std::uint64_t> deadlineExceeded{0};
  std::atomic<std::uint64_t> invalid{0};         ///< malformed requests
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:<port>, loads the persistent cache when configured,
  /// and spawns the event-loop and worker threads. Returns false (with
  /// `error` set) when the socket cannot be bound.
  [[nodiscard]] bool start(std::string& error);

  /// The bound port (valid after start()).
  [[nodiscard]] int port() const { return port_; }

  /// Stops accepting, answers still-queued jobs with shutting_down,
  /// flushes every session's pending responses, joins every thread.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Blocks until stop() is triggered (by the shutdown verb or a call
  /// from another thread).
  void waitUntilStopped();

  [[nodiscard]] const ServeCounters& counters() const { return counters_; }
  [[nodiscard]] std::size_t queueDepth() const;

  /// Entries loaded from --cache-dir at start / files rejected as
  /// corrupt (valid after start()).
  [[nodiscard]] std::size_t cacheEntriesLoaded() const { return cacheLoaded_; }
  [[nodiscard]] std::size_t cacheEntriesRejected() const {
    return cacheRejected_;
  }

  /// Test hook: while held, workers do not dequeue jobs — lets tests
  /// fill the bounded queue deterministically.
  void holdJobs(bool hold);

 private:
  struct Job {
    std::shared_ptr<Session> session;
    std::string idJson;  ///< rendered "id" value; empty = request had none
    protocol::Protocol proto;
    cli::Options opt;
  };

  void eventLoop();
  void workerLoop(unsigned index);
  void wakeLoop();
  /// Sets stopping_ and wakes every waiter (workers, waitUntilStopped,
  /// the poll loop) without missed-wakeup races.
  void signalStop();
  void acceptPending();
  /// Reads whatever the socket has, dispatches completed frames.
  /// Returns false when the session must be dropped immediately.
  [[nodiscard]] bool serviceReadable(const std::shared_ptr<Session>& session);
  void handleFrame(const std::shared_ptr<Session>& session,
                   const std::string& payload);
  void handleLint(const std::shared_ptr<Session>& session,
                  const std::string& idJson, const obs::JsonValue& doc);
  void dispatchSynthesize(const std::shared_ptr<Session>& session,
                          const std::string& idJson,
                          const obs::JsonValue& doc);
  void runJob(const Job& job);

  /// Renders + enqueues one response frame on the session (any thread).
  void respond(const std::shared_ptr<Session>& session,
               const std::string& payload);
  void respondError(const std::shared_ptr<Session>& session,
                    const std::string& idJson, const char* kind,
                    const std::string& message, const char* reason = nullptr);
  [[nodiscard]] std::string statsJson(const std::string& idJson) const;

  ServeOptions options_;
  ServeCounters counters_;
  ResultCache cache_;
  std::size_t cacheLoaded_ = 0;
  std::size_t cacheRejected_ = 0;

  int listenFd_ = -1;
  int port_ = 0;
  int wakePipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> hold_{false};
  std::atomic<unsigned> busyWorkers_{0};

  mutable std::mutex queueMutex_;
  std::condition_variable queueCv_;
  FairQueue<Job> queue_;

  /// Live sessions, event-loop thread only (stop() touches it after the
  /// loop has been joined).
  std::unordered_map<int, std::shared_ptr<Session>> sessions_;
  std::uint64_t nextSessionId_ = 1;

  std::mutex stopMutex_;
  std::condition_variable stopCv_;

  std::thread loop_;
  std::vector<std::thread> workers_;
};

/// The `stsyn serve` subcommand: starts a Server from the parsed CLI
/// options, prints the listening address to `out`, and blocks until a
/// shutdown request arrives. Ignores SIGPIPE for the process (a client
/// vanishing mid-response must surface as a write error on that session,
/// never kill the daemon). Returns the process exit status.
int runServe(const cli::Options& options, std::ostream& out,
             std::ostream& err);

}  // namespace stsyn::serve

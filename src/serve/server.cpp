#include "serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cli/driver.hpp"
#include "core/stats.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/frame.hpp"

namespace stsyn::serve {

namespace {

/// Display path used for lint-verb SARIF documents: requests arrive as
/// in-memory text, so there is no real file to point at.
constexpr const char* kLintDisplayPath = "request.stsyn";

/// Ceiling for a numeric request "id": the largest integer a JSON double
/// carries exactly, so the echo is byte-faithful.
constexpr std::uint64_t kMaxRequestId = std::uint64_t{1} << 53;

/// Bumps a monotonic counter and mirrors it into the tracer so a --trace
/// of the daemon carries the same series the stats verb reports.
void bump(std::atomic<std::uint64_t>& c, const char* name) {
  const std::uint64_t v = c.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::Tracer::global().counter(name, static_cast<double>(v));
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Reads an unsigned integer request field: a JSON number (integral,
/// in range) or a decimal string routed through the same strict
/// cli::parseUint the command line uses.
bool getUint(const obs::JsonValue& v, std::uint64_t maxValue,
             std::uint64_t& out) {
  if (v.kind == obs::JsonValue::Kind::Number) {
    if (!(v.number >= 0) || v.number != std::floor(v.number) ||
        v.number > static_cast<double>(maxValue)) {
      return false;
    }
    out = static_cast<std::uint64_t>(v.number);
    return true;
  }
  if (v.kind == obs::JsonValue::Kind::String) {
    const auto parsed = cli::parseUint(v.str, maxValue);
    if (!parsed.has_value()) return false;
    out = *parsed;
    return true;
  }
  return false;
}

bool getBool(const obs::JsonValue& v, bool& out) {
  if (v.kind != obs::JsonValue::Kind::Bool) return false;
  out = v.boolean;
  return true;
}

/// Renders the request's "id" for verbatim echo. Accepted shapes: a
/// non-negative integer (exact in a double) or a string. Returns false
/// for anything else — a lossy echo would break client correlation.
bool renderRequestId(const obs::JsonValue& v, std::string& idJson) {
  if (v.kind == obs::JsonValue::Kind::Number) {
    std::uint64_t n = 0;
    if (!getUint(v, kMaxRequestId, n)) return false;
    idJson = std::to_string(n);
    return true;
  }
  if (v.kind == obs::JsonValue::Kind::String) {
    idJson = obs::jsonQuote(v.str);
    return true;
  }
  return false;
}

/// Applies the request's "options" object onto a cli::Options. The
/// validator is strict: unknown keys and ill-typed values fail the whole
/// request, because a silently ignored option would return a cached or
/// fresh result for a different run than the client asked for.
bool applyRequestOptions(const obs::JsonValue& opts, cli::Options& o,
                         std::string& error) {
  if (opts.kind != obs::JsonValue::Kind::Object) {
    error = "\"options\" must be an object";
    return false;
  }
  unsigned portfolio = 0;
  bool weak = false;
  bool verify = false;
  for (const auto& [key, value] : opts.members) {
    std::uint64_t n = 0;
    bool b = false;
    if (key == "weak") {
      if (!getBool(value, weak)) {
        error = "weak must be a boolean";
        return false;
      }
    } else if (key == "verify") {
      if (!getBool(value, verify)) {
        error = "verify must be a boolean";
        return false;
      }
    } else if (key == "portfolio") {
      if (!getUint(value, cli::kMaxPortfolioThreads, n)) {
        error = "portfolio must be an unsigned integer <= 4096";
        return false;
      }
      portfolio = static_cast<unsigned>(n);
    } else if (key == "schedule") {
      if (value.kind != obs::JsonValue::Kind::String) {
        error = "schedule must be a string";
        return false;
      }
      o.scheduleArg = value.str;
    } else if (key == "max_pass") {
      if (!getUint(value, 3, n) || n == 0) {
        error = "max_pass must be 1, 2 or 3";
        return false;
      }
      o.strong.maxPass = static_cast<int>(n);
    } else if (key == "no_greedy") {
      if (!getBool(value, b)) {
        error = "no_greedy must be a boolean";
        return false;
      }
      o.strong.greedyCycleResolution = !b;
    } else {
      error = "unknown option '" + key + "'";
      return false;
    }
  }
  o.portfolio = portfolio;
  if (!o.scheduleArg.empty() && portfolio > 0) {
    error = "schedule conflicts with portfolio (every portfolio instance "
            "runs its own schedule)";
    return false;
  }
  if (weak && verify) {
    error = "weak and verify are mutually exclusive";
    return false;
  }
  if (weak) o.mode = cli::Mode::Weak;
  if (verify) o.mode = cli::Mode::Verify;
  return true;
}

/// The lint verb's option subset; strict like applyRequestOptions.
bool applyLintOptions(const obs::JsonValue& opts, cli::Options& o,
                      std::string& error) {
  if (opts.kind != obs::JsonValue::Kind::Object) {
    error = "\"options\" must be an object";
    return false;
  }
  for (const auto& [key, value] : opts.members) {
    bool b = false;
    if (key == "werror") {
      if (!getBool(value, b)) {
        error = "werror must be a boolean";
        return false;
      }
      o.werror = b;
    } else {
      error = "unknown option '" + key + "'";
      return false;
    }
  }
  return true;
}

/// Every option that can change the produced document, rendered into the
/// cache key, after the document's schema version (so a persisted entry
/// written under another schema is a miss, not a replay). timeout_ms is
/// deliberately absent: a cached result answers any deadline instantly,
/// so two requests differing only in budget share an entry.
std::string optionsFingerprint(const cli::Options& o) {
  std::ostringstream key;
  key << "schema=" << core::kStatsJsonSchemaVersion
      << ";mode=" << static_cast<int>(o.mode) << ";maxPass=" << o.strong.maxPass
      << ";greedy=" << o.strong.greedyCycleResolution
      << ";portfolio=" << o.portfolio << ";schedule=" << o.scheduleArg;
  return key.str();
}

/// The canonical cache key: printer round-trip of the parsed protocol
/// (formatting-insensitive; it prints every domain, read and write set,
/// action, local predicate and the invariant) and the option string.
std::string canonicalKey(const protocol::Protocol& p,
                         const cli::Options& opt) {
  std::string key = lang::printProtocol(p);
  key += "\n--options--\n";
  key += optionsFingerprint(opt);
  return key;
}

/// Opens the response envelope, echoing the request id first (when
/// present) so every byte after it is id-independent — the keep-alive
/// differential compares exactly that suffix.
void beginEnvelope(obs::JsonWriter& w, const std::string& idJson) {
  w.beginObject();
  if (!idJson.empty()) {
    w.key("id");
    w.raw(idJson);
  }
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(options),
      cache_(options.cacheCapacity),
      queue_(options.queueCapacity, options.maxInflight) {}

Server::~Server() { stop(); }

bool Server::start(std::string& error) {
  if (!options_.cacheDir.empty()) {
    cacheLoaded_ = cache_.enablePersistence(options_.cacheDir,
                                            &cacheRejected_);
  }

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listenFd_, 64) < 0) {
    error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  setNonBlocking(listenFd_);

  if (::pipe(wakePipe_) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }
  setNonBlocking(wakePipe_[0]);
  setNonBlocking(wakePipe_[1]);

  loop_ = std::thread([this] { eventLoop(); });
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
  return true;
}

void Server::signalStop() {
  stopping_.store(true);
  // Fence through each condition's mutex before notifying: a waiter that
  // just evaluated its predicate still holds the mutex, so acquiring it
  // here orders this store before the wait — no missed wake-up.
  { const std::lock_guard<std::mutex> lock(queueMutex_); }
  queueCv_.notify_all();
  { const std::lock_guard<std::mutex> lock(stopMutex_); }
  stopCv_.notify_all();
  wakeLoop();
}

void Server::stop() {
  const bool wasStopping = stopping_.exchange(true);
  signalStop();
  if (wasStopping && !loop_.joinable() && workers_.empty()) return;

  if (loop_.joinable()) loop_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // Jobs still queued never ran; tell their clients instead of hanging
  // them until they give up.
  std::vector<Job> leftovers;
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    leftovers = queue_.drain();
  }
  for (const Job& job : leftovers) {
    respondError(job.session, job.idJson, "shutting_down",
                 "daemon is shutting down");
  }
  // Best-effort delivery of everything still buffered (the shutdown
  // verb's own response, late worker results, the shutting_down errors).
  for (auto& [fd, session] : sessions_) {
    session->flushBlocking();
    session->close();
  }
  sessions_.clear();

  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  for (int& fd : wakePipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Server::waitUntilStopped() {
  std::unique_lock<std::mutex> lock(stopMutex_);
  stopCv_.wait(lock, [this] { return stopping_.load(); });
}

std::size_t Server::queueDepth() const {
  const std::lock_guard<std::mutex> lock(queueMutex_);
  return queue_.depth();
}

void Server::holdJobs(bool hold) {
  hold_.store(hold);
  { const std::lock_guard<std::mutex> lock(queueMutex_); }
  queueCv_.notify_all();
}

void Server::wakeLoop() {
  if (wakePipe_[1] >= 0) {
    const char byte = 1;
    // Non-blocking: a full pipe already guarantees a pending wake-up.
    (void)::write(wakePipe_[1], &byte, 1);
  }
}

void Server::eventLoop() {
  obs::Tracer::global().setThreadName("serve-loop");
  std::vector<pollfd> fds;
  std::vector<int> toDrop;
  while (!stopping_.load()) {
    fds.clear();
    fds.push_back({listenFd_, POLLIN, 0});
    fds.push_back({wakePipe_[0], POLLIN, 0});
    for (const auto& [fd, session] : sessions_) {
      short events = POLLIN;
      if (session->hasPendingOutput()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // unrecoverable poll failure
    }
    if (stopping_.load()) break;

    if ((fds[1].revents & POLLIN) != 0) {
      char sink[256];
      while (::read(wakePipe_[0], sink, sizeof sink) > 0) {
      }
    }
    if ((fds[0].revents & (POLLIN | POLLERR)) != 0) acceptPending();

    toDrop.clear();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const auto it = sessions_.find(fds[i].fd);
      if (it == sessions_.end()) continue;
      const std::shared_ptr<Session>& session = it->second;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!serviceReadable(session)) {
          toDrop.push_back(fds[i].fd);
          continue;
        }
      }
      if (session->hasPendingOutput() && !session->flushSome()) {
        toDrop.push_back(fds[i].fd);
        continue;
      }
      // A half-closed session dies once nothing more is owed to it.
      if (session->peerClosed() && session->owedResponses() == 0 &&
          !session->hasPendingOutput()) {
        toDrop.push_back(fds[i].fd);
      }
    }
    // Worker completions may have filled buffers of sessions poll()
    // reported nothing for; drain those too before sleeping again.
    for (const auto& [fd, session] : sessions_) {
      if (session->hasPendingOutput() && !session->flushSome()) {
        toDrop.push_back(fd);
      }
    }
    for (const int fd : toDrop) {
      const auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;
      it->second->close();
      sessions_.erase(it);
    }
  }
  // Final courtesy pass: anything already buffered gets one non-blocking
  // flush before stop() switches to blocking delivery.
  for (const auto& [fd, session] : sessions_) {
    (void)session->flushSome();
  }
}

void Server::acceptPending() {
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: drained. EINTR: retry next loop turn. Anything else on a
      // non-blocking listener is transient (e.g. the peer reset before
      // accept); never kill the loop for it.
      return;
    }
    setNonBlocking(fd);
    // Replies are small frames written as they complete; with Nagle on, a
    // worker's reply behind an inline one would wait for the peer's
    // delayed ACK (~40 ms).
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    bump(counters_.sessions, "serve/sessions");
    sessions_.emplace(fd, std::make_shared<Session>(fd, nextSessionId_++));
  }
}

bool Server::serviceReadable(const std::shared_ptr<Session>& session) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(session->fd(), buf, sizeof buf, 0);
    if (n == 0) {
      session->markPeerClosed();
      // A partial frame at EOF is simply torn — there is nobody left to
      // answer; pending responses for earlier frames still get flushed.
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // connection error: drop
    }
    session->reader().feed(
        std::string_view(buf, static_cast<std::size_t>(n)));
  }

  std::string payload;
  for (;;) {
    const FrameReader::Status status = session->reader().next(payload);
    if (status == FrameReader::Status::NeedMore) break;
    if (status == FrameReader::Status::TooLarge) {
      // The stream cannot be resynchronized past a hostile header. Tell
      // the client why, then drop it; responses already owed are lost
      // with the connection (the client broke the framing contract).
      bump(counters_.invalid, "serve/invalid");
      respondError(session, "", "invalid_request",
                   "frame exceeds the 64 MiB payload cap");
      (void)session->flushSome();
      return false;
    }
    handleFrame(session, payload);
    if (session->closed()) return false;
  }
  return true;
}

void Server::handleFrame(const std::shared_ptr<Session>& session,
                         const std::string& payload) {
  bump(counters_.requests, "serve/requests");

  std::string parseError;
  const auto doc = obs::parseJson(payload, &parseError);
  if (!doc.has_value() || !doc->isObject()) {
    bump(counters_.invalid, "serve/invalid");
    respondError(session, "", "invalid_request",
                 doc.has_value() ? "request must be a JSON object"
                                 : "bad JSON: " + parseError);
    return;
  }

  std::string idJson;
  if (const obs::JsonValue* id = doc->find("id")) {
    if (!renderRequestId(*id, idJson)) {
      bump(counters_.invalid, "serve/invalid");
      respondError(session, "", "invalid_request",
                   "\"id\" must be a non-negative integer or a string");
      return;
    }
  }

  const obs::JsonValue* verb = doc->find("verb");
  if (verb == nullptr || verb->kind != obs::JsonValue::Kind::String) {
    bump(counters_.invalid, "serve/invalid");
    respondError(session, idJson, "invalid_request",
                 "missing string field \"verb\"");
    return;
  }

  if (verb->str == "ping") {
    bump(counters_.inlineVerbs, "serve/inline");
    std::ostringstream response;
    obs::JsonWriter w(response);
    beginEnvelope(w, idJson);
    w.field("ok", true);
    w.field("verb", "pong");
    w.endObject();
    respond(session, response.str());
    return;
  }
  if (verb->str == "stats") {
    bump(counters_.inlineVerbs, "serve/inline");
    respond(session, statsJson(idJson));
    return;
  }
  if (verb->str == "shutdown") {
    bump(counters_.inlineVerbs, "serve/inline");
    std::ostringstream response;
    obs::JsonWriter w(response);
    beginEnvelope(w, idJson);
    w.field("ok", true);
    w.field("verb", "shutdown");
    w.endObject();
    respond(session, response.str());
    (void)session->flushSome();
    // Flip the flag and wake waitUntilStopped(); the owner thread calls
    // stop(), which joins us and delivers anything still buffered.
    signalStop();
    return;
  }
  if (verb->str == "lint") {
    handleLint(session, idJson, *doc);
    return;
  }
  if (verb->str != "synthesize") {
    bump(counters_.invalid, "serve/invalid");
    respondError(session, idJson, "invalid_request",
                 "unknown verb '" + verb->str + "'");
    return;
  }
  dispatchSynthesize(session, idJson, *doc);
}

void Server::handleLint(const std::shared_ptr<Session>& session,
                        const std::string& idJson,
                        const obs::JsonValue& doc) {
  const obs::JsonValue* source = doc.find("protocol");
  if (source == nullptr || source->kind != obs::JsonValue::Kind::String) {
    bump(counters_.invalid, "serve/invalid");
    respondError(session, idJson, "invalid_request",
                 "missing string field \"protocol\"");
    return;
  }
  cli::Options opt;
  opt.lintFormat = "sarif";
  std::string validationError;
  if (const obs::JsonValue* options = doc.find("options")) {
    if (!applyLintOptions(*options, opt, validationError)) {
      bump(counters_.invalid, "serve/invalid");
      respondError(session, idJson, "invalid_request", validationError);
      return;
    }
  }
  bump(counters_.lint, "serve/lint");

  // Answered inline: both lint tiers are bounded (the parser's depth and
  // size budgets cap hostile input) and lintSource never throws — the
  // adversarial wall pins that.
  std::ostringstream sarif;
  const int exitCode =
      cli::runLintSource(source->str, kLintDisplayPath, opt, sarif);

  std::ostringstream response;
  obs::JsonWriter w(response);
  beginEnvelope(w, idJson);
  w.field("ok", true);
  w.field("verb", "lint");
  w.field("exit_code", exitCode);
  w.key("sarif");
  w.raw(sarif.str());
  w.endObject();
  respond(session, response.str());
}

void Server::dispatchSynthesize(const std::shared_ptr<Session>& session,
                                const std::string& idJson,
                                const obs::JsonValue& doc) {
  const obs::JsonValue* source = doc.find("protocol");
  if (source == nullptr || source->kind != obs::JsonValue::Kind::String) {
    bump(counters_.invalid, "serve/invalid");
    respondError(session, idJson, "invalid_request",
                 "missing string field \"protocol\"");
    return;
  }

  cli::Options opt;
  opt.quiet = true;  // the narration still goes into "console", minus
                     // the per-action dump nobody reads over a socket
  std::string validationError;
  if (const obs::JsonValue* options = doc.find("options")) {
    if (!applyRequestOptions(*options, opt, validationError)) {
      bump(counters_.invalid, "serve/invalid");
      respondError(session, idJson, "invalid_request", validationError);
      return;
    }
  }
  if (const obs::JsonValue* timeout = doc.find("timeout_ms")) {
    if (!getUint(*timeout, cli::kMaxTimeoutMs, opt.timeoutMs)) {
      bump(counters_.invalid, "serve/invalid");
      respondError(session, idJson, "invalid_request",
                   "timeout_ms must be an unsigned integer of milliseconds");
      return;
    }
  }

  // Parse on the loop: it is cheap (text only, no BDDs, hard budgets in
  // the lexer/parser), and it means every job that reaches the queue
  // runs to completion — the counter reconciliation invariant
  // `synthesize == completed + rejected` holds exactly.
  Job job;
  try {
    job.proto = lang::parseProtocol(source->str);
  } catch (const lang::ParseError& e) {
    bump(counters_.invalid, "serve/invalid");
    respondError(session, idJson, "parse_error", e.what());
    return;
  } catch (const std::exception& e) {
    bump(counters_.invalid, "serve/invalid");
    respondError(session, idJson, "invalid_request", e.what());
    return;
  }
  job.session = session;
  job.idJson = idJson;
  job.opt = std::move(opt);

  bump(counters_.synthesize, "serve/synthesize");
  Admission verdict = Admission::Admitted;
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    verdict = queue_.push(session->id(), std::move(job));
    if (verdict == Admission::Admitted) {
      session->jobStarted();
      obs::Tracer::global().counter("serve/queue_depth",
                                    static_cast<double>(queue_.depth()));
    }
  }
  switch (verdict) {
    case Admission::Admitted:
      queueCv_.notify_one();
      return;
    case Admission::QueueFull:
      bump(counters_.rejected, "serve/rejected");
      bump(counters_.rejectedQueueFull, "serve/rejected_queue_full");
      respondError(session, idJson, "rejected", "work queue is full",
                   "queue_full");
      return;
    case Admission::ClientCapped:
      bump(counters_.rejected, "serve/rejected");
      bump(counters_.rejectedCapped, "serve/rejected_client_capped");
      respondError(session, idJson, "rejected",
                   "per-client in-flight cap reached", "client_capped");
      return;
  }
}

void Server::workerLoop(unsigned index) {
  obs::Tracer::global().setThreadName("serve-worker-" +
                                      std::to_string(index));
  for (;;) {
    Job job;
    std::uint64_t client = 0;
    {
      std::unique_lock<std::mutex> lock(queueMutex_);
      queueCv_.wait(lock, [this] {
        return stopping_.load() || (queue_.depth() > 0 && !hold_.load());
      });
      if (stopping_.load()) return;  // stop() answers the leftovers
      if (!queue_.pop(job, client)) continue;
      obs::Tracer::global().counter("serve/queue_depth",
                                    static_cast<double>(queue_.depth()));
    }
    busyWorkers_.fetch_add(1, std::memory_order_relaxed);
    try {
      runJob(job);
    } catch (const std::exception& e) {
      respondError(job.session, job.idJson, "internal_error", e.what());
    }
    // Order matters: the response is buffered before the owed-response
    // count drops, so the event loop can never reap the session between
    // the two; the fairness charge is released last.
    job.session->jobFinished();
    {
      const std::lock_guard<std::mutex> lock(queueMutex_);
      queue_.finish(client);
    }
    wakeLoop();
    busyWorkers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::runJob(const Job& job) {
  const std::string key = canonicalKey(job.proto, job.opt);
  if (const auto cached = cache_.lookup(key)) {
    bump(counters_.cacheHits, "serve/cache_hits");
    bump(counters_.completed, "serve/completed");
    std::ostringstream response;
    obs::JsonWriter w(response);
    beginEnvelope(w, job.idJson);
    w.field("ok", true);
    w.field("cache_hit", true);
    w.key("result");
    w.raw(*cached);  // byte-identical replay of program + stats document
    w.endObject();
    respond(job.session, response.str());
    return;
  }
  bump(counters_.cacheMisses, "serve/cache_misses");

  const obs::Span span("serve_synthesize", "serve");
  cli::Report report;
  std::ostringstream console;
  const cli::RunOutcome outcome =
      cli::runProtocol(job.proto, job.opt, report, console, console);

  std::ostringstream result;
  {
    obs::JsonWriter w(result);
    w.beginObject();
    w.field("exit_code", outcome.exitCode);
    w.field("success", report.success);
    w.field("verified", report.verified);
    w.field("deadline_exceeded", outcome.deadlineExceeded);
    w.field("program", outcome.program);
    w.key("stats");
    w.raw(report.renderStatsJson());
    w.field("console", console.str());
    w.endObject();
  }

  if (outcome.deadlineExceeded) {
    // A timed-out run is a statement about the budget, not the protocol;
    // caching it would poison every future request for this input.
    bump(counters_.deadlineExceeded, "serve/deadline_exceeded");
  } else {
    cache_.insert(key, result.str());
  }
  bump(counters_.completed, "serve/completed");

  std::ostringstream response;
  obs::JsonWriter w(response);
  beginEnvelope(w, job.idJson);
  w.field("ok", true);
  w.field("cache_hit", false);
  w.key("result");
  w.raw(result.str());
  w.endObject();
  respond(job.session, response.str());
}

void Server::respond(const std::shared_ptr<Session>& session,
                     const std::string& payload) {
  try {
    (void)session->enqueue(encodeFrame(payload));
  } catch (const std::exception&) {
    // Oversized response (cannot happen for well-formed results, which
    // are bounded by the input caps); nothing deliverable.
  }
}

void Server::respondError(const std::shared_ptr<Session>& session,
                          const std::string& idJson, const char* kind,
                          const std::string& message, const char* reason) {
  std::ostringstream response;
  obs::JsonWriter w(response);
  beginEnvelope(w, idJson);
  w.field("ok", false);
  w.field("kind", kind);
  if (reason != nullptr) w.field("reason", reason);
  w.field("error", message);
  w.endObject();
  respond(session, response.str());
}

std::string Server::statsJson(const std::string& idJson) const {
  std::ostringstream out;
  obs::JsonWriter w(out);
  beginEnvelope(w, idJson);
  w.field("ok", true);
  w.key("counters");
  w.beginObject();
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  w.field("sessions", get(counters_.sessions));
  w.field("requests", get(counters_.requests));
  w.field("synthesize", get(counters_.synthesize));
  w.field("lint", get(counters_.lint));
  w.field("inline", get(counters_.inlineVerbs));
  w.field("completed", get(counters_.completed));
  w.field("cache_hits", get(counters_.cacheHits));
  w.field("cache_misses", get(counters_.cacheMisses));
  w.field("cache_size", static_cast<std::uint64_t>(cache_.size()));
  w.field("cache_loaded", static_cast<std::uint64_t>(cacheLoaded_));
  w.field("rejected", get(counters_.rejected));
  w.field("rejected_queue_full", get(counters_.rejectedQueueFull));
  w.field("rejected_client_capped", get(counters_.rejectedCapped));
  w.field("deadline_exceeded", get(counters_.deadlineExceeded));
  w.field("invalid", get(counters_.invalid));
  w.field("queue_depth", static_cast<std::uint64_t>(queueDepth()));
  w.field("busy_workers",
          static_cast<std::uint64_t>(busyWorkers_.load()));
  w.field("workers", static_cast<std::uint64_t>(options_.workers));
  w.field("queue_capacity",
          static_cast<std::uint64_t>(options_.queueCapacity));
  w.field("max_inflight", static_cast<std::uint64_t>(options_.maxInflight));
  w.endObject();
  w.endObject();
  return out.str();
}

int runServe(const cli::Options& options, std::ostream& out,
             std::ostream& err) {
  // A client vanishing mid-response must surface as a write error on
  // that one session, never SIGPIPE the daemon. The event loop already
  // sends with MSG_NOSIGNAL; this covers every other descriptor.
  std::signal(SIGPIPE, SIG_IGN);

  ServeOptions serveOptions;
  serveOptions.port = options.servePort;
  serveOptions.workers = options.serveWorkers;
  serveOptions.queueCapacity = options.serveQueueCapacity;
  serveOptions.cacheCapacity = options.serveCacheCapacity;
  serveOptions.maxInflight = options.serveMaxInflight;
  serveOptions.cacheDir = options.serveCacheDir;
  if (!options.tracePath.empty()) obs::Tracer::global().enable();

  Server server(serveOptions);
  std::string error;
  if (!server.start(error)) {
    err << "stsyn serve: " << error << "\n";
    return 1;
  }
  out << "stsyn serve: listening on 127.0.0.1:" << server.port() << "\n";
  if (!serveOptions.cacheDir.empty()) {
    out << "stsyn serve: cache-dir " << serveOptions.cacheDir << " ("
        << server.cacheEntriesLoaded() << " entries loaded, "
        << server.cacheEntriesRejected() << " rejected)\n";
  }
  out.flush();
  server.waitUntilStopped();
  server.stop();
  if (!options.tracePath.empty()) {
    // The tracer's ring bounds what a long-running daemon holds; the file
    // reports how many older events it dropped.
    std::ofstream trace(options.tracePath);
    obs::Tracer::global().writeChromeTrace(trace);
    if (!trace.good()) {
      err << "stsyn serve: cannot write " << options.tracePath << "\n";
    }
  }
  out << "stsyn serve: shut down\n";
  return 0;
}

}  // namespace stsyn::serve

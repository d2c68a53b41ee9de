// Cooperative cancellation with deadlines.
//
// A CancelToken is a flag plus an optional monotonic-clock deadline. Long
// computations poll it at natural checkpoints — every relational product
// (symbolic::SymbolicProtocol::image / preimage) and sources(), which
// covers the backward BFS of ranking and verification, SCC detection,
// cycle cones and cycle extraction; the p_im build; and the heuristic's
// per-process pass loops — and unwind with CancelledError the first time
// it reports expiry. Polling sites never name a token directly: the
// current token is installed per thread with a CancelScope, and
// checkCancellation() is a no-op on threads with no scope, so library
// code pays one thread-local load when cancellation is unused.
//
// Consumers: `stsyn --timeout` (CLI) and the per-request deadlines of
// `stsyn serve` (src/serve/server.hpp). Both catch CancelledError at the
// request boundary; everything between unwinds through RAII, so a
// cancelled synthesis destroys its Manager cleanly.
//
// Tokens are thread-safe (cancel() may race checks from the computing
// thread), but a CancelScope is strictly thread-local: worker pools that
// fan a request out (core/portfolio.cpp) re-install the parent token in
// each worker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace stsyn::util {

/// Thrown by checkCancellation() (and CancelToken::check()) when the
/// current token is cancelled or past its deadline.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("deadline exceeded") {}
  explicit CancelledError(const char* what) : std::runtime_error(what) {}
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation; every subsequent expired() returns true.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// Sets an absolute monotonic-clock deadline.
  void setDeadline(std::chrono::steady_clock::time_point d) noexcept {
    deadlineNs_.store(d.time_since_epoch().count(),
                      std::memory_order_relaxed);
  }

  /// Sets the deadline `budget` from now; a non-positive budget expires
  /// the token immediately.
  void setTimeout(std::chrono::nanoseconds budget) noexcept {
    setDeadline(std::chrono::steady_clock::now() + budget);
  }

  [[nodiscard]] bool expired() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const std::int64_t d = deadlineNs_.load(std::memory_order_relaxed);
    return d != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

  /// Throws CancelledError when expired.
  void check() const {
    if (expired()) throw CancelledError();
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Deadline in steady_clock ns-since-epoch; 0 = no deadline.
  std::atomic<std::int64_t> deadlineNs_{0};
};

/// The token installed on the calling thread (nullptr when none).
[[nodiscard]] CancelToken* currentCancelToken() noexcept;

/// Checkpoint for long-running loops: throws CancelledError when the
/// calling thread's current token (if any) is expired.
void checkCancellation();

/// Installs `token` as the calling thread's current token for this
/// scope's lifetime and restores the previous one on exit. Passing
/// nullptr masks any outer token (used by code that must not be
/// interrupted, e.g. response rendering after a timed-out synthesis).
class CancelScope {
 public:
  explicit CancelScope(CancelToken* token) noexcept;
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken* prev_;
};

}  // namespace stsyn::util

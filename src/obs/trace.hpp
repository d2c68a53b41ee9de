// Structured observability: a lightweight span/event tracer.
//
// The tracer collects "complete" spans (name + category + start +
// duration + key/value args), counters, instants, and thread metadata
// into one process-global, thread-safe buffer, and renders them as
// Chrome trace_event JSON — loadable in about:tracing and
// https://ui.perfetto.dev (see docs/observability.md).
//
// Cost model: tracing is DISABLED by default. Every instrumentation site
// first checks one relaxed atomic flag, so a disabled span costs a
// load+branch and allocates nothing — cheap enough to leave in the BDD
// manager's GC path and the synthesis inner loops (the bdd_micro bench
// guards this). When enabled, events append under a mutex; the
// instrumented sites are coarse enough (phases, SCC detections, GC and
// reorder passes, portfolio instances) that contention is irrelevant.
//
// Memory is bounded: the buffer is a ring of kCapacity events. Once it is
// full each new event overwrites the oldest one and counts as dropped, so a
// long-running traced daemon keeps its most recent window and reports how
// much it lost (the rendered trace carries the count as metadata).
//
// Span nesting is implicit: trace viewers reconstruct the per-thread
// stack from the containment of [start, start+dur) intervals, which RAII
// scoping guarantees.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace stsyn::obs {

/// One key/value annotation on a trace event. `json` is the value
/// pre-rendered as a JSON literal (number, bool, or quoted string) so the
/// hot path never re-encodes.
struct TraceArg {
  std::string key;
  std::string json;
};

enum class EventKind : std::uint8_t {
  Complete,  ///< a span: ph "X" with ts + dur
  Counter,   ///< ph "C"
  Instant,   ///< ph "i"
  Metadata,  ///< ph "M" (thread_name)
};

struct TraceEvent {
  std::string name;
  const char* category = "stsyn";
  EventKind kind = EventKind::Complete;
  std::uint32_t tid = 0;
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
  std::vector<TraceArg> args;
};

/// Process-global sink. All methods are thread-safe; recording methods
/// are no-ops while disabled.
class Tracer {
 public:
  /// Ring size. At a few hundred bytes per event a full ring holds a few
  /// tens of MB.
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  static Tracer& global();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(TraceEvent e);
  void counter(std::string name, double value);
  void instant(std::string name, const char* category = "stsyn");
  /// Names the calling thread in trace viewers (ph "M" thread_name).
  void setThreadName(std::string name);

  /// Empties the buffer and resets the dropped-event count.
  void clear();
  /// Events currently held (at most kCapacity).
  [[nodiscard]] std::size_t eventCount() const;
  /// Events overwritten since the last clear() because the ring was full.
  [[nodiscard]] std::uint64_t droppedCount() const;
  /// The held events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Renders the held events as a Chrome trace_event JSON document, with
  /// kCapacity and the dropped-event count under "otherData".
  void writeChromeTrace(std::ostream& os) const;
  [[nodiscard]] std::string chromeTraceJson() const;

  /// Nanoseconds on the monotonic clock since the first call in this
  /// process (a stable zero keeps trace timestamps small and aligned).
  static std::int64_t nowNs();
  /// Small dense id of the calling thread (stable for its lifetime).
  static std::uint32_t threadId();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;  ///< grows to kCapacity, then wraps
  std::size_t head_ = 0;            ///< oldest event once events_ is full
  std::uint64_t dropped_ = 0;
};

/// RAII span: records one complete event covering its lifetime. The
/// enabled check happens once, at construction; a span created while the
/// tracer is disabled does nothing, including ignoring arg() calls.
class Span {
 public:
  explicit Span(const char* name, const char* category = "stsyn");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, double v);
  void arg(const char* key, std::size_t v);
  void arg(const char* key, int v);
  void arg(const char* key, bool v);
  void arg(const char* key, const std::string& v);
  [[nodiscard]] bool active() const { return active_; }

 private:
  bool active_;
  TraceEvent event_;
};

/// Span that additionally accumulates its wall-clock lifetime into a
/// running total — the bridge between the tracer and the flat
/// SynthesisStats seconds fields. Replaces util::ScopedAccumulator at
/// sites that want both attributions.
class AccumSpan {
 public:
  AccumSpan(double& total, const char* name, const char* category = "stsyn")
      : span_(name, category), total_(total) {}
  ~AccumSpan() { total_ += watch_.seconds(); }

  AccumSpan(const AccumSpan&) = delete;
  AccumSpan& operator=(const AccumSpan&) = delete;

  [[nodiscard]] Span& span() { return span_; }

 private:
  Span span_;
  double& total_;
  util::Stopwatch watch_;
};

}  // namespace stsyn::obs

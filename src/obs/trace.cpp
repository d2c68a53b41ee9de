#include "obs/trace.hpp"

#include <chrono>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace stsyn::obs {

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

std::uint32_t Tracer::threadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::record(TraceEvent e) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() < kCapacity) {
    events_.push_back(std::move(e));
    return;
  }
  events_[head_] = std::move(e);
  head_ = (head_ + 1) % kCapacity;
  ++dropped_;
}

void Tracer::counter(std::string name, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.kind = EventKind::Counter;
  e.tid = threadId();
  e.startNs = nowNs();
  e.args.push_back({"value", jsonNumber(value)});
  record(std::move(e));
}

void Tracer::instant(std::string name, const char* category) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.category = category;
  e.kind = EventKind::Instant;
  e.tid = threadId();
  e.startNs = nowNs();
  record(std::move(e));
}

void Tracer::setThreadName(std::string name) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = "thread_name";
  e.kind = EventKind::Metadata;
  e.tid = threadId();
  e.args.push_back({"name", jsonQuote(name)});
  record(std::move(e));
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

std::size_t Tracer::eventCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t Tracer::droppedCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out(events_.begin() + head_, events_.end());
  out.insert(out.end(), events_.begin(), events_.begin() + head_);
  return out;
}

void Tracer::writeChromeTrace(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(os);
  w.beginObject();
  w.field("displayTimeUnit", "ms");
  w.key("otherData");
  w.beginObject();
  w.field("trace_capacity", static_cast<std::uint64_t>(kCapacity));
  w.field("dropped_events", dropped_);
  w.endObject();
  w.key("traceEvents");
  w.beginArray();
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[(head_ + i) % events_.size()];
    w.beginObject();
    w.field("name", e.name);
    w.field("cat", e.category);
    const char* ph = "X";
    switch (e.kind) {
      case EventKind::Complete: ph = "X"; break;
      case EventKind::Counter: ph = "C"; break;
      case EventKind::Instant: ph = "i"; break;
      case EventKind::Metadata: ph = "M"; break;
    }
    w.field("ph", ph);
    w.field("pid", 1);
    w.field("tid", static_cast<std::uint64_t>(e.tid));
    // trace_event timestamps are microseconds (fractional allowed).
    w.field("ts", static_cast<double>(e.startNs) / 1000.0);
    if (e.kind == EventKind::Complete) {
      w.field("dur", static_cast<double>(e.durNs) / 1000.0);
    }
    if (e.kind == EventKind::Instant) w.field("s", "t");
    if (!e.args.empty()) {
      w.key("args");
      w.beginObject();
      for (const TraceArg& a : e.args) {
        w.key(a.key);
        w.raw(a.json);
      }
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << '\n';
}

std::string Tracer::chromeTraceJson() const {
  std::ostringstream os;
  writeChromeTrace(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Span.
// ---------------------------------------------------------------------------

Span::Span(const char* name, const char* category)
    : active_(Tracer::global().enabled()) {
  if (!active_) return;
  event_.name = name;
  event_.category = category;
  event_.tid = Tracer::threadId();
  event_.startNs = Tracer::nowNs();
}

Span::~Span() {
  if (!active_) return;
  event_.durNs = Tracer::nowNs() - event_.startNs;
  Tracer::global().record(std::move(event_));
}

void Span::arg(const char* key, double v) {
  if (active_) event_.args.push_back({key, jsonNumber(v)});
}

void Span::arg(const char* key, std::size_t v) {
  if (active_) event_.args.push_back({key, std::to_string(v)});
}

void Span::arg(const char* key, int v) {
  if (active_) event_.args.push_back({key, std::to_string(v)});
}

void Span::arg(const char* key, bool v) {
  if (active_) event_.args.push_back({key, v ? "true" : "false"});
}

void Span::arg(const char* key, const std::string& v) {
  if (active_) event_.args.push_back({key, jsonQuote(v)});
}

}  // namespace stsyn::obs

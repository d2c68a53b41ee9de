// Schedule-portfolio synthesis (the paper's Figure 1).
//
// The success of the heuristic can depend on the recovery schedule; the
// paper's lightweight method runs one heuristic instance per schedule,
// "each on a separate machine". Here each instance runs on its own thread
// with its own BDD manager (managers are single-threaded by design, so
// instances share nothing).
#pragma once

#include <memory>

#include "core/heuristic.hpp"

namespace stsyn::core {

/// One completed synthesis instance. Owns the encoding the result's BDDs
/// live in; the input protocol must outlive this object.
struct PortfolioInstance {
  Schedule schedule;
  std::unique_ptr<symbolic::Encoding> encoding;
  std::unique_ptr<symbolic::SymbolicProtocol> symbolic;
  StrongResult result;
  /// False when the instance was never claimed because an earlier schedule
  /// had already succeeded (early exit); `result` is default-constructed.
  bool ran = false;
  /// Wall-clock seconds this instance's synthesis took; 0 when skipped.
  /// Summed over ran instances vs. `PortfolioResult::wallSeconds` this
  /// measures the portfolio's parallel speedup and early-exit savings.
  double wallSeconds = 0.0;
};

struct PortfolioResult {
  /// Index into `instances` of the first (by schedule order) successful
  /// instance, or SIZE_MAX when every schedule failed.
  std::size_t winner = SIZE_MAX;
  std::vector<PortfolioInstance> instances;
  /// Wall-clock seconds of the whole portfolio run (claim + join).
  double wallSeconds = 0.0;

  [[nodiscard]] bool success() const { return winner != SIZE_MAX; }

  /// The winning instance's synthesis stats, or nullptr when every
  /// schedule failed.
  [[nodiscard]] const SynthesisStats* winnerStats() const {
    return winner == SIZE_MAX ? nullptr : &instances[winner].result.stats;
  }

  /// Number of instances actually claimed and run (the rest were skipped
  /// by the first-success early exit).
  [[nodiscard]] std::size_t instancesRun() const {
    std::size_t n = 0;
    for (const PortfolioInstance& inst : instances) n += inst.ran ? 1 : 0;
    return n;
  }
};

struct PortfolioOptions {
  /// Worker threads (0 = hardware concurrency).
  unsigned threads = 0;
  /// Heuristic options every instance runs with (--max-pass, --no-greedy);
  /// each instance replaces `schedule` with its own.
  StrongOptions strong;
};

/// Runs the heuristic once per schedule, one instance per schedule in
/// input order. Workers stop claiming new instances once any instance
/// succeeds; an instance already past that check runs to completion.
/// Deterministic: the outcome of each instance
/// is independent of the thread interleaving, and the winner is the first
/// successful instance in claim order (claims are handed out in
/// increasing order, so a skipped index always has a successful — and
/// fully run — instance below it). On return every instance's BDD
/// manager is re-pinned to the calling thread, so results are safe to
/// read and destroy here.
[[nodiscard]] PortfolioResult synthesizePortfolio(
    const protocol::Protocol& proto, const std::vector<Schedule>& schedules,
    const PortfolioOptions& options);

/// Back-compat wrapper over the options overload.
[[nodiscard]] PortfolioResult synthesizePortfolio(
    const protocol::Protocol& proto, const std::vector<Schedule>& schedules,
    unsigned threads = 0);

}  // namespace stsyn::core

// The shared run driver behind the stsyn frontends.
//
// examples/stsyn_cli.cpp (terminal) and src/serve (daemon) both reduce to:
// parse a protocol, call runProtocol() with an Options, and deliver the
// Report. The driver owns everything in between — mode dispatch
// (verify/weak/portfolio/strong), cooperative deadlines, the versioned
// stats document, and the extracted stabilizing program — so the two
// frontends cannot drift apart: a stats document written by `stsyn
// --stats-json` and one returned by `stsyn serve` come from the same
// renderStatsJson() on the same Report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "core/stats.hpp"
#include "protocol/protocol.hpp"

namespace stsyn::cli {

/// One portfolio instance's outcome, copied out for the stats document.
struct PortfolioRow {
  std::string schedule;
  bool ran = false;
  bool success = false;
  bool pruned = false;
  int pass = 0;
  double wallSeconds = 0.0;
};

/// Collects a run's outcome; renderStatsJson() turns it into the
/// machine-readable stats document (schema in docs/observability.md).
struct Report {
  std::string protoName;
  bool haveProtocol = false;
  double processes = 0, states = 0, legitimate = 0;

  const char* mode = "strong";
  bool success = false;
  bool verified = false;
  /// True when this document was served from the daemon's result cache
  /// instead of a fresh synthesis. Always false for documents the driver
  /// renders itself; the daemon's response envelope carries the
  /// authoritative flag for replays (the cached document is returned
  /// verbatim, so byte-identical results stay byte-identical).
  bool cacheHit = false;
  /// True when the run was abandoned because a --timeout / per-request
  /// deadline expired.
  bool deadlineExceeded = false;
  std::string failure;
  core::SynthesisStats stats;
  bool haveStats = false;

  bool havePortfolio = false;
  std::size_t portfolioWinner = SIZE_MAX;
  double portfolioWallSeconds = 0.0;
  bool portfolioOrbitPrune = false;
  std::size_t portfolioSymmetryOrbits = 0;
  std::size_t portfolioSchedulesPruned = 0;
  std::vector<PortfolioRow> portfolioRows;

  /// Renders the stats JSON document (one line, no trailing newline).
  [[nodiscard]] std::string renderStatsJson() const;
};

/// A finished run: the exit status the frontend should report plus the
/// artifacts it may want to deliver.
struct RunOutcome {
  int exitCode = 1;
  bool deadlineExceeded = false;
  /// The stabilized protocol as .stsyn text (original + recovery actions);
  /// empty when the mode produced none or synthesis failed.
  std::string program;
};

/// Parses "P2,P0,P1" against the protocol's process names into `out`.
/// Prints a diagnostic to `err` and returns false on unknown names or an
/// invalid permutation.
bool parseSchedule(const std::string& arg, const protocol::Protocol& p,
                   core::Schedule& out, std::ostream& err);

/// Runs one protocol through the mode selected in `opt` (Verify, Weak,
/// portfolio or strong synthesis), filling `report` and writing the
/// human-readable narration to `out` / diagnostics to `err`. Installs a
/// cooperative deadline when opt.timeoutMs > 0 and converts CancelledError
/// into a deadline_exceeded outcome — the exception never escapes, and
/// every BDD manager involved is destroyed on this thread before return.
RunOutcome runProtocol(const protocol::Protocol& p, const Options& opt,
                       Report& report, std::ostream& out, std::ostream& err);

/// The lint mode on in-memory source: runs both tiers and renders
/// text/SARIF to `out`. Returns 0 clean, 1 when diagnostics fail the run.
int runLintSource(const std::string& source, const std::string& displayPath,
                  const Options& opt, std::ostream& out);

}  // namespace stsyn::cli

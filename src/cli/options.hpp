// Argument and option handling for the stsyn frontends.
//
// The CLI (examples/stsyn_cli.cpp) and the serve daemon (src/serve) are
// two thin shells over the same driver (cli/driver.hpp); this header owns
// the option model both share and the strict numeric parsing the daemon's
// request validator reuses. Keeping parsing here means a flag accepted on
// the command line and the same field in a serve request go through one
// validation path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.hpp"
#include "core/heuristic.hpp"

namespace stsyn::cli {

/// Strictly parses a non-negative decimal integer: the whole string must
/// be digits (no sign, no whitespace, no trailing junk) and the value must
/// be at most `maxValue`. Returns nullopt otherwise — shared by the CLI
/// flag parser and the serve request validator, so both reject the same
/// garbage (`--portfolio 4x`, `"max_pass": "junk"`) instead of silently
/// reading a prefix the way std::atoi did.
[[nodiscard]] std::optional<std::uint64_t> parseUint(std::string_view s,
                                                     std::uint64_t maxValue);

/// Upper bounds for the numeric options, shared with the daemon.
inline constexpr std::uint64_t kMaxPortfolioThreads = 4096;
inline constexpr std::uint64_t kMaxTimeoutMs = 86'400'000;  // 24h
inline constexpr std::uint64_t kMaxServeWorkers = 256;
inline constexpr std::uint64_t kMaxQueueCapacity = 65'536;
inline constexpr std::uint64_t kMaxCacheCapacity = 1'048'576;
inline constexpr std::uint64_t kMaxServeInflight = 65'536;

enum class Mode : std::uint8_t {
  Synth,    ///< add strong convergence (default)
  Weak,     ///< --weak
  Verify,   ///< --verify
  Lint,     ///< `stsyn lint` / --lint
  Serve,    ///< `stsyn serve`
};

struct Options {
  Mode mode = Mode::Synth;
  std::string path;

  // Lint.
  bool werror = false;
  std::string lintFormat = "text";
  analysis::LintOptions lintOptions;

  // Synthesis.
  core::StrongOptions strong;
  unsigned portfolio = 0;
  bool explain = false;
  bool quiet = false;
  bool print = false;
  std::string scheduleArg;
  std::string outputPath;
  std::string statsPath;
  std::string tracePath;
  /// Cooperative deadline for the whole run; 0 = none (--timeout MS).
  std::uint64_t timeoutMs = 0;

  // Serve.
  unsigned servePort = 0;          ///< 0 = ephemeral, printed on startup
  unsigned serveWorkers = 2;
  unsigned serveQueueCapacity = 16;
  unsigned serveCacheCapacity = 64;
  /// Per-connection cap on queued + running jobs (--max-inflight N).
  unsigned serveMaxInflight = 8;
  /// Directory for the persistent result cache (--cache-dir PATH);
  /// empty = in-memory only.
  std::string serveCacheDir;
};

/// Prints the usage text to `err` and returns 2 (the usage exit status).
int usage(std::ostream& err);

/// Parses argv into `out`. Returns -1 when parsing succeeded and the
/// caller should proceed; otherwise the process exit status (2 for usage
/// and validation errors, with a diagnostic already printed to `err`).
int parseArgs(int argc, const char* const* argv, Options& out,
              std::ostream& err);

}  // namespace stsyn::cli

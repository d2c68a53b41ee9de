#include "cli/options.hpp"

#include <cstring>
#include <ostream>

namespace stsyn::cli {

std::optional<std::uint64_t> parseUint(std::string_view s,
                                       std::uint64_t maxValue) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  if (value > maxValue) return std::nullopt;
  return value;
}

int usage(std::ostream& err) {
  err << "usage: stsyn <protocol.stsyn> [--weak | --verify]"
         " [--schedule P1,P0,... | --portfolio N]"
         " [--max-pass N] [--no-greedy] [--timeout MS]"
         " [--explain] [--print] [--quiet]"
         " [--output FILE] [--stats-json FILE] [--trace FILE]\n"
         "       stsyn lint <protocol.stsyn> [--werror]"
         " [--format=sarif|text]\n"
         "       stsyn serve [--port N] [--workers N] [--queue N]"
         " [--cache N] [--cache-dir PATH] [--max-inflight N]"
         " [--trace FILE]\n";
  return 2;
}

namespace {

/// Reports a bad numeric flag value and returns false; the caller turns
/// that into the usage exit.
bool badNumber(std::ostream& err, const char* flag, const char* value,
               std::uint64_t maxValue) {
  err << "stsyn: " << flag << " expects an unsigned integer <= " << maxValue
      << ", got '" << value << "'\n";
  return false;
}

}  // namespace

int parseArgs(int argc, const char* const* argv, Options& out,
              std::ostream& err) {
  if (argc < 2) return usage(err);

  int argStart = 1;
  if (!std::strcmp(argv[1], "lint")) {
    out.mode = Mode::Lint;
    argStart = 2;
  } else if (!std::strcmp(argv[1], "serve")) {
    out.mode = Mode::Serve;
    argStart = 2;
  }

  const char* path = nullptr;
  const char* lintOnlyFlag = nullptr;  // first --werror/--format= seen
  unsigned portfolio = 0;
  bool weak = false;
  bool verifyOnly = false;

  // Strict unsigned flag parse: prints the diagnostic on failure.
  const auto uintFlag = [&](const char* flag, const char* value,
                            std::uint64_t maxValue,
                            std::uint64_t& target) -> bool {
    const auto parsed = parseUint(value, maxValue);
    if (!parsed.has_value()) return badNumber(err, flag, value, maxValue);
    target = *parsed;
    return true;
  };

  for (int i = argStart; i < argc; ++i) {
    const char* a = argv[i];
    // Matches a flag that takes a value; a trailing one without its value
    // sets `missingValue` so the error below names the right problem.
    bool missingValue = false;
    const auto valueFlag = [&](const char* flag) {
      if (std::strcmp(a, flag) != 0) return false;
      missingValue = i + 1 == argc;
      return !missingValue;
    };
    if (!std::strcmp(a, "--weak")) {
      weak = true;
    } else if (!std::strcmp(a, "--verify")) {
      verifyOnly = true;
    } else if (!std::strcmp(a, "--werror")) {
      out.werror = true;
      if (lintOnlyFlag == nullptr) lintOnlyFlag = "--werror";
    } else if (!std::strncmp(a, "--format=", 9)) {
      if (lintOnlyFlag == nullptr) lintOnlyFlag = "--format=";
      out.lintFormat = a + 9;
      if (out.lintFormat != "text" && out.lintFormat != "sarif") {
        return usage(err);
      }
    } else if (valueFlag("--portfolio")) {
      std::uint64_t n = 0;
      if (!uintFlag("--portfolio", argv[++i], kMaxPortfolioThreads, n)) {
        return usage(err);
      }
      portfolio = static_cast<unsigned>(n);
    } else if (!std::strcmp(a, "--print")) {
      out.print = true;
    } else if (!std::strcmp(a, "--quiet")) {
      out.quiet = true;
    } else if (!std::strcmp(a, "--no-greedy")) {
      out.strong.greedyCycleResolution = false;
    } else if (!std::strcmp(a, "--explain")) {
      out.explain = true;
    } else if (valueFlag("--schedule")) {
      out.scheduleArg = argv[++i];
    } else if (valueFlag("--output")) {
      out.outputPath = argv[++i];
    } else if (valueFlag("--stats-json")) {
      out.statsPath = argv[++i];
    } else if (valueFlag("--trace")) {
      out.tracePath = argv[++i];
    } else if (valueFlag("--max-pass")) {
      const auto n = parseUint(argv[++i], 3);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --max-pass expects 1, 2 or 3, got '" << argv[i]
            << "'\n";
        return usage(err);
      }
      out.strong.maxPass = static_cast<int>(*n);
    } else if (valueFlag("--timeout")) {
      if (!uintFlag("--timeout", argv[++i], kMaxTimeoutMs, out.timeoutMs)) {
        return usage(err);
      }
    } else if (valueFlag("--port")) {
      std::uint64_t n = 0;
      if (!uintFlag("--port", argv[++i], 65535, n)) return usage(err);
      out.servePort = static_cast<unsigned>(n);
    } else if (valueFlag("--workers")) {
      const auto n = parseUint(argv[++i], kMaxServeWorkers);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --workers expects 1.." << kMaxServeWorkers
            << ", got '" << argv[i] << "'\n";
        return usage(err);
      }
      out.serveWorkers = static_cast<unsigned>(*n);
    } else if (valueFlag("--queue")) {
      const auto n = parseUint(argv[++i], kMaxQueueCapacity);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --queue expects 1.." << kMaxQueueCapacity
            << ", got '" << argv[i] << "'\n";
        return usage(err);
      }
      out.serveQueueCapacity = static_cast<unsigned>(*n);
    } else if (valueFlag("--cache")) {
      std::uint64_t n = 0;
      if (!uintFlag("--cache", argv[++i], kMaxCacheCapacity, n)) {
        return usage(err);
      }
      out.serveCacheCapacity = static_cast<unsigned>(n);
    } else if (valueFlag("--cache-dir")) {
      out.serveCacheDir = argv[++i];
      if (out.serveCacheDir.empty()) {
        err << "stsyn: --cache-dir expects a non-empty path\n";
        return usage(err);
      }
    } else if (valueFlag("--max-inflight")) {
      const auto n = parseUint(argv[++i], kMaxServeInflight);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --max-inflight expects 1.." << kMaxServeInflight
            << ", got '" << argv[i] << "'\n";
        return usage(err);
      }
      out.serveMaxInflight = static_cast<unsigned>(*n);
    } else if (missingValue) {
      err << "stsyn: " << a << " expects a value\n";
      return usage(err);
    } else if (a[0] == '-') {
      err << "stsyn: unknown option '" << a << "'\n";
      return usage(err);
    } else if (path == nullptr) {
      path = a;
    } else {
      return usage(err);
    }
  }

  if (out.mode == Mode::Serve) {
    if (path != nullptr) return usage(err);  // serve takes no protocol file
  } else {
    if (path == nullptr) return usage(err);
    out.path = path;
  }
  if (out.mode != Mode::Lint && out.mode != Mode::Serve) {
    if (weak && verifyOnly) return usage(err);
    if (weak) out.mode = Mode::Weak;
    if (verifyOnly) out.mode = Mode::Verify;
  }

  // A flag outside the mode that reads it is refused, not ignored.
  if (lintOnlyFlag != nullptr && out.mode != Mode::Lint) {
    err << "stsyn: " << lintOnlyFlag << " applies only to `stsyn lint`\n";
    return 2;
  }
  if (!out.outputPath.empty() &&
      (out.mode == Mode::Weak || out.mode == Mode::Verify)) {
    err << "stsyn: --output has no program to write under "
        << (out.mode == Mode::Weak ? "--weak" : "--verify")
        << " (only strong synthesis renders one)\n";
    return 2;
  }

  out.portfolio = portfolio;
  if (!out.scheduleArg.empty() && portfolio > 0) {
    err << "stsyn: --schedule conflicts with --portfolio (every portfolio "
           "instance runs its own schedule)\n";
    return 2;
  }
  return -1;
}

}  // namespace stsyn::cli

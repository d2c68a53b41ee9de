// Tests for the shared command-line layer: the strict unsigned-integer
// parser that replaced atoi (accepting "12abc" or "-3" as a thread count
// was a real bug), the argument parser both frontends validate requests
// with, and the driver's deadline conversion.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "casestudies/token_ring.hpp"
#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"

namespace {

using namespace stsyn;

TEST(ParseUint, AcceptsPlainDecimal) {
  EXPECT_EQ(cli::parseUint("0", 100), 0u);
  EXPECT_EQ(cli::parseUint("42", 100), 42u);
  EXPECT_EQ(cli::parseUint("100", 100), 100u);
  EXPECT_EQ(cli::parseUint("18446744073709551615", UINT64_MAX), UINT64_MAX);
}

TEST(ParseUint, RejectsEverythingAtoiUsedToAccept) {
  // atoi("12abc") == 12; atoi("-3") == -3 wrapped to huge unsigned;
  // atoi("") == 0. All of these must be hard errors now.
  EXPECT_FALSE(cli::parseUint("12abc", 100).has_value());
  EXPECT_FALSE(cli::parseUint("-3", 100).has_value());
  EXPECT_FALSE(cli::parseUint("", 100).has_value());
  EXPECT_FALSE(cli::parseUint(" 1", 100).has_value());
  EXPECT_FALSE(cli::parseUint("1 ", 100).has_value());
  EXPECT_FALSE(cli::parseUint("+1", 100).has_value());
  EXPECT_FALSE(cli::parseUint("0x10", 100).has_value());
  EXPECT_FALSE(cli::parseUint("1e3", 100).has_value());
}

TEST(ParseUint, RejectsOverflowAndRangeViolations) {
  EXPECT_FALSE(cli::parseUint("101", 100).has_value());
  EXPECT_FALSE(cli::parseUint("18446744073709551616", UINT64_MAX)
                   .has_value());  // UINT64_MAX + 1
  EXPECT_FALSE(cli::parseUint("99999999999999999999999", UINT64_MAX)
                   .has_value());
  // Leading zeros are fine; they are still a plain decimal.
  EXPECT_EQ(cli::parseUint("007", 100), 7u);
}

/// Runs parseArgs over a literal argv. Returns the exit status (-1 = ok).
int parse(std::vector<const char*> argv, cli::Options& out,
          std::string* errText = nullptr) {
  argv.insert(argv.begin(), "stsyn");
  std::ostringstream err;
  const int status =
      cli::parseArgs(static_cast<int>(argv.size()), argv.data(), out, err);
  if (errText != nullptr) *errText = err.str();
  return status;
}

TEST(ParseArgs, DefaultsAndBasicFlags) {
  cli::Options opt;
  ASSERT_EQ(parse({"p.stsyn"}, opt), -1);
  EXPECT_EQ(opt.mode, cli::Mode::Synth);
  EXPECT_EQ(opt.path, "p.stsyn");
  EXPECT_EQ(opt.timeoutMs, 0u);

  opt = {};
  ASSERT_EQ(parse({"p.stsyn", "--weak", "--quiet", "--timeout", "2500"}, opt),
            -1);
  EXPECT_EQ(opt.mode, cli::Mode::Weak);
  EXPECT_TRUE(opt.quiet);
  EXPECT_EQ(opt.timeoutMs, 2500u);
}

TEST(ParseArgs, EveryNumericFlagRejectsGarbage) {
  // Each case used to sail through atoi; now each exits 2 with a
  // diagnostic naming the flag.
  const std::vector<std::vector<const char*>> bad = {
      {"p.stsyn", "--portfolio", "2x"},
      {"p.stsyn", "--portfolio", "-1"},
      {"p.stsyn", "--max-pass", "0"},
      {"p.stsyn", "--max-pass", "4"},
      {"p.stsyn", "--max-pass", "two"},
      {"p.stsyn", "--timeout", "1.5"},
      {"p.stsyn", "--timeout", "-100"},
      {"serve", "--port", "65536"},
      {"serve", "--port", "http"},
      {"serve", "--workers", "0"},
      {"serve", "--workers", "-2"},
      {"serve", "--queue", "0"},
      {"serve", "--cache", "lots"},
  };
  for (const auto& argv : bad) {
    cli::Options opt;
    std::string err;
    EXPECT_EQ(parse(argv, opt, &err), 2)
        << "argv[1..]=" << argv[0] << " " << argv[1] << " " << argv[2];
    EXPECT_FALSE(err.empty());
  }
}

TEST(ParseArgs, UnknownFlagIsNamedBeforeTheUsage) {
  // --image-workers, --image-policy and --var-order were removed; scripts
  // still passing them must learn why they got exit 2.
  cli::Options opt;
  std::string err;
  for (const auto& [flag, value] :
       {std::pair<std::string, const char*>{"--image-workers", "2"},
        {"--image-policy", "both"},
        {"--var-order", "static"}}) {
    opt = {};
    err.clear();
    EXPECT_EQ(parse({"p.stsyn", flag.c_str(), value}, opt, &err), 2);
    EXPECT_EQ(err.rfind("stsyn: unknown option '" + flag + "'\nusage:", 0),
              0u)
        << err;
  }

  // A known flag missing its value is not called unknown.
  opt = {};
  EXPECT_EQ(parse({"p.stsyn", "--timeout"}, opt, &err), 2);
  EXPECT_EQ(err.rfind("stsyn: --timeout expects a value\nusage:", 0), 0u)
      << err;
}

TEST(ParseArgs, NumericFlagsInRangeParse) {
  cli::Options opt;
  ASSERT_EQ(parse({"p.stsyn", "--portfolio", "4", "--max-pass", "2"}, opt),
            -1);
  EXPECT_EQ(opt.portfolio, 4u);
  EXPECT_EQ(opt.strong.maxPass, 2);
}

TEST(ParseArgs, ServeSubcommand) {
  cli::Options opt;
  ASSERT_EQ(parse({"serve", "--port", "9000", "--workers", "4", "--queue",
                   "32", "--cache", "128"},
                  opt),
            -1);
  EXPECT_EQ(opt.mode, cli::Mode::Serve);
  EXPECT_EQ(opt.servePort, 9000u);
  EXPECT_EQ(opt.serveWorkers, 4u);
  EXPECT_EQ(opt.serveQueueCapacity, 32u);
  EXPECT_EQ(opt.serveCacheCapacity, 128u);

  // serve takes no protocol file.
  opt = {};
  EXPECT_EQ(parse({"serve", "p.stsyn"}, opt), 2);
}

TEST(ParseArgs, UsageNamesEveryAcceptedFlag) {
  // The flags parseArgs compares against are the string literals in its
  // source that start with "--"; each must be accepted (not reported as
  // unknown) and named in the usage text.
  std::ifstream in(STSYN_OPTIONS_SOURCE);
  ASSERT_TRUE(in) << STSYN_OPTIONS_SOURCE;
  const std::string source((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  std::ostringstream usageText;
  (void)cli::usage(usageText);
  const std::regex flagLiteral("\"(--[a-z-]+=?)\"");
  std::set<std::string> flags;
  for (auto it = std::sregex_iterator(source.begin(), source.end(),
                                      flagLiteral);
       it != std::sregex_iterator(); ++it) {
    flags.insert((*it)[1].str());
  }
  EXPECT_GE(flags.size(), 21u);
  for (const std::string& flag : flags) {
    EXPECT_NE(usageText.str().find(flag), std::string::npos)
        << flag << " is missing from the usage text";
    cli::Options opt;
    std::string err;
    const std::string arg = flag.back() == '=' ? flag + "text" : flag;
    (void)parse({"p.stsyn", arg.c_str(), "1"}, opt, &err);
    EXPECT_EQ(err.find("unknown option"), std::string::npos) << err;
  }
}

TEST(ParseArgs, ScheduleConflictsWithPortfolio) {
  cli::Options opt;
  std::string err;
  EXPECT_EQ(parse({"p.stsyn", "--portfolio", "2", "--schedule", "P1,P0"},
                  opt, &err),
            2);
  EXPECT_EQ(err.rfind("stsyn: --schedule conflicts with --portfolio", 0), 0u)
      << err;
}

TEST(ParseArgs, ConflictingAndUnknownFlags) {
  cli::Options opt;
  EXPECT_EQ(parse({"p.stsyn", "--weak", "--verify"}, opt), 2);
  opt = {};
  EXPECT_EQ(parse({"p.stsyn", "--frobnicate"}, opt), 2);
  // --orbit-prune was removed: it is now an unknown option.
  opt = {};
  std::string err;
  EXPECT_EQ(parse({"p.stsyn", "--portfolio", "2", "--orbit-prune"}, opt, &err),
            2);
  EXPECT_EQ(err.rfind("stsyn: unknown option '--orbit-prune'\nusage:", 0),
            0u)
      << err;
}

TEST(ParseArgs, FlagsOutsideTheirModeAreRefused) {
  // Each of these used to be accepted and then ignored: a weak or verify
  // run writes no program, and only lint reads --werror/--format=.
  const std::vector<std::pair<std::vector<const char*>, std::string>> bad = {
      {{"p.stsyn", "--weak", "--output", "F"},
       "stsyn: --output has no program to write under --weak"},
      {{"p.stsyn", "--verify", "--output", "F"},
       "stsyn: --output has no program to write under --verify"},
      {{"p.stsyn", "--werror", "--format=sarif"},
       "stsyn: --werror applies only to `stsyn lint`"},
      {{"p.stsyn", "--format=sarif"},
       "stsyn: --format= applies only to `stsyn lint`"},
      {{"serve", "--werror"}, "stsyn: --werror applies only to `stsyn lint`"},
  };
  for (const auto& [argv, message] : bad) {
    cli::Options opt;
    std::string err;
    EXPECT_EQ(parse(argv, opt, &err), 2) << message;
    EXPECT_EQ(err.rfind(message, 0), 0u) << err;
  }
  // In their own modes they parse.
  cli::Options opt;
  EXPECT_EQ(parse({"p.stsyn", "--output", "F"}, opt), -1);
  opt = {};
  EXPECT_EQ(parse({"lint", "p.stsyn", "--werror", "--format=sarif"}, opt), -1);
  EXPECT_TRUE(opt.werror);
}

TEST(Driver, DeadlineConvertsToReportNotException) {
  // A 0ns budget expires before the first fixpoint iteration; the driver
  // must absorb the CancelledError and report deadline_exceeded.
  const protocol::Protocol p = casestudies::tokenRing(5, 4);
  cli::Options opt;
  opt.quiet = true;
  opt.timeoutMs = 0;  // no deadline first: a normal run succeeds
  cli::Report report;
  std::ostringstream console;
  cli::RunOutcome ok = cli::runProtocol(p, opt, report, console, console);
  EXPECT_EQ(ok.exitCode, 0);
  EXPECT_FALSE(ok.deadlineExceeded);
  EXPECT_FALSE(report.deadlineExceeded);
  EXPECT_FALSE(ok.program.empty());

  cli::Report timedReport;
  cli::Options timed = opt;
  timed.timeoutMs = 1;  // expires during synthesis of a 4^5 state ring
  std::ostringstream console2;
  // May legitimately finish within 1ms on a fast machine; accept either
  // outcome but require consistency between outcome and report.
  const cli::RunOutcome r =
      cli::runProtocol(p, timed, timedReport, console2, console2);
  EXPECT_EQ(r.deadlineExceeded, timedReport.deadlineExceeded);
  if (r.deadlineExceeded) {
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_EQ(timedReport.failure, "deadline exceeded");
  }
}

TEST(Driver, PortfolioHonoursMaxPassAndNoGreedy) {
  // token_ring4 needs pass 2 under every schedule, so with --max-pass 1
  // the portfolio must fail just as the single run does.
  const protocol::Protocol p =
      lang::parseProtocolFile(STSYN_PROTOCOL_DIR "/token_ring4.stsyn");
  cli::Options opt;
  opt.quiet = true;
  opt.strong.maxPass = 1;
  for (const unsigned portfolio : {0u, 1u}) {
    opt.portfolio = portfolio;
    cli::Report report;
    std::ostringstream console;
    const cli::RunOutcome r =
        cli::runProtocol(p, opt, report, console, console);
    EXPECT_EQ(r.exitCode, 1) << "portfolio " << portfolio << "\n"
                             << console.str();
    EXPECT_FALSE(report.success);
  }
}

TEST(Driver, StatsDocumentCarriesDeadlineAndCacheFields) {
  cli::Report report;
  report.protoName = "demo";
  report.haveProtocol = true;
  report.mode = "strong";
  const std::string doc = report.renderStatsJson();
  EXPECT_NE(doc.find("\"cache_hit\":false"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"deadline_exceeded\":false"), std::string::npos)
      << doc;
  report.deadlineExceeded = true;
  report.cacheHit = true;
  const std::string doc2 = report.renderStatsJson();
  EXPECT_NE(doc2.find("\"cache_hit\":true"), std::string::npos) << doc2;
  EXPECT_NE(doc2.find("\"deadline_exceeded\":true"), std::string::npos)
      << doc2;
}

TEST(Driver, WeakModeStatsCarryManagerCounters) {
  // --weak --stats-json used to report the BDD kernel counters as 0: only
  // the peak and reorder fields were copied out of the manager.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  cli::Options opt;
  opt.mode = cli::Mode::Weak;
  opt.quiet = true;
  cli::Report report;
  std::ostringstream console;
  const cli::RunOutcome r = cli::runProtocol(p, opt, report, console, console);
  ASSERT_EQ(r.exitCode, 0) << console.str();
  ASSERT_TRUE(report.haveStats);
  std::string err;
  const auto doc = obs::parseJson(report.renderStatsJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("mode")->str, "weak");
  const obs::JsonValue* stats = doc->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->find("cache_lookups")->number, 0.0);
  EXPECT_GT(stats->find("cache_stores")->number, 0.0);
  EXPECT_GT(stats->find("unique_probes")->number, 0.0);
  EXPECT_GT(stats->find("peak_live_nodes")->number, 0.0);
}

/// The sorted keys of a JSON object.
std::set<std::string> keysOf(const obs::JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.members) keys.insert(key);
  return keys;
}

TEST(Driver, VerifyModeWritesTheStatsObject) {
  // --verify --stats-json used to end the document after
  // deadline_exceeded: the check's SCC search and BFS went uncounted.
  const protocol::Protocol p = lang::parseProtocolFile(
      STSYN_PROTOCOL_DIR "/matching5_gouda_acharya.stsyn");
  cli::Options opt;
  opt.mode = cli::Mode::Verify;
  opt.quiet = true;
  cli::Report report;
  std::ostringstream console;
  const cli::RunOutcome r = cli::runProtocol(p, opt, report, console, console);
  EXPECT_EQ(r.exitCode, 1) << console.str();  // the flawed protocol
  std::string err;
  const auto doc = obs::parseJson(report.renderStatsJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("mode")->str, "verify");
  const obs::JsonValue* stats = doc->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->find("preimage_ops")->number, 0.0);
  EXPECT_GT(stats->find("cache_lookups")->number, 0.0);
  EXPECT_GT(stats->find("scc_components_found")->number, 0.0);
  // The check's SCC decomposition is counted, not just its components.
  EXPECT_EQ(stats->find("scc_detection_calls")->number, 1.0);
  EXPECT_GT(stats->find("scc_symbolic_steps")->number, 0.0);

  // The same key set as a synthesis run's stats object.
  cli::Options strong;
  strong.quiet = true;
  const protocol::Protocol ring =
      lang::parseProtocolFile(STSYN_PROTOCOL_DIR "/token_ring4.stsyn");
  cli::Report strongReport;
  ASSERT_EQ(cli::runProtocol(ring, strong, strongReport, console, console)
                .exitCode,
            0);
  const auto strongDoc = obs::parseJson(strongReport.renderStatsJson(), &err);
  ASSERT_TRUE(strongDoc.has_value()) << err;
  EXPECT_EQ(keysOf(*stats), keysOf(*strongDoc->find("stats")));
}

TEST(Driver, PortfolioDocumentHasNoOrbitPruningKeys) {
  const protocol::Protocol p =
      lang::parseProtocolFile(STSYN_PROTOCOL_DIR "/token_ring4.stsyn");
  cli::Options opt;
  opt.quiet = true;
  opt.portfolio = 2;
  cli::Report report;
  std::ostringstream console;
  ASSERT_EQ(cli::runProtocol(p, opt, report, console, console).exitCode, 0)
      << console.str();
  std::string err;
  const auto doc = obs::parseJson(report.renderStatsJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const obs::JsonValue* portfolio = doc->find("portfolio");
  ASSERT_NE(portfolio, nullptr);
  EXPECT_EQ(keysOf(*portfolio),
            (std::set<std::string>{"winner", "wall_seconds", "instances_run",
                                   "instances"}));
  const obs::JsonValue* instances = portfolio->find("instances");
  ASSERT_NE(instances, nullptr);
  ASSERT_EQ(instances->items.size(), 4u);
  for (const obs::JsonValue& row : instances->items) {
    EXPECT_EQ(keysOf(row), (std::set<std::string>{"schedule", "ran", "success",
                                                  "pass", "wall_seconds"}));
  }
}

}  // namespace

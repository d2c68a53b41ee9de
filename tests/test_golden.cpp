// Golden snapshot tests: the extracted recovery actions of the paper's
// case-study instances, pinned as printed .stsyn protocols under
// tests/golden/. A change in the synthesized programs — an accidental
// heuristic reordering, a group-expansion regression, an extraction or
// printer change — shows up as a readable text diff instead of a silent
// behavioural drift.
//
// The same directory pins the deterministic work counters of the CLI's
// stats object (counters.json): a change that moves the cost of a run
// shows up as a diff of exact numbers.
//
// Regenerate intentionally with:  STSYN_UPDATE_GOLDEN=1 ./test_golden
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "cli/driver.hpp"
#include "core/heuristic.hpp"
#include "extraction/export.hpp"
#include "golden_counters.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"

namespace {

using namespace stsyn;

/// Synthesizes strong convergence and renders the complete stabilized
/// protocol (original actions + extracted recovery) as .stsyn text.
/// `name` must be expressible in the language grammar (no dashes).
std::string synthesizedText(const protocol::Protocol& p,
                            const core::Schedule& schedule,
                            const std::string& name) {
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  core::StrongOptions opt;
  opt.schedule = schedule;
  const core::StrongResult r = core::addStrongConvergence(sp, opt);
  if (!r.success) {
    ADD_FAILURE() << "synthesis failed for " << name;
    return {};
  }
  protocol::Protocol out = extraction::toProtocol(sp, r.addedPerProcess);
  out.name = name;
  return lang::printProtocol(out);
}

void checkGolden(const std::string& file, const std::string& actual) {
  ASSERT_FALSE(actual.empty());
  const std::filesystem::path path =
      std::filesystem::path(STSYN_GOLDEN_DIR) / file;
  if (golden::updateRequested()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; regenerate with STSYN_UPDATE_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str())
      << "synthesized protocol drifted from " << path
      << "; if the change is intentional regenerate with "
         "STSYN_UPDATE_GOLDEN=1 and review the diff";
}

void checkSynthesizedGolden(const protocol::Protocol& p,
                            const core::Schedule& schedule,
                            const std::string& name) {
  checkGolden(name + ".stsyn", synthesizedText(p, schedule, name));
}

TEST(Golden, TokenRingRecoveryActionsArePinned) {
  checkSynthesizedGolden(casestudies::tokenRing(4, 3),
                         core::rotatedSchedule(4, 1), "token_ring4_ss");
}

TEST(Golden, ColoringRecoveryActionsArePinned) {
  checkSynthesizedGolden(casestudies::coloring(5), {}, "coloring5_ss");
}

TEST(Golden, MatchingRecoveryActionsArePinned) {
  checkSynthesizedGolden(casestudies::matching(5), {}, "matching5_ss");
}

using golden::Counters;
/// "<dir>/<input>" -> mode -> counters.
using CounterTable = std::map<std::string, std::map<std::string, Counters>>;

/// Runs `file` through the CLI driver in `mode` and returns its counters;
/// empty when the run produced no stats object (an input whose invariant
/// is not closed stops before synthesis).
Counters runCounters(const std::filesystem::path& file, cli::Mode mode) {
  const protocol::Protocol p = lang::parseProtocolFile(file.string());
  cli::Options opt;
  opt.mode = mode;
  opt.quiet = true;
  cli::Report report;
  std::ostringstream console;
  (void)cli::runProtocol(p, opt, report, console, console);
  if (!report.haveStats) return {};
  const auto doc = obs::parseJson(report.renderStatsJson());
  const obs::JsonValue* stats = doc ? doc->find("stats") : nullptr;
  if (stats == nullptr) {
    ADD_FAILURE() << file << ": stats document has no stats object";
    return {};
  }
  return golden::countersOf(*stats);
}

/// Every shipped input except two_ring (8 s or more per run, and
/// TwoRing.SynthesisYieldsVerifiedStabilizingVersion pins it): the
/// perfbench inputs and the example protocols, strong and weak. An input
/// whose invariant is not closed (the two Gouda–Acharya matchings) stops
/// at the closure check in both modes; its --verify run is pinned instead.
CounterTable measureCounters() {
  CounterTable table;
  for (const char* dir : {STSYN_PERFBENCH_INPUT_DIR, STSYN_PROTOCOL_DIR}) {
    const std::filesystem::path root(dir);
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
      if (entry.path().extension() == ".stsyn" &&
          entry.path().stem() != "two_ring") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    const std::string prefix = root.parent_path().filename().string() + "/" +
                               root.filename().string() + "/";
    for (const auto& file : files) {
      auto& runs = table[prefix + file.stem().string()];
      for (const auto& [modeName, mode] :
           {std::pair<const char*, cli::Mode>{"strong", cli::Mode::Synth},
            {"weak", cli::Mode::Weak}}) {
        Counters c = runCounters(file, mode);
        if (!c.empty()) runs[modeName] = std::move(c);
      }
      if (runs.empty()) runs["verify"] = runCounters(file, cli::Mode::Verify);
    }
  }
  return table;
}

std::string renderCounters(const CounterTable& table) {
  std::string out = "{\n";
  for (auto input = table.begin(); input != table.end(); ++input) {
    out += "  " + obs::jsonQuote(input->first) + ": {\n";
    for (auto mode = input->second.begin(); mode != input->second.end();
         ++mode) {
      out += "    " + obs::jsonQuote(mode->first) + ": " +
             golden::renderCounters(mode->second, "    ") +
             (std::next(mode) != input->second.end() ? ",\n" : "\n");
    }
    out += std::next(input) != table.end() ? "  },\n" : "  }\n";
  }
  return out + "}\n";
}

TEST(Golden, CountersArePinned) {
  if (golden::reorderEnabled()) {
    GTEST_SKIP() << "counters are pinned without dynamic reordering";
  }
  const std::filesystem::path path =
      std::filesystem::path(STSYN_GOLDEN_DIR) / "counters.json";
  const CounterTable actual = measureCounters();
  ASSERT_FALSE(actual.empty());
  if (golden::updateRequested()) {
    if (!golden::kPinKernelCounters) {
      GTEST_FAIL() << "regenerate " << path << " from an NDEBUG build: the "
                   << "kernel counters differ under assertions";
    }
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << renderCounters(actual);
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; regenerate with STSYN_UPDATE_GOLDEN=1";
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto want = obs::parseJson(text.str(), &error);
  ASSERT_TRUE(want.has_value() && want->isObject()) << path << ": " << error;

  for (const auto& [input, modes] : want->members) {
    const auto run = actual.find(input);
    for (const auto& [mode, counters] : modes.members) {
      if (run == actual.end() || run->second.count(mode) == 0) {
        ADD_FAILURE() << input << " " << mode << ": pinned but no longer "
                      << "produces a stats object" << golden::kRegenerateHint;
        continue;
      }
      golden::expectPinned(input + " " + mode, run->second.at(mode),
                           counters);
    }
  }
  for (const auto& [input, modes] : actual) {
    const obs::JsonValue* pinned = want->find(input);
    for (const auto& [mode, counters] : modes) {
      if (pinned == nullptr || pinned->find(mode) == nullptr) {
        ADD_FAILURE() << input << " " << mode << " is not pinned"
                      << golden::kRegenerateHint;
      }
    }
  }
}

}  // namespace

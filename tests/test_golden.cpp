// Golden snapshot tests: the extracted recovery actions of the paper's
// case-study instances, pinned as printed .stsyn protocols under
// tests/golden/. A change in the synthesized programs — an accidental
// heuristic reordering, a group-expansion regression, an extraction or
// printer change — shows up as a readable text diff instead of a silent
// behavioural drift.
//
// Regenerate intentionally with:  STSYN_UPDATE_GOLDEN=1 ./test_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "extraction/export.hpp"
#include "lang/printer.hpp"

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
  if (std::getenv("STSYN_UPDATE_GOLDEN") != nullptr) {
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

}  // namespace

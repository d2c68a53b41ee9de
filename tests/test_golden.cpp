// Golden snapshot tests: the extracted recovery actions of the paper's
// case-study instances, pinned as printed .stsyn protocols under
// tests/golden/. A change in the synthesized programs — an accidental
// heuristic reordering, a group-expansion regression, an extraction or
// printer change — shows up as a readable text diff instead of a silent
// behavioural drift. Each snapshot is synthesized under BOTH image
// policies first, asserting the output is policy-invariant.
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
#include "symbolic/frontier.hpp"

namespace {

using namespace stsyn;

/// Synthesizes strong convergence under `policy` and renders the complete
/// stabilized protocol (original actions + extracted recovery) as .stsyn
/// text. `name` must be expressible in the language grammar (no dashes).
std::string synthesizedText(const protocol::Protocol& p,
                            const core::Schedule& schedule,
                            symbolic::ImagePolicy policy,
                            const std::string& name) {
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  core::StrongOptions opt;
  opt.schedule = schedule;
  opt.imagePolicy = policy;
  const core::StrongResult r = core::addStrongConvergence(sp, opt);
  if (!r.success) {
    ADD_FAILURE() << "synthesis failed for " << name << " under "
                  << symbolic::toString(policy);
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

/// Both policies must print the identical protocol before it is compared
/// against the snapshot.
void checkPolicyInvariantGolden(const protocol::Protocol& p,
                                const core::Schedule& schedule,
                                const std::string& name) {
  const std::string mono =
      synthesizedText(p, schedule, symbolic::ImagePolicy::Monolithic, name);
  const std::string part =
      synthesizedText(p, schedule, symbolic::ImagePolicy::PerProcess, name);
  EXPECT_EQ(mono, part) << name << ": policies synthesized different text";
  checkGolden(name + ".stsyn", mono);
}

TEST(Golden, TokenRingRecoveryActionsArePinned) {
  checkPolicyInvariantGolden(casestudies::tokenRing(4, 3),
                             core::rotatedSchedule(4, 1), "token_ring4_ss");
}

TEST(Golden, ColoringRecoveryActionsArePinned) {
  checkPolicyInvariantGolden(casestudies::coloring(5), {}, "coloring5_ss");
}

TEST(Golden, MatchingRecoveryActionsArePinned) {
  checkPolicyInvariantGolden(casestudies::matching(5), {}, "matching5_ss");
}

}  // namespace

// Case-study tests for the Two-Ring Token Ring TR² (paper Section VI-C).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "casestudies/two_ring.hpp"
#include "core/heuristic.hpp"
#include "explicitstate/semantics.hpp"
#include "explicitstate/simulate.hpp"
#include "golden_counters.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;
using symbolic::Encoding;
using symbolic::SymbolicProtocol;

/// TR²'s counters against tests/golden/two_ring_counters.json, the one
/// shipped input Golden.CountersArePinned leaves out (a run takes seconds,
/// and the synthesis test below already makes it).
void expectTwoRingCountersPinned(const core::SynthesisStats& stats) {
  const std::filesystem::path path =
      std::filesystem::path(STSYN_GOLDEN_DIR) / "two_ring_counters.json";
  const golden::Counters got = golden::countersOf(stats);
  if (golden::updateRequested()) {
    ASSERT_TRUE(golden::kPinKernelCounters)
        << "regenerate " << path << " from an NDEBUG build: the kernel "
        << "counters differ under assertions";
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << golden::renderCounters(got, "") << "\n";
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
  golden::expectPinned("two_ring strong", got, *want);
}

TEST(TwoRing, ShapeMatchesThePaper) {
  const protocol::Protocol p = casestudies::twoRing(4);
  EXPECT_EQ(p.processCount(), 8u);
  EXPECT_EQ(p.varCount(), 9u);  // a0..a3, b0..b3, turn
  EXPECT_DOUBLE_EQ(p.stateCount(), 131072.0);
  // PA0 reads across both rings; PA2 is ring-local.
  EXPECT_EQ(p.processes[0].reads.size(), 5u);
  EXPECT_EQ(p.processes[2].reads.size(), 2u);
}

TEST(TwoRing, InvariantIsClosedAndCirculates) {
  const protocol::Protocol p = casestudies::twoRing(4);
  const explicitstate::StateSpace space(p);
  const auto ts = explicitstate::buildTransitions(space);
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    if (!space.inInvariant(s)) continue;
    // Deterministic circulation: exactly one enabled transition, staying
    // inside I.
    ASSERT_EQ(ts.succ[s].size(), 1u) << "state " << s;
    EXPECT_TRUE(space.inInvariant(ts.succ[s][0].first));
  }
  // The token makes a full round: from all-zeros+turn=1, 8 steps visit 8
  // distinct legitimate states and every process moves exactly once.
  std::vector<int> start(9, 0);
  start[8] = 1;  // turn
  explicitstate::StateId cur = space.pack(start);
  std::vector<bool> moved(8, false);
  for (int step = 0; step < 8; ++step) {
    ASSERT_EQ(ts.succ[cur].size(), 1u);
    moved[ts.succ[cur][0].second] = true;
    cur = ts.succ[cur][0].first;
  }
  for (int j = 0; j < 8; ++j) EXPECT_TRUE(moved[j]) << "P" << j;
}

TEST(TwoRing, ExactlyOneTokenInEveryLegitimateState) {
  // The paper's token predicates, evaluated explicitly.
  const protocol::Protocol p = casestudies::twoRing(4);
  const explicitstate::StateSpace space(p);
  auto token = [&](const std::vector<int>& s, int proc) {
    const int a0 = s[0], a3 = s[3], b0 = s[4], b3 = s[7];
    if (proc == 0) return a0 == a3 && b0 == b3 && a0 == b0;
    if (proc < 4) return s[proc - 1] == (s[proc] + 1) % 4;
    if (proc == 4) return b0 == b3 && a0 == a3 && (b0 + 1) % 4 == a0;
    return s[4 + proc - 5 + 0] == (s[4 + proc - 4] + 1) % 4;
  };
  for (explicitstate::StateId sId = 0; sId < space.size(); ++sId) {
    if (!space.inInvariant(sId)) continue;
    const auto s = space.unpack(sId);
    int tokens = 0;
    for (int j = 0; j < 8; ++j) tokens += token(s, j) ? 1 : 0;
    EXPECT_EQ(tokens, 1) << "state " << sId;
  }
}

TEST(TwoRing, NonStabilizingVersionDeadlocksUnderFaults) {
  const protocol::Protocol p = casestudies::twoRing(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const verify::Report r = verify::check(sp, sp.protocolRelation());
  EXPECT_TRUE(r.closed);
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_FALSE(r.weaklyConverges);
}

TEST(TwoRing, SynthesisYieldsVerifiedStabilizingVersion) {
  // The paper: "we have synthesized a strongly self-stabilizing version of
  // this protocol ... with 8 processes".
  const protocol::Protocol p = casestudies::twoRing(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const core::StrongResult r = core::addStrongConvergence(sp);
  ASSERT_TRUE(r.success) << core::toString(r.failure);
  const verify::Report rep = verify::check(sp, r.relation);
  EXPECT_TRUE(rep.stronglyStabilizing());
  EXPECT_TRUE(verify::agreesInsideInvariant(sp, sp.protocolRelation(),
                                            r.relation));
  if (!golden::reorderEnabled()) expectTwoRingCountersPinned(r.stats);
}

TEST(TwoRing, SmallerDomainAlsoWorks) {
  const protocol::Protocol p = casestudies::twoRing(2);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  EXPECT_TRUE(verify::isClosed(sp, sp.protocolRelation(), sp.invariant()));
}

TEST(TwoRing, RejectsDegenerateDomain) {
  EXPECT_THROW((void)casestudies::twoRing(1), std::invalid_argument);
}

}  // namespace

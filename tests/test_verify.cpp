// Tests for the symbolic verifier and counterexample extraction.
#include <gtest/gtest.h>

#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "util/cancel.hpp"
#include "verify/counterexample.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using symbolic::Encoding;
using symbolic::SymbolicProtocol;

TEST(Verify, DijkstraTokenRingPassesEverything) {
  const protocol::Protocol p = casestudies::dijkstraTokenRing(4, 4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const verify::Report r = verify::check(sp, sp.protocolRelation());
  EXPECT_TRUE(r.closed);
  EXPECT_TRUE(r.deadlockFree);
  EXPECT_TRUE(r.cycleFree);
  EXPECT_TRUE(r.weaklyConverges);
  EXPECT_TRUE(r.stronglyStabilizing());
  EXPECT_TRUE(r.weaklyStabilizing());
}

TEST(Verify, NonStabilizingTokenRingDeadlocks) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const verify::Report r = verify::check(sp, sp.protocolRelation());
  EXPECT_TRUE(r.closed);
  EXPECT_FALSE(r.deadlockFree);
  EXPECT_DOUBLE_EQ(enc.countStates(r.deadlocks), 18.0);
  EXPECT_FALSE(r.weaklyConverges);
  EXPECT_FALSE(r.stronglyConverges());
}

TEST(Verify, IsClosedDetectsEscapes) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  EXPECT_TRUE(verify::isClosed(sp, sp.protocolRelation(), sp.invariant()));
  // The whole valid space is trivially closed; the empty set too.
  EXPECT_TRUE(verify::isClosed(sp, sp.protocolRelation(), enc.validCur()));
  EXPECT_TRUE(
      verify::isClosed(sp, sp.protocolRelation(), enc.manager().falseBdd()));
  // A single non-invariant state with an outgoing transition is not closed.
  const Bdd notClosed = enc.stateBdd(std::vector<int>{1, 0, 0, 0}) |
                        enc.stateBdd(std::vector<int>{2, 0, 0, 0});
  EXPECT_FALSE(verify::isClosed(sp, sp.protocolRelation(), notClosed));
}

TEST(Verify, AgreesInsideInvariantDetectsTampering) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd original = sp.protocolRelation();
  EXPECT_TRUE(verify::agreesInsideInvariant(sp, original, original));
  // Removing a transition that lives inside I must be detected.
  const Bdd insideI = sp.restrictRel(original, sp.invariant());
  ASSERT_FALSE(insideI.isFalse());
  EXPECT_FALSE(
      verify::agreesInsideInvariant(sp, original, original.minus(insideI)));
  // Adding transitions outside I is fine.
  const Bdd extra = sp.candidates(1) & !sp.invariant();
  EXPECT_TRUE(verify::agreesInsideInvariant(sp, original, original | extra));
}

TEST(Verify, GoudaAcharyaPrintedActionsBreakClosure) {
  // The four manual actions exactly as printed in the paper's Section VI-A
  // are not even closed in IMM: from a legitimate state with m_i = self,
  // the third action (guarded on m_{i-1} = left) fires and leaves IMM.
  // Our verifier pinpoints this flaw mechanically.
  const protocol::Protocol p = casestudies::matchingGoudaAcharyaAsPrinted(5);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const verify::Report r = verify::check(sp, sp.protocolRelation());
  EXPECT_FALSE(r.closed);
}

TEST(Verify, CancelledTokenStopsCycleExtractionAndTheBfs) {
  // Verification polls the caller's deadline at every product: an
  // already-cancelled token stops extractCycle at its first image, and the
  // backward BFS behind verify::check at its first preimage.
  const protocol::Protocol p = casestudies::matchingGoudaAcharyaAsPrinted(5);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd rel = sp.protocolRelation();
  const verify::Report r = verify::check(sp, rel);
  ASSERT_FALSE(r.cycles.empty());
  std::vector<Bdd> perProcess;
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    perProcess.push_back(sp.processRelation(j));
  }

  util::CancelToken token;
  token.cancel();
  const util::CancelScope scope(&token);
  EXPECT_THROW((void)verify::extractCycle(sp, rel, r.cycles.front(),
                                          perProcess),
               util::CancelledError);
  EXPECT_THROW((void)symbolic::backwardBfs(sp, rel, sp.invariant()),
               util::CancelledError);
  EXPECT_THROW((void)verify::check(sp, rel), util::CancelledError);
}

TEST(Verify, GoudaAcharyaRepairedIsClosedButNotConvergent) {
  // With the guards repaired the protocol is closed and cycle-free but
  // still NOT self-stabilizing: the all-self state deadlocks outside IMM.
  // This reproduces the paper's headline finding that the manually
  // designed matching protocol is flawed (our analysis pinpoints a
  // deadlock; the paper reports a non-progress cycle in the original).
  const protocol::Protocol p = casestudies::matchingGoudaAcharyaRepaired(5);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const verify::Report r = verify::check(sp, sp.protocolRelation());
  EXPECT_TRUE(r.closed);
  EXPECT_FALSE(r.deadlockFree);
  const Bdd allSelf = enc.stateBdd(std::vector<int>(
      5, casestudies::kSelf));
  EXPECT_FALSE((r.deadlocks & allSelf).isFalse());
  EXPECT_FALSE(r.stronglyConverges());
}

TEST(Counterexample, ExtractsAConcreteCycleWithProcessSchedule) {
  // Plant the paper's Section IV cycle: TR plus the recovery action
  // x1 = x0 + 1 -> x1 := x0 - 1 cycles through <1,2,1,0>.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  Bdd recovery = enc.manager().falseBdd();
  for (int x0 = 0; x0 < 3; ++x0) {
    recovery |= enc.curValue(0, x0) & enc.curValue(1, (x0 + 1) % 3) &
                enc.nextValue(1, (x0 + 2) % 3) & enc.unchanged(0) &
                enc.unchanged(2) & enc.unchanged(3);
  }
  const Bdd rel = sp.protocolRelation() | (recovery & enc.validCur());
  const verify::Report r = verify::check(sp, rel);
  ASSERT_FALSE(r.cycles.empty());

  std::vector<Bdd> perProcess;
  for (std::size_t j = 0; j < 4; ++j) {
    Bdd pj = sp.processRelation(j);
    if (j == 1) pj |= recovery & enc.validCur();
    perProcess.push_back(pj);
  }
  const auto cycle = verify::extractCycle(sp, rel, r.cycles[0], perProcess);
  ASSERT_GE(cycle.size(), 2u);
  EXPECT_EQ(cycle.front().state, cycle.back().state);
  // Every step is attributed to a process and is a real transition.
  for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
    EXPECT_NE(cycle[i].process, SIZE_MAX);
    const Bdd edge = enc.stateBdd(cycle[i].state) &
                     sp.onNext(enc.stateBdd(cycle[i + 1].state));
    EXPECT_FALSE((rel & edge).isFalse());
  }
  // Formatting helpers produce non-empty renderings.
  EXPECT_FALSE(verify::formatCycle(p, cycle).empty());
  EXPECT_FALSE(verify::cycleSchedule(p, cycle).empty());
}

TEST(Counterexample, FormatStateUsesValueNames) {
  const protocol::Protocol p = casestudies::matching(3);
  const std::vector<int> s{casestudies::kLeft, casestudies::kSelf,
                           casestudies::kRight};
  const std::string txt = verify::formatState(
      p, s, [](protocol::VarId, int v) {
        return std::string(casestudies::pointerName(v));
      });
  EXPECT_EQ(txt, "<m0=left, m1=self, m2=right>");
}

}  // namespace

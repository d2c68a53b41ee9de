// Tests for the failure-diagnosis module and the recovery-depth metric
// (verify::Report::recoveryDepth).
#include <gtest/gtest.h>

#include "protocol/builder.hpp"
#include "casestudies/token_ring.hpp"
#include "core/diagnose.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

TEST(Diagnose, SuccessHasNothingToExplain) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  core::StrongOptions opt;
  opt.schedule = core::rotatedSchedule(4, 1);
  const core::StrongResult r = core::addStrongConvergence(sp, opt);
  ASSERT_TRUE(r.success);
  const core::Diagnosis d = core::diagnose(sp, r);
  EXPECT_EQ(d.failure, core::Failure::None);
  EXPECT_TRUE(d.deadlocks.empty());
  EXPECT_NE(d.summary(p).find("succeeded"), std::string::npos);
}

TEST(Diagnose, UnrealizableInstanceProducesWitness) {
  protocol::ProtocolBuilder b("stuck");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  b.process("P0", {x0, x1}, {x0});
  b.invariant(protocol::ref(x1) == protocol::lit(0));
  const protocol::Protocol p = b.build();
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const core::StrongResult r = core::addStrongConvergence(sp);
  ASSERT_FALSE(r.success);
  const core::Diagnosis d = core::diagnose(sp, r);
  EXPECT_EQ(d.failure, core::Failure::NoStabilizingVersionExists);
  ASSERT_EQ(d.unreachableWitness.size(), 2u);
  EXPECT_EQ(d.unreachableWitness[1], 1);  // x1 = 1 can never be fixed
  EXPECT_NE(d.summary(p).find("UNREALIZABLE"), std::string::npos);
}

TEST(Diagnose, StuckDeadlocksExplainedPerProcess) {
  // The published heuristic (no greedy pass) leaves TR(5,5) deadlocked;
  // the diagnosis must name the reason per process: the groups that could
  // help are blocked by cycle resolution, the others by C1.
  const protocol::Protocol p = casestudies::tokenRing(5, 5);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  core::StrongOptions opt;
  opt.greedyCycleResolution = false;
  const core::StrongResult r = core::addStrongConvergence(sp, opt);
  ASSERT_FALSE(r.success);
  ASSERT_EQ(r.failure, core::Failure::UnresolvedDeadlocks);

  const core::Diagnosis d = core::diagnose(sp, r, /*maxWitnesses=*/2);
  EXPECT_DOUBLE_EQ(d.remainingDeadlockCount, 5.0);
  ASSERT_EQ(d.deadlocks.size(), 2u);
  for (const auto& dead : d.deadlocks) {
    ASSERT_EQ(dead.processes.size(), 5u);
    bool someC1 = false;
    bool someExplained = false;
    for (const auto block : dead.processes) {
      someC1 |= block == core::ProcessBlock::BlockedByC1;
      someExplained |= block != core::ProcessBlock::CanAct;
    }
    EXPECT_TRUE(someC1);
    EXPECT_TRUE(someExplained);
    // Crucially: from these states, SOME process could act — the greedy
    // pass exploits exactly that (and the diagnosis points at it).
    EXPECT_NE(std::count(dead.processes.begin(), dead.processes.end(),
                         core::ProcessBlock::CanAct),
              0);
  }
  const std::string text = d.summary(p);
  EXPECT_NE(text.find("deadlock state(s) remained"), std::string::npos);
  EXPECT_NE(text.find("C1"), std::string::npos);
}

TEST(Diagnose, RecoveryDepthOfDijkstraRing) {
  const protocol::Protocol p = casestudies::dijkstraTokenRing(4, 4);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const std::size_t depth =
      verify::check(sp, sp.protocolRelation()).recoveryDepth;
  EXPECT_NE(depth, SIZE_MAX);
  EXPECT_GE(depth, 1u);
  EXPECT_LE(depth, 16u);  // coarse sanity: bounded by |S| / locality
}

TEST(Diagnose, RecoveryDepthDetectsNonConvergence) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  // The non-stabilizing input cannot recover from everywhere.
  EXPECT_EQ(verify::check(sp, sp.protocolRelation()).recoveryDepth, SIZE_MAX);
}

TEST(Diagnose, RecoveryDepthMatchesRankBoundOnSynthesized) {
  // Theorem IV.3 flavour: the synthesized protocol cannot beat the rank
  // lower bound — its worst-case recovery depth is at least M.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  core::StrongOptions opt;
  opt.schedule = core::rotatedSchedule(4, 1);
  const core::StrongResult r = core::addStrongConvergence(sp, opt);
  ASSERT_TRUE(r.success);
  const std::size_t depth = verify::check(sp, r.relation).recoveryDepth;
  EXPECT_NE(depth, SIZE_MAX);
  EXPECT_GE(depth, r.ranking.maxRank());
}

}  // namespace

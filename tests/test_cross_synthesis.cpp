// Cross-engine validation: the symbolic synthesizer (src/core, BDD-based)
// and the explicit-state synthesizer (src/explicitstate/synthesis, sets and
// Tarjan) implement the same algorithm with zero shared machinery. On every
// enumerable instance they must agree TRANSITION FOR TRANSITION: same
// synthesized relation, same per-process additions, same pass, same
// failure diagnosis. Any divergence is a bug in one of the engines.
#include <gtest/gtest.h>

#include "protocol/builder.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "casestudies/two_ring.hpp"
#include "core/heuristic.hpp"
#include "core/weak.hpp"
#include "explicitstate/synthesis.hpp"
#include "symbolic/decode.hpp"

namespace {

using namespace stsyn;

std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
decodeEdges(const symbolic::Encoding& enc, const bdd::Bdd& rel) {
  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>> out;
  for (const auto& [from, to] : symbolic::decodeRelation(enc, rel)) {
    out.emplace_back(from, to);
  }
  return out;
}

/// Runs both engines and asserts full agreement.
void expectAgreement(const protocol::Protocol& p,
                     const core::Schedule& schedule = {},
                     int maxPass = 3, bool greedy = true) {
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  core::StrongOptions symOpt;
  symOpt.schedule = schedule;
  symOpt.maxPass = maxPass;
  symOpt.greedyCycleResolution = greedy;
  const core::StrongResult sym = core::addStrongConvergence(sp, symOpt);

  const explicitstate::StateSpace space(p);
  explicitstate::SynthOptions exOpt;
  exOpt.schedule = schedule;
  exOpt.maxPass = maxPass;
  exOpt.greedyCycleResolution = greedy;
  const explicitstate::SynthResult ex =
      explicitstate::addStrongConvergenceExplicit(space, exOpt);

  ASSERT_EQ(sym.success, ex.success) << p.name;
  EXPECT_EQ(static_cast<int>(sym.failure), static_cast<int>(ex.failure))
      << p.name;
  EXPECT_EQ(sym.stats.passCompleted, ex.passCompleted) << p.name;
  EXPECT_EQ(sym.ranking.maxRank(), ex.maxRank) << p.name;

  EXPECT_EQ(decodeEdges(enc, sym.relation), ex.relation) << p.name;
  ASSERT_EQ(sym.addedPerProcess.size(), ex.addedPerProcess.size());
  for (std::size_t j = 0; j < sym.addedPerProcess.size(); ++j) {
    EXPECT_EQ(decodeEdges(enc, sym.addedPerProcess[j]),
              ex.addedPerProcess[j])
        << p.name << " process " << j;
  }
  EXPECT_EQ(symbolic::decodeStates(enc, sym.remainingDeadlocks),
            std::vector<std::uint64_t>(ex.remainingDeadlocks.begin(),
                                       ex.remainingDeadlocks.end()))
      << p.name;
}

TEST(CrossSynthesis, TokenRingPaperInstance) {
  expectAgreement(casestudies::tokenRing(4, 3), core::rotatedSchedule(4, 1));
}

TEST(CrossSynthesis, TokenRingIdentitySchedule) {
  expectAgreement(casestudies::tokenRing(4, 3));
}

TEST(CrossSynthesis, TokenRingLargerDomain) {
  expectAgreement(casestudies::tokenRing(4, 4), core::rotatedSchedule(4, 1));
}

TEST(CrossSynthesis, TokenRingThreeProcesses) {
  expectAgreement(casestudies::tokenRing(3, 3), core::rotatedSchedule(3, 1));
}

TEST(CrossSynthesis, ColoringSmall) {
  expectAgreement(casestudies::coloring(4));
  expectAgreement(casestudies::coloring(5));
}

TEST(CrossSynthesis, MatchingFourProcessesNeedsGreedy) {
  // MM(4) is only solvable by the greedy pass — the strongest parity test:
  // both engines must pick the same groups in the same order.
  expectAgreement(casestudies::matching(4));
}

TEST(CrossSynthesis, MatchingFiveProcesses) {
  expectAgreement(casestudies::matching(5));
}

TEST(CrossSynthesis, MatchingRotatedSchedule) {
  expectAgreement(casestudies::matching(5), core::rotatedSchedule(5, 2));
}

TEST(CrossSynthesis, TokenRingFiveFiveGreedyParity) {
  expectAgreement(casestudies::tokenRing(5, 5), core::rotatedSchedule(5, 1));
}

TEST(CrossSynthesis, PassLimitedRunsAgree) {
  expectAgreement(casestudies::tokenRing(4, 3), core::rotatedSchedule(4, 1),
                  /*maxPass=*/1, /*greedy=*/false);
  expectAgreement(casestudies::tokenRing(4, 3), core::rotatedSchedule(4, 1),
                  /*maxPass=*/2, /*greedy=*/false);
  expectAgreement(casestudies::matching(5), {}, /*maxPass=*/3,
                  /*greedy=*/false);
}

TEST(CrossSynthesis, UnrealizableInstanceAgrees) {
  protocol::ProtocolBuilder b("stuck");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  b.process("P0", {x0, x1}, {x0});
  b.invariant(protocol::ref(x1) == protocol::lit(0));
  expectAgreement(b.build());
}

TEST(CrossSynthesis, PreexistingCycleCasesAgree) {
  using protocol::lit;
  using protocol::ref;
  {  // removable spin cycle
    protocol::ProtocolBuilder b("spin");
    const protocol::VarId x0 = b.variable("x0", 2);
    const protocol::VarId x1 = b.variable("x1", 2);
    const std::size_t p0 = b.process("P0", {x0, x1}, {x0});
    b.process("P1", {x0, x1}, {x1});
    b.action(p0, "up", ref(x1) == lit(1) && ref(x0) == lit(0),
             {{x0, lit(1)}});
    b.action(p0, "down", ref(x1) == lit(1) && ref(x0) == lit(1),
             {{x0, lit(0)}});
    b.invariant(ref(x1) == lit(0));
    expectAgreement(b.build());
  }
  {  // unremovable (groupmates inside I)
    protocol::ProtocolBuilder b("locked");
    const protocol::VarId x0 = b.variable("x0", 2);
    const protocol::VarId x1 = b.variable("x1", 2);
    const std::size_t p0 = b.process("P0", {x0}, {x0});
    b.process("P1", {x0, x1}, {x1});
    b.action(p0, "up", ref(x0) == lit(0), {{x0, lit(1)}});
    b.action(p0, "down", ref(x0) == lit(1), {{x0, lit(0)}});
    b.invariant(ref(x1) == lit(0));
    expectAgreement(b.build());
  }
}

TEST(CrossSynthesis, UnremovableCycleAfterARemovableGroupReturnsTheInput) {
  // One cycle outside I (x2 = 1) over P0's and P1's edges. P0 reads x2, so
  // its groups stay outside I and could be removed; P1 does not, so its
  // groups reach into I and cannot be. Both engines visit P0 first, and a
  // failed run must still return delta_p untouched.
  using protocol::lit;
  using protocol::ref;
  protocol::ProtocolBuilder b("removable-then-locked");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  const protocol::VarId x2 = b.variable("x2", 2);
  const std::size_t p0 = b.process("P0", {x0, x1, x2}, {x0});
  const std::size_t p1 = b.process("P1", {x0, x1}, {x1});
  b.process("P2", {x2}, {x2});  // no actions: only recovery resets x2
  b.action(p0, "up", ref(x2) == lit(1) && ref(x0) == lit(0) &&
                         ref(x1) == lit(0),
           {{x0, lit(1)}});
  b.action(p0, "down", ref(x2) == lit(1) && ref(x0) == lit(1) &&
                           ref(x1) == lit(1),
           {{x0, lit(0)}});
  b.action(p1, "follow1", ref(x0) == lit(1) && ref(x1) == lit(0),
           {{x1, lit(1)}});
  b.action(p1, "follow0", ref(x0) == lit(0) && ref(x1) == lit(1),
           {{x1, lit(0)}});
  b.invariant(ref(x2) == lit(0));
  const protocol::Protocol p = b.build();
  expectAgreement(p);

  const explicitstate::StateSpace space(p);
  const explicitstate::SynthResult ex =
      explicitstate::addStrongConvergenceExplicit(space);
  EXPECT_EQ(ex.failure,
            explicitstate::SynthFailure::PreexistingCycleUnremovable);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  EXPECT_EQ(ex.relation, decodeEdges(enc, sp.protocolRelation()));
}

TEST(CrossSynthesis, TwoRingSmallDomain) {
  // TR² with |D| = 2 (2^8 * 2 = 512 states) — the non-ring topology with
  // multi-variable writers exercises the group machinery differently.
  expectAgreement(casestudies::twoRing(2));
}

TEST(CrossSynthesis, ExplicitEngineValidatesOptions) {
  const explicitstate::StateSpace space(casestudies::tokenRing(3, 3));
  explicitstate::SynthOptions opt;
  opt.maxPass = 0;
  EXPECT_THROW((void)addStrongConvergenceExplicit(space, opt),
               std::invalid_argument);
}

TEST(CrossSynthesis, WeakConvergenceAgreesAcrossEngines) {
  for (const protocol::Protocol& p :
       {casestudies::tokenRing(4, 3), casestudies::matching(4),
        casestudies::coloring(4)}) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::WeakResult sym = core::addWeakConvergence(sp);

    const explicitstate::StateSpace space(p);
    const explicitstate::WeakSynthResult ex =
        explicitstate::addWeakConvergenceExplicit(space);

    ASSERT_EQ(sym.success, ex.success) << p.name;
    // p_im agrees edge for edge.
    EXPECT_EQ(decodeEdges(enc, sym.relation), ex.relation) << p.name;
    EXPECT_EQ(symbolic::decodeStates(enc, sym.rankInfinityStates),
              std::vector<std::uint64_t>(ex.rankInfinityStates.begin(),
                                         ex.rankInfinityStates.end()))
        << p.name;
  }
}

TEST(CrossSynthesis, WeakUnrealizableAgrees) {
  protocol::ProtocolBuilder b("stuck");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  b.process("P0", {x0, x1}, {x0});
  b.invariant(protocol::ref(x1) == protocol::lit(0));
  const protocol::Protocol p = b.build();

  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const core::WeakResult sym = core::addWeakConvergence(sp);
  const explicitstate::StateSpace space(p);
  const explicitstate::WeakSynthResult ex =
      explicitstate::addWeakConvergenceExplicit(space);
  EXPECT_FALSE(sym.success);
  EXPECT_FALSE(ex.success);
  EXPECT_EQ(symbolic::decodeStates(enc, sym.rankInfinityStates),
            std::vector<std::uint64_t>(ex.rankInfinityStates.begin(),
                                       ex.rankInfinityStates.end()));
}

}  // namespace

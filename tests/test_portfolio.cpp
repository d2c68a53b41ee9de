// Tests for schedule-portfolio synthesis (the paper's Figure 1: one
// heuristic instance per schedule, run in parallel).
#include <gtest/gtest.h>

#include "protocol/builder.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/portfolio.hpp"
#include "core/schedule.hpp"
#include "symbolic/decode.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;
using core::Schedule;

TEST(Schedules, Constructors) {
  EXPECT_EQ(core::identitySchedule(4), (Schedule{0, 1, 2, 3}));
  EXPECT_EQ(core::rotatedSchedule(4, 1), (Schedule{1, 2, 3, 0}));
  EXPECT_EQ(core::rotatedSchedule(4, 5), (Schedule{1, 2, 3, 0}));
  EXPECT_EQ(core::toString(core::rotatedSchedule(3, 2)), "(P2,P0,P1)");
}

TEST(Schedules, Validation) {
  EXPECT_TRUE(core::isValidSchedule({2, 0, 1}, 3));
  EXPECT_FALSE(core::isValidSchedule({2, 0}, 3));       // wrong arity
  EXPECT_FALSE(core::isValidSchedule({2, 2, 1}, 3));    // duplicate
  EXPECT_FALSE(core::isValidSchedule({0, 1, 3}, 3));    // out of range
}

TEST(Schedules, AllSchedulesEnumeratesFactorially) {
  EXPECT_EQ(core::allSchedules(3).size(), 6u);
  EXPECT_EQ(core::allSchedules(4).size(), 24u);
  for (const Schedule& s : core::allSchedules(3)) {
    EXPECT_TRUE(core::isValidSchedule(s, 3));
  }
  EXPECT_THROW((void)core::allSchedules(9), std::invalid_argument);
}

TEST(Portfolio, FindsAWinnerAmongSchedules) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  std::vector<Schedule> schedules;
  for (std::size_t rot = 0; rot < 4; ++rot) {
    schedules.push_back(core::rotatedSchedule(4, rot));
  }
  const core::PortfolioResult r =
      core::synthesizePortfolio(p, schedules, /*threads=*/2);
  ASSERT_TRUE(r.success());
  ASSERT_LT(r.winner, r.instances.size());
  const auto& win = r.instances[r.winner];
  EXPECT_TRUE(win.result.success);
  EXPECT_TRUE(verify::check(*win.symbolic, win.result.relation)
                  .stronglyStabilizing());
  // The result surfaces the winner's stats and wall-clock attribution.
  ASSERT_NE(r.winnerStats(), nullptr);
  EXPECT_EQ(r.winnerStats(), &win.result.stats);
  EXPECT_GT(r.winnerStats()->totalSeconds, 0.0);
  EXPECT_GT(r.wallSeconds, 0.0);
  EXPECT_GE(r.instancesRun(), 1u);
  for (const auto& inst : r.instances) {
    if (inst.ran) {
      EXPECT_GT(inst.wallSeconds, 0.0);
    } else {
      EXPECT_EQ(inst.wallSeconds, 0.0);
    }
  }
}

TEST(Portfolio, WinnerIsFirstSuccessInScheduleOrderDeterministically) {
  const protocol::Protocol p = casestudies::matching(4);
  const std::vector<Schedule> schedules{
      core::identitySchedule(4), core::rotatedSchedule(4, 1),
      core::rotatedSchedule(4, 2)};
  const core::PortfolioResult a =
      core::synthesizePortfolio(p, schedules, /*threads=*/1);
  const core::PortfolioResult b =
      core::synthesizePortfolio(p, schedules, /*threads=*/3);
  ASSERT_TRUE(a.success());
  ASSERT_TRUE(b.success());
  EXPECT_EQ(a.winner, b.winner);
  // Identical synthesized relations regardless of thread count
  // (determinism across parallelism).
  const auto& ia = a.instances[a.winner];
  const auto& ib = b.instances[b.winner];
  EXPECT_EQ(symbolic::decodeRelation(*ia.encoding, ia.result.relation),
            symbolic::decodeRelation(*ib.encoding, ib.result.relation));
}

TEST(Portfolio, StopsClaimingSchedulesAfterFirstSuccess) {
  // One succeeding block of schedules followed by many redundant copies:
  // with a single worker, claims are strictly sequential, so everything
  // after the winner must be skipped (`ran == false`), not run to
  // completion as it used to be.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  std::vector<Schedule> schedules;
  for (int copy = 0; copy < 6; ++copy) {
    for (std::size_t rot = 0; rot < 4; ++rot) {
      schedules.push_back(core::rotatedSchedule(4, rot));
    }
  }
  const core::PortfolioResult r =
      core::synthesizePortfolio(p, schedules, /*threads=*/1);
  ASSERT_TRUE(r.success());
  ASSERT_LT(r.winner, 4u);  // some rotation in the first block succeeds
  for (std::size_t i = 0; i <= r.winner; ++i) {
    EXPECT_TRUE(r.instances[i].ran) << i;
  }
  for (std::size_t i = r.winner + 1; i < r.instances.size(); ++i) {
    EXPECT_FALSE(r.instances[i].ran) << i;
    EXPECT_FALSE(r.instances[i].result.success) << i;
    EXPECT_EQ(r.instances[i].wallSeconds, 0.0) << i;
  }
  EXPECT_EQ(r.instancesRun(), r.winner + 1);
}

TEST(Portfolio, EarlyExitKeepsWinnerDeterministicAcrossThreadCounts) {
  // A fast-succeeding schedule up front and a long tail of slower work:
  // early exit must not change the winner or its synthesized relation.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  std::vector<Schedule> schedules;
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t rot = 0; rot < 4; ++rot) {
      schedules.push_back(core::rotatedSchedule(4, rot));
    }
  }
  const core::PortfolioResult a =
      core::synthesizePortfolio(p, schedules, /*threads=*/1);
  const core::PortfolioResult b =
      core::synthesizePortfolio(p, schedules, /*threads=*/4);
  ASSERT_TRUE(a.success());
  ASSERT_TRUE(b.success());
  EXPECT_EQ(a.winner, b.winner);
  // Every schedule before the winner always runs (claims go out in input
  // order), so the lowest-index success is invariant.
  for (std::size_t i = 0; i <= b.winner; ++i) {
    EXPECT_TRUE(b.instances[i].ran) << i;
  }
  const auto& ia = a.instances[a.winner];
  const auto& ib = b.instances[b.winner];
  EXPECT_EQ(symbolic::decodeRelation(*ia.encoding, ia.result.relation),
            symbolic::decodeRelation(*ib.encoding, ib.result.relation));
}

TEST(Portfolio, EmptyScheduleListYieldsNoWinner) {
  const protocol::Protocol p = casestudies::tokenRing(3, 3);
  const core::PortfolioResult r = core::synthesizePortfolio(p, {});
  EXPECT_FALSE(r.success());
  EXPECT_TRUE(r.instances.empty());
}

TEST(Portfolio, AllInstancesReportedEvenWhenAllFail) {
  // An unrealizable protocol: no schedule can succeed, but every instance
  // must come back with its diagnosis.
  protocol::ProtocolBuilder b("stuck");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  b.process("P0", {x0, x1}, {x0});
  b.process("P1", {x0, x1}, {});
  b.invariant(protocol::ref(x1) == protocol::lit(0));
  const protocol::Protocol p = b.build();

  const std::vector<Schedule> schedules{core::identitySchedule(2),
                                        core::rotatedSchedule(2, 1)};
  const core::PortfolioResult r =
      core::synthesizePortfolio(p, schedules, /*threads=*/2);
  EXPECT_FALSE(r.success());
  EXPECT_EQ(r.winnerStats(), nullptr);
  EXPECT_EQ(r.instancesRun(), r.instances.size());
  for (const auto& inst : r.instances) {
    EXPECT_FALSE(inst.result.success);
    EXPECT_EQ(inst.result.failure,
              core::Failure::NoStabilizingVersionExists);
  }
}

TEST(Portfolio, ResultsAreUsableOnTheCallingThreadAfterAParallelRun) {
  // Regression for the ownership handoff: each instance's BDD manager is
  // built on a worker thread, and managers are thread-confined. The
  // portfolio must re-pin every manager to the calling thread on return,
  // or reading/copying/destroying the result BDDs here (below) trips the
  // debug confinement assert.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  std::vector<Schedule> schedules;
  for (std::size_t rot = 0; rot < 4; ++rot) {
    schedules.push_back(core::rotatedSchedule(4, rot));
  }
  const core::PortfolioResult r =
      core::synthesizePortfolio(p, schedules, /*threads=*/4);
  ASSERT_TRUE(r.success());
  for (const auto& inst : r.instances) {
    if (!inst.ran) continue;
    // Copying bumps ref counts; nodeCount walks the manager's node pool.
    const bdd::Bdd copy = inst.result.relation;
    EXPECT_GE(copy.nodeCount(), 0u);
  }
}

TEST(Portfolio, NoInstanceClaimedAfterASuccessIsObserved) {
  // Regression for the claim race: a worker used to claim an index between
  // another worker's success and its own early-exit check, run it anyway,
  // and make the set of `ran` instances depend on thread interleaving. The
  // ordered-claim argument gives a timing-independent invariant instead:
  // every ran instance at an index above the winner was claimed BEFORE the
  // success published, so in every execution the prefix [0, winner] ran.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  std::vector<Schedule> schedules;
  for (std::size_t rot = 0; rot < 4; ++rot) {
    schedules.push_back(core::rotatedSchedule(4, rot));
  }
  for (const unsigned threads : {1u, 2u, 4u}) {
    const core::PortfolioResult r =
        core::synthesizePortfolio(p, schedules, threads);
    ASSERT_TRUE(r.success());
    for (std::size_t i = 0; i <= r.winner; ++i) {
      EXPECT_TRUE(r.instances[i].ran) << "threads=" << threads;
    }
  }
}

}  // namespace

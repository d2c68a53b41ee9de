// Unit tests for the image layer (SymbolicProtocol::image / preimage): the
// product counters, and per-run accounting of those counters in the stats
// of runs that share one SymbolicProtocol.
#include <gtest/gtest.h>

#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "core/schedule.hpp"
#include "core/weak.hpp"
#include "symbolic/relations.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;

struct Fixture {
  protocol::Protocol p = casestudies::tokenRing(4, 3);
  symbolic::Encoding enc{p};
  symbolic::SymbolicProtocol sp{enc};
};

TEST(ImageProducts, CountProductsButNotSourcesOrTargets) {
  Fixture f;
  const Bdd rel = f.sp.protocolRelation();
  EXPECT_EQ(f.sp.imageOps(), 0u);
  EXPECT_EQ(f.sp.preimageOps(), 0u);
  (void)f.sp.image(rel, f.sp.invariant());
  (void)f.sp.preimage(rel, f.sp.invariant());
  (void)f.sp.preimage(rel, f.enc.validCur());
  EXPECT_EQ(f.sp.imageOps(), 1u);
  EXPECT_EQ(f.sp.preimageOps(), 2u);

  // sources/targets, restriction and deadlock scans are not products.
  const Bdd restricted = f.sp.restrictRel(rel, f.enc.validCur());
  (void)f.sp.sources(restricted);
  (void)f.sp.targets(restricted);
  (void)f.sp.deadlocks(rel);
  EXPECT_EQ(f.sp.imageOps(), 1u);
  EXPECT_EQ(f.sp.preimageOps(), 2u);
}

TEST(ImageProducts, EachRunReportsOnlyItsOwnProducts) {
  Fixture f;
  core::StrongOptions opt;
  opt.schedule = core::rotatedSchedule(4, 1);
  const core::StrongResult first = core::addStrongConvergence(f.sp, opt);
  ASSERT_TRUE(first.success);
  EXPECT_GT(first.stats.imageOps, 0u);
  EXPECT_GT(first.stats.preimageOps, 0u);

  // Products taken between runs (here a verification) are nobody's.
  const std::size_t preimagesBefore = f.sp.preimageOps();
  const verify::Report rep = verify::check(f.sp, first.relation);
  EXPECT_TRUE(rep.stronglyStabilizing());
  EXPECT_GT(f.sp.preimageOps(), preimagesBefore);

  const core::StrongResult second = core::addStrongConvergence(f.sp, opt);
  EXPECT_EQ(second.stats.imageOps, first.stats.imageOps);
  EXPECT_EQ(second.stats.preimageOps, first.stats.preimageOps);

  // The weak run takes only the ranking's preimages, one per BFS round.
  const core::WeakResult weak = core::addWeakConvergence(f.sp);
  EXPECT_EQ(weak.stats.imageOps, 0u);
  EXPECT_EQ(weak.stats.preimageOps, weak.stats.frontierSteps);
  EXPECT_EQ(weak.stats.frontierSteps, first.stats.frontierSteps);
}

}  // namespace

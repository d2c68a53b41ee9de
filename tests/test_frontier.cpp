// Unit tests for the image engine (symbolic/frontier.hpp): product
// equivalence against the plain SymbolicProtocol operations, growth,
// restricted copies, and the shared drain-style work counters.
#include <gtest/gtest.h>

#include "casestudies/token_ring.hpp"
#include "symbolic/frontier.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using symbolic::ImageEngine;

struct Fixture {
  protocol::Protocol p = casestudies::tokenRing(4, 3);
  symbolic::Encoding enc{p};
  symbolic::SymbolicProtocol sp{enc};
};

TEST(ImageEngine, ProductsMatchPlainSymbolicOps) {
  Fixture f;
  const Bdd rel = f.sp.protocolRelation();
  const Bdd inv = f.sp.invariant();
  const Bdd valid = f.enc.validCur();
  const ImageEngine e(f.sp, rel);
  EXPECT_EQ(e.relation(), rel);
  for (const Bdd& s : {inv, valid & !inv, valid}) {
    EXPECT_EQ(e.image(s), f.sp.image(rel, s));
    EXPECT_EQ(e.preimage(s), f.sp.preimage(rel, s));
    EXPECT_EQ(e.image(s, valid & !inv), f.sp.image(rel, s) & valid & !inv);
    EXPECT_EQ(e.preimage(s, valid & !inv),
              f.sp.preimage(rel, s) & valid & !inv);
  }
  EXPECT_EQ(e.sources(), f.sp.sources(rel));
  EXPECT_EQ(e.targets(), f.enc.nextToCur(rel.exists(f.enc.curCube())));
}

TEST(ImageEngine, GrowMatchesFreshEngine) {
  Fixture f;
  ImageEngine e(f.sp, f.sp.protocolRelation());
  const Bdd delta = f.sp.candidates(1) & f.sp.invariant();
  ASSERT_FALSE(delta.isFalse());
  e.grow(delta);

  const ImageEngine fresh(f.sp, f.sp.protocolRelation() | delta);
  EXPECT_EQ(e.relation(), fresh.relation());
  const Bdd s = f.enc.validCur();
  EXPECT_EQ(e.image(s), fresh.image(s));
  EXPECT_EQ(e.preimage(s), fresh.preimage(s));
  EXPECT_EQ(e.sources(), fresh.sources());
}

TEST(ImageEngine, RestrictedMatchesRestrictedRelation) {
  Fixture f;
  const Bdd domain = f.enc.validCur() & !f.sp.invariant();
  const ImageEngine e(f.sp, f.sp.protocolRelation());
  const ImageEngine r = e.restricted(domain);
  EXPECT_EQ(r.relation(), f.sp.restrictRel(f.sp.protocolRelation(), domain));
  EXPECT_EQ(r.image(domain), e.image(domain) & domain);
  EXPECT_EQ(r.sources(), f.sp.sources(r.relation()));
}

TEST(ImageEngine, StatsCountAndDrainAcrossSharedCopies) {
  Fixture f;
  const ImageEngine e(f.sp, f.sp.protocolRelation());
  EXPECT_EQ(e.stats().imageCalls, 0u);
  (void)e.image(f.sp.invariant());
  (void)e.preimage(f.sp.invariant());
  EXPECT_EQ(e.stats().imageCalls, 1u);
  EXPECT_EQ(e.stats().preimageCalls, 1u);

  // Copies (restricted() in particular) account into the same counter.
  const ImageEngine r = e.restricted(f.enc.validCur());
  (void)r.image(f.sp.invariant());
  EXPECT_EQ(e.stats().imageCalls, 2u);

  const symbolic::ImageEngineStats drained = e.drainStats();
  EXPECT_EQ(drained.imageCalls, 2u);
  EXPECT_EQ(drained.preimageCalls, 1u);
  EXPECT_EQ(e.stats().imageCalls, 0u);
  EXPECT_EQ(r.stats().imageCalls, 0u);  // shared, so the copy drained too
}

}  // namespace
